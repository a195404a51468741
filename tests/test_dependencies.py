"""The package keeps zero runtime dependencies: every module of
`src/squanta` imports only the standard library and the package itself,
and `pyproject.toml` declares no dependency. Its imports sit at module
level, where an import cycle shows, and each one is used, as is each
module-level import of the tests. A finite table is compiled only by the
structure that holds it, and a star table is read only through the action
that holds it. Every top-level definition is reached by name from the
command, from the acceptance gate or from a library claim listed with its
reason in LIBRARY_CLAIMS. An AQM on a finite sort is checked on byte rows
alone, never one instance at a time."""

import ast
import importlib
import sys
from pathlib import Path

from squanta import fixtures as fx
from squanta.aqm import check_aqm, exp_end, make_quantale
from squanta.reporting import LawScan
from squanta.search import quantale_descriptions

ROOT = Path(__file__).resolve().parent.parent


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _sources():
    return sorted((ROOT / "src" / "squanta").glob("*.py"))


def _nested_imports(path):
    """(file, module, names) for each import below the module level."""
    tree = ast.parse(path.read_text(), str(path))
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
            yield (path.name, getattr(node, "module", None),
                   tuple(alias.name for alias in node.names))


def test_sources_import_only_the_standard_library():
    sources = _sources()
    assert sources
    for path in sources:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, name)


def test_sources_leave_the_collector_alone():
    # the collector's state belongs to the whole interpreter, not the library
    found = [(path.name, name) for path in _sources()
             for name in _absolute_imports(path) if name.split(".")[0] == "gc"]
    assert found == []


# outside order.py, the (module, class, function) that may call ByteTable:
# the constructors of the structures that hold one
TABLE_COMPILERS = {("aqm.py", "FinGenQuantale", "__init__"),
                   ("aqm.py", "AQM", "__init__"),
                   ("modact.py", "ActionMap", "star_op")}


def _calls(path, name):
    """(file, class, function) of the innermost class and function around
    each call of `name` in the module, None where there is none."""
    def visit(node, cls, fn):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                   getattr(func, "attr", None)):
            yield path.name, cls, fn
        if isinstance(node, ast.ClassDef):
            cls, fn = node.name, None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls, fn)
    return visit(ast.parse(path.read_text(), str(path)), None, None)


def test_tables_are_compiled_where_they_are_held():
    found = {call for path in _sources() if path.name != "order.py"
             for call in _calls(path, "ByteTable")}
    assert found <= TABLE_COMPILERS, found - TABLE_COMPILERS


def test_restrictions_take_tables():
    # a derived structure is cut from the tables its parent holds, never
    # through a callable evaluated once per cell
    found = [(path.name, node.lineno)
             for path in _sources() + sorted((ROOT / "tests").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None))
             in ("restrict", "restrict_pomonoid")
             and any(isinstance(arg, ast.Lambda) for arg in
                     node.args + [k.value for k in node.keywords])]
    assert found == []


def test_star_tables_are_read_through_the_action():
    # the layout of a star table is known to ActionMap alone: a column
    # a * u is read through ActionMap.column
    found = {call for path in _sources() if path.name != "modact.py"
             for call in _calls(path, "star_table")}
    assert found == set()


def test_label_homomorphisms_are_decided_at_the_edge():
    # a caller that holds a byte map decides it with hom_on_positions; the
    # label form is for maps that arrive as labels: a translation pair's
    # and a lifting family's maps
    found = {(f, fn) for path in _sources() if path.name != "equivlogic.py"
             for f, _, fn in _calls(path, "is_module_hom")}
    assert found <= {("projective.py", "lifting_check")}, found


def test_search_imports_no_private_name():
    path = ROOT / "src" / "squanta" / "search.py"
    found = [alias.name for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name.startswith("_")]
    assert found == []


def test_finite_aqms_are_checked_without_thunks(monkeypatch):
    """check_aqm on a finite AQM decides every law through LawScan.rows:
    over the Gen AQM of every quantale of size <= 4 (exp_end checks it) and
    over the fixture AQMs, LawScan.check is never called."""
    def check(*args, **kwargs):
        raise AssertionError("LawScan.check called on a finite AQM")

    monkeypatch.setattr(LawScan, "check", check)
    descs = quantale_descriptions(4)
    assert len(descs) == 207
    for desc in descs:
        exp_end(make_quantale(desc))
    for a in (fx.a3(), fx.n3(), fx.b3()):
        check_aqm(a, strict=False)


def test_down_rows_are_read_from_the_poset():
    names = {getattr(node, attr, None) for path in _sources()
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for attr in ("name", "id", "attr")}
    assert "_down_rows" not in names


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


def test_imports_sit_at_module_level():
    found = [imp for path in _sources() for imp in _nested_imports(path)]
    assert found == []


def _unused_imports(path):
    """(file, name) for each name a module-level import binds that the
    module neither reads nor lists in `__all__`."""
    tree = ast.parse(path.read_text(), str(path))
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [(path.name, name) for name in bound if name not in read]


def test_sources_have_no_unused_imports():
    found = [unused for path in _sources() if path.name != "__init__.py"
             for unused in _unused_imports(path)]
    assert found == []


def test_tests_have_no_unused_imports():
    found = [unused for path in sorted((ROOT / "tests").glob("*.py"))
             for unused in _unused_imports(path)]
    assert found == []


def test_all_entries_name_attributes():
    stale = []
    for path in _sources():
        name = "squanta" if path.stem == "__init__" else f"squanta.{path.stem}"
        module = importlib.import_module(name)
        stale += [(path.name, entry) for entry in getattr(module, "__all__", ())
                  if not hasattr(module, entry)]
    assert stale == []


# top-level definitions of src/ that neither cli.py nor the acceptance gate
# reaches, each with the reason the package keeps it
LIBRARY_CLAIMS = {
    "free_extend_quantale": "the paper's free DM construction: DM(P) is the "
                            "free generalized quantale on the multiupsets "
                            "over P",
    "parse_downset": "reads the README's downset literals",
    "parse_multiupset": "reads the README's multiupset literals",
    "selfmap_pomonoid": "the README's one path to the 256-element table "
                        "bound, and check_action's non-commuting oracle case",
    "cyclic_check": "cyclicity at the poset, act and module levels, with the "
                    "residual cross-check (x/u)*u = x on finite scalars",
}


def _names(node):
    """The names `node` mentions: variables, attributes and imported names."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name.rpartition(".")[2])
    return found


def _definitions():
    """name -> the top-level def, class and plain assignment statements of
    the modules (not the package root) that bind it; dunder names left out."""
    defs = {}
    for path in _sources():
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                names = [n.id for t in stmt.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("__"):
                    defs.setdefault(name, []).append(stmt)
    return defs


def test_every_definition_is_reached():
    # the command, the acceptance gate and the library claims reach a
    # definition when they mention its name, and so does a reached definition
    defs = _definitions()
    assert set(LIBRARY_CLAIMS) <= set(defs)
    todo = set(LIBRARY_CLAIMS)
    for path in (ROOT / "src" / "squanta" / "cli.py",
                 ROOT / "tests" / "test_acceptance.py"):
        todo |= _names(ast.parse(path.read_text(), str(path)))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for stmt in defs.get(name, ()):
            todo |= _names(stmt) - reached
    assert sorted(set(defs) - reached) == []
