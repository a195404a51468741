"""List every statement inside a function body of src/squanta that the
tier-1 suite does not execute.

    python tools/linecov.py                      # the tier-1 suite
    python tools/linecov.py tests/test_order.py  # any other pytest arguments

It runs pytest in this process under a `sys.settrace` line tracer, set
before `squanta` is first imported, and prints one `path:line: source`
line for each statement in the body of a function or method (nested ones
included) that no traced frame reached, in file and line order, then a
summary line. A compound
statement (`if`, `for`, `with`, `try`, a nested `def`) counts as executed
when one of its header lines ran, a simple statement when one of its lines
ran; docstrings are not statements. A tracer keeps the frames it traces
alive, so `test_commutative_tables_leave_no_reference_cycle`, which checks
that no frame holds a table, is deselected. Lines that run only in a
worker process of a `--workers` pool are not seen. The exit status is
pytest's. The standard library is all it needs.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DESELECT = "tests/test_search.py::test_commutative_tables_leave_no_reference_cycle"


def _is_docstring(node, parent):
    return (_block(parent, "body")[:1] == [node] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _block(node, name):
    """The statements (or except handlers) of the block `name` of `node`;
    none where that field is absent or an expression (a lambda's body)."""
    value = getattr(node, name, None)
    return value if isinstance(value, list) else []


def statements(tree):
    """{first line: the lines whose execution counts for the statement} for
    each statement inside a function body of the module `tree`."""
    out = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for parent in ast.walk(fn):
            for name in ("body", "orelse", "finalbody"):
                for node in _block(parent, name):
                    if _is_docstring(node, parent):
                        continue
                    inner = [s for f in ("body", "handlers", "orelse", "finalbody")
                             for s in _block(node, f)]
                    end = min(s.lineno for s in inner) - 1 if inner else node.end_lineno
                    first = min([node.lineno] + [d.lineno for d in
                                                 getattr(node, "decorator_list", ())])
                    out[node.lineno] = set(range(first, max(end, node.lineno) + 1))
    return out


def trace(pytest_args):
    """Run pytest with `pytest_args` under a line tracer over the files of
    SRC: (pytest's exit status, the set of (file, line) that ran)."""
    hits, ours = set(), {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.abspath(name).startswith(str(SRC) + os.sep)
        return local if ours[name] else None

    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        import pytest
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return status, {(os.path.abspath(f), line) for f, line in hits}


def main():
    args = sys.argv[1:] or ["-q", "--continue-on-collection-errors"]
    status, hits = trace(["-p", "no:cacheprovider", "--deselect", DESELECT] + args)
    missed = total = 0
    for path in sorted((SRC / "squanta").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        ran = {line for f, line in hits if f == str(path)}
        for first, span in sorted(statements(ast.parse(text)).items()):
            total += 1
            if not span & ran:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} of {total} statements in function bodies not executed "
          f"(pytest exit status {status})")
    return status


if __name__ == "__main__":
    sys.exit(main())
