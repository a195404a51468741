"""The package keeps zero runtime dependencies: every module of
`src/squanta` imports only the standard library and the package itself,
and `pyproject.toml` declares no dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_import_only_the_standard_library():
    sources = sorted((ROOT / "src" / "squanta").glob("*.py"))
    assert sources
    for path in sources:
        for name in _absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names, (path.name, name)


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
