"""The benchmark's traced mode (perfbench/spans.py) wraps squanta functions
by module and name; each name it lists must exist, or `run.py --trace 1`
fails."""

import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    spans = {"__name__": "spans"}  # executed from source: writes no bytecode
    exec(compile(SPANS_PY.read_text(), str(SPANS_PY), "exec"), spans)
    listed = [(layer, name) for table in (spans["SPANS"], spans["COUNTS"])
              for layer, names in table.items() for name in names]
    assert len(listed) > 20
    missing = [f"{layer}.{name}" for layer, name in listed
               if not callable(getattr(importlib.import_module(
                   f"squanta.{layer}"), name, None))]
    assert missing == []
