"""The mutant sampler (tools/mutants.py) draws the same mutants for a seed,
and each is its target function with one site changed, in a file that
compiles. The suite itself is not run here."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TARGETS = ["src/squanta/nucleus.py:convert",
           "src/squanta/nucleus.py:QuantCongruence.rows",
           "src/squanta/modact.py:ActionMap.require_tables",
           "src/squanta/projective.py:cyclic_projective_check",
           "src/squanta/search.py:_order_rows"]


def _parts(source, qualname):
    """The dump of the target function, and those of the statements beside
    it and beside each class around it."""
    body, rest = ast.parse(source).body, []
    for name in qualname.split("."):
        node = next(n for n in body if getattr(n, "name", None) == name)
        rest += [ast.dump(n) for n in body if n is not node]
        body = node.body
    return ast.dump(node), rest


def test_a_seed_draws_the_same_compiling_mutants():
    drawn, sites = mutants.sample(TARGETS, 30, 40)
    assert (drawn, sites) == mutants.sample(TARGETS, 30, 40)
    assert len(drawn) == 40 < sites
    assert drawn != mutants.sample(TARGETS, 31, 40)[0]
    every, _ = mutants.sample(TARGETS, 30, sites)
    assert {m["operator"].split()[0] for m in every} == {"flip", "swap", "drop"}
    assert {m["operator"] for m in every} >= {"swap args", "drop not",
                                              "swap And", "swap Or",
                                              "swap BitOr", "swap LShift"}
    originals = {t: _parts((ROOT / t.split(":")[0]).read_text(), t.split(":")[1])
                 for t in TARGETS}
    for m in every:
        compile(m["source"], m["file"], "exec")
        fn, rest = _parts(m["source"], m["function"])
        original, original_rest = originals[f"{m['file']}:{m['function']}"]
        assert fn != original and rest == original_rest, m["site"]
