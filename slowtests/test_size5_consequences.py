"""enumerate_consequences on every 5-element quantale, in the slow gate:
list for list against the NextClosure oracle, and the number of closures
Close-by-One computes. Tier-1 checks both on every quantale of size <= 4
and every 20th of size 5 (tests/test_enumerators.py). Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import round_robin_consequences  # noqa: E402
from squanta.aqm import make_quantale  # noqa: E402
from squanta.nucleus import enumerate_consequences  # noqa: E402
from squanta.search import quantale_descriptions  # noqa: E402
from test_enumerators import consequences_and_closures  # noqa: E402


def _size5():
    descs = [d for d in quantale_descriptions(5)
             if len(d["poset"]["elements"]) == 5]
    assert len(descs) == 6040
    return map(make_quantale, descs)


def test_size5_consequences_match_the_nextclosure_oracle():
    total = 0
    for q in _size5():
        got = enumerate_consequences(q)
        assert got == round_robin_consequences(q), q.pomonoid
        total += len(got)
    assert total == 55440


def test_size5_closures_per_consequence_relation():
    # NextClosure, closing each set from >= again, computed 3.89 a relation
    relations = closures = 0
    for q in _size5():
        got, calls = consequences_and_closures(q)
        relations += len(got)
        closures += calls
    assert relations == 55440
    assert closures <= 2.05 * relations, closures / relations
