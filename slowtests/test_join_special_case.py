"""The Galatos-Tsinakis special case at n = 5, in the slow gate: on each of
the 380 five-element quantales whose + is the join, the three presentation
enumerators against scans of the order that never evaluate + and share no
code with the package (tests/oracles.py). The n <= 4 case is in tier-1
(tests/test_nucleus.py). Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import (  # noqa: E402
    closure_operators,
    join_closed_preorders,
    order_joins,
    semilattice_congruences,
)
from squanta.aqm import make_quantale  # noqa: E402
from squanta.nucleus import (  # noqa: E402
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
)
from squanta.search import quantale_descriptions  # noqa: E402


def test_presentations_of_a_five_element_join_are_those_of_its_order():
    found = 0
    for desc in quantale_descriptions(5):
        if len(desc["poset"]["elements"]) != 5:
            continue
        q = make_quantale(desc)
        els, leq = q.elements, q.leq
        joins = order_joins(els, leq)
        if any(q.plus(x, y) != joins[(x, y)] for x in els for y in els):
            continue
        found += 1
        assert [n.table for n in enumerate_nuclei(q)] \
            == closure_operators(els, leq), desc
        assert sorted(c.pairs for c in enumerate_consequences(q)) == sorted(
            join_closed_preorders(els, leq)), desc
        assert sorted(c.classes for c in enumerate_congruences(q)) == sorted(
            semilattice_congruences(els, leq)), desc
    # one labeled quantale per labeled five-element lattice
    assert found == 380
