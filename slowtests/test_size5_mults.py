"""search._commutative_mults on every 5-element quantale, in the slow gate:
list for list against the direct search of each quantale's own tables,
with + and binary joins distributed over and the zero preset. Tier-1
checks the same on every quantale of size <= 4 against the label oracles
(tests/test_search.py). Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

from squanta.aqm import make_quantale
from squanta.search import (_commutative_mults, _commutative_tables,
                            quantale_descriptions)


def test_size5_mults_match_the_search_on_each_quantale():
    descs = [d for d in quantale_descriptions(5)
             if len(d["poset"]["elements"]) == 5]
    assert len(descs) == 6040
    total = 0
    for q in map(make_quantale, descs):
        els, poset = q.elements, q.pomonoid.poset
        leq, zero = poset.leq_table.rows, poset.index_of(q.zero)
        want = [(els[one], t) for one in range(5)
                for t in _commutative_tables(5, leq, one, [q.plus_table,
                                                           q.join_table], zero)]
        got = [(a.one, tuple(a.mult_op.flat)) for a in _commutative_mults(q)]
        assert got == want, q
        total += len(got)
    assert total == 29580
