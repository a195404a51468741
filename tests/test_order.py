from itertools import product

import pytest

from squanta.errors import (
    NotAPartialOrder,
    NotAssociative,
    NotMonotone,
    TooLarge,
    UnknownElement,
)
from squanta.aqm import FinGenQuantale
from squanta.order import (
    MonotoneMap,
    Pomonoid,
    antichain_ops,
    enumerate_monotone_selfmaps,
    pomonoid_from_flat,
    poset_from_rows,
    selfmap_pomonoid,
    validate_structure,
)


def test_c2_is_a_chain(c2):
    assert len(c2.elements) == 2
    assert len(c2.pairs) == 3  # two reflexive pairs plus a < b


def test_n2_flags(n2):
    # not idempotent: direct table check, 1+1 = 2 != 1
    assert n2.apply("1", "1") == "2"
    assert n2.commutative and n2.dually_integral and not n2.idempotent


def test_broken_sum_table_rejected(n2):
    desc = {
        "poset": {
            "elements": ["0", "1", "2"],
            "leq": [["0", "1"], ["0", "2"], ["1", "2"]],
        },
        "monoid": {
            "op": [
                [x, y, ("0" if (x, y) == ("1", "1") else str(min(int(x) + int(y), 2)))]
                for x in "012"
                for y in "012"
            ],
            "unit": "0",
        },
    }
    with pytest.raises((NotMonotone, NotAssociative)) as err:
        validate_structure(desc)
    assert err.value.witness is not None


def test_not_a_partial_order():
    with pytest.raises(NotAPartialOrder):
        validate_structure(
            {"poset": {"elements": ["x", "y"], "leq": [["x", "y"], ["y", "x"]]}}
        )


def test_unknown_element(c2):
    with pytest.raises(UnknownElement):
        antichain_ops(c2, {"zz"}, "down")


def test_antichain_ops(c2, d2):
    assert antichain_ops(c2, {"b"}, "down") == {"a", "b"}
    assert antichain_ops(d2, {"p", "q"}, "min") == {"p", "q"}
    assert antichain_ops(c2, {"a", "b"}, "min") == {"a"}
    assert antichain_ops(c2, {"a"}, "up") == {"a", "b"}


def test_min_up_round_trip(c2, d2):
    # up(min(U)) = U for every upset U
    for poset in (c2, d2):
        carrier = set(poset.elements)
        for bits in product([False, True], repeat=len(poset.elements)):
            u = {x for x, b in zip(poset.elements, bits) if b}
            if poset.up(u) != u:
                continue  # not an upset
            assert poset.up(poset.minimal(u)) == u


def test_monotone_selfmap_counts(c2, d2):
    d2_maps, _ = enumerate_monotone_selfmaps(d2)
    assert len(d2_maps) == 4  # every self-map of a discrete 2-set
    c2_maps, _ = enumerate_monotone_selfmaps(c2)
    # oracle: of the 4 tables only a>b, b>a fails monotonicity
    tables = [
        {"a": fa, "b": fb}
        for fa in "ab"
        for fb in "ab"
        if not (fa == "b" and fb == "a")
    ]
    assert len(c2_maps) == len(tables) == 3
    single = validate_structure({"poset": {"elements": ["*"], "leq": []}})
    maps, _ = enumerate_monotone_selfmaps(single)
    assert len(maps) == 1


def test_selfmaps_closed_under_composition(c2):
    maps, order = enumerate_monotone_selfmaps(c2)
    ident = [m for m in maps if all(m.apply(x) == x for x in c2.elements)]
    assert len(ident) == 1
    for f in maps:
        for g in maps:
            assert f.compose(g) in maps
    assert order  # componentwise order comes back non-trivial


def test_selfmap_pomonoid_validates(c2, d2):
    # Mon X with composition is itself a pomonoid
    for poset in (c2, d2):
        pom, _ = selfmap_pomonoid(poset)
        assert pom.notation == "multiplicative"


def test_selfmap_pomonoid_too_large_before_composing(monkeypatch):
    # the 6-chain has 462 monotone self-maps, more than a pomonoid holds,
    # which is known before any of their 213,444 products is composed
    chain6 = validate_structure({"poset": {
        "elements": list("012345"),
        "leq": [[str(i), str(j)] for i in range(6) for j in range(i, 6)]}})

    def compose(self, other):
        raise AssertionError("composed before the size check")

    monkeypatch.setattr(MonotoneMap, "compose", compose)
    with pytest.raises(TooLarge) as err:
        selfmap_pomonoid(chain6)
    assert err.value.witness == 462
    assert str(err.value) == "carrier has 462 > 256 elements [witness: 462]"


def test_too_large_guard():
    big = validate_structure(
        {"poset": {"elements": [f"e{i}" for i in range(7)], "leq": []}}
    )
    with pytest.raises(TooLarge):
        enumerate_monotone_selfmaps(big)


def _max_chain(n):
    """The n-chain 000 < 001 < ... with max as its sum, and that sum."""
    chain = poset_from_rows(tuple(f"{i:03}" for i in range(n)),
                            [(1 << n) - (1 << i) for i in range(n)])
    return chain, tuple(max(i, j) for i in range(n) for j in range(n))


def test_tables_hold_at_most_256_elements():
    chain, flat = _max_chain(256)
    q = FinGenQuantale(pomonoid_from_flat(chain, flat, 0))
    assert q.join_table == flat and q.bottom == "000"
    chain, flat = _max_chain(257)
    for build in (lambda: pomonoid_from_flat(chain, flat, 0),
                  lambda: FinGenQuantale(Pomonoid(chain, flat, "000"))):
        with pytest.raises(TooLarge) as info:
            build()
        assert info.value.witness == 257


def test_pomonoid_axioms_full_scan(n2):
    els = n2.elements
    for x, y, z in product(els, repeat=3):
        assert n2.apply(n2.apply(x, y), z) == n2.apply(x, n2.apply(y, z))
        if n2.leq(x, y):
            assert n2.leq(n2.apply(x, z), n2.apply(y, z))
            assert n2.leq(n2.apply(z, x), n2.apply(z, y))
    for x in els:
        assert n2.apply("0", x) == x == n2.apply(x, "0")
