import sys
import tracemalloc
from itertools import product

import pytest

from oracles import (_labeled_posets, assert_selfmap_pomonoid_is_the_label_one,
                     per_x_pomonoid_laws)

from squanta.errors import (
    NotAPartialOrder,
    NotAssociative,
    NotMonotone,
    SquantaError,
    TooLarge,
    UnknownElement,
)
from squanta.aqm import FinGenQuantale
from squanta.order import (
    ByteTable,
    Pomonoid,
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
        c2.check_element("zz")


def test_monotone_selfmap_counts(c2, d2):
    _, d2_maps = selfmap_pomonoid(d2)
    assert len(d2_maps) == 4  # every self-map of a discrete 2-set
    _, c2_maps = selfmap_pomonoid(c2)
    # oracle: of the 4 tables only a>b, b>a fails monotonicity
    tables = [
        {"a": fa, "b": fb}
        for fa in "ab"
        for fb in "ab"
        if not (fa == "b" and fb == "a")
    ]
    assert len(c2_maps) == len(tables) == 3
    single = validate_structure({"poset": {"elements": ["*"], "leq": []}})
    _, maps = selfmap_pomonoid(single)
    assert len(maps) == 1


def test_selfmaps_closed_under_composition(c2):
    pom, maps = selfmap_pomonoid(c2)
    ident = [m for m in maps.values()
             if all(m.apply(x) == x for x in c2.elements)]
    assert len(ident) == 1
    tables = {m.table: name for name, m in maps.items()}
    for f, mf in maps.items():
        for g, mg in maps.items():
            after = tuple((x, mf.apply(mg.apply(x))) for x in c2.elements)
            assert tables[after] == pom.apply(f, g)
    # componentwise order comes back non-trivial
    assert any(x != y for x, y in pom.poset.pairs)


def test_selfmap_pomonoid_validates(c2, d2):
    # Mon X with composition is itself a pomonoid
    for poset in (c2, d2):
        pom, maps = selfmap_pomonoid(poset)
        assert all(maps[pom.unit].apply(x) == x for x in poset.elements)


def test_selfmap_pomonoid_matches_the_label_oracle():
    # every labeled poset on at most 3 points; the slow gate runs the 219
    # on 4 points
    posets = [up for n in range(4) for up in _labeled_posets(n)]
    assert len(posets) == 1 + 1 + 3 + 19
    for up in posets:
        assert_selfmap_pomonoid_is_the_label_one(
            poset_from_rows(tuple("abc"[:len(up)]), up))


def _translates(build):
    """The number of bytes.translate calls made directly from Python code
    while build() runs, which counts every product of two byte maps (the
    monotonicity scans make none once the order's leq_table is built), and
    the SquantaError it raised, or None."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "c_call" and getattr(arg, "__name__", "") == "translate"

    sys.setprofile(profile)
    try:
        build()
    except SquantaError as exc:
        return calls, exc
    finally:
        sys.setprofile(None)
    return calls, None


def test_selfmap_pomonoid_too_large_before_composing(c2):
    # the 6-chain has 462 monotone self-maps, more than a pomonoid holds,
    # which is known before any of their 213,444 products is composed
    chain6 = validate_structure({"poset": {
        "elements": list("012345"),
        "leq": [[str(i), str(j)] for i in range(6) for j in range(i, 6)]}})
    calls, err = _translates(lambda: selfmap_pomonoid(c2))
    assert calls >= 9 and err is None  # 3 maps: 9 products
    chain6.leq_table  # the order's 0/1 rows, built with one translate
    calls, err = _translates(lambda: selfmap_pomonoid(chain6))
    assert calls == 0 and isinstance(err, TooLarge)
    assert err.witness == 462
    assert str(err) == "carrier has 462 > 256 elements [witness: 462]"


def test_too_large_guard():
    big = validate_structure(
        {"poset": {"elements": [f"e{i}" for i in range(7)], "leq": []}}
    )
    with pytest.raises(TooLarge) as err:
        selfmap_pomonoid(big)
    assert str(err.value) == "poset has 7 > 6 elements [witness: 7]"


def _max_chain(n):
    """The n-chain 000 < 001 < ... with max as its sum, and that sum."""
    chain = poset_from_rows(tuple(f"{i:03}" for i in range(n)),
                            [(1 << n) - (1 << i) for i in range(n)])
    return chain, tuple(max(i, j) for i in range(n) for j in range(n))


def test_posets_hold_their_down_and_order_rows():
    """Every labeled poset on at most 4 elements holds the down rows and
    the 0/1 order rows computed from its up rows, built once."""
    for n in range(5):
        for up in _labeled_posets(n):
            poset = poset_from_rows(tuple(map(str, range(n))), up)
            up = poset.up_rows
            assert poset.down_rows == tuple(
                sum(1 << y for y, row in enumerate(up) if row >> x & 1)
                for x in range(n))
            assert poset.leq_table.flat == b"".join(
                bytes(map(int, f"{row:0{n}b}"[::-1])) for row in up)
            assert poset.down_rows is poset.down_rows
            assert poset.leq_table is poset.leq_table


def test_tables_hold_at_most_256_elements():
    chain, flat = _max_chain(256)
    q = FinGenQuantale(pomonoid_from_flat(chain, flat, 0))
    assert tuple(q.join_table) == flat and q.bottom == "000"
    chain, flat = _max_chain(257)
    for build in (lambda: pomonoid_from_flat(chain, flat, 0),
                  lambda: FinGenQuantale(Pomonoid(chain, ByteTable(flat, 257),
                                                   "000"))):
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


def _chain5_selfmaps():
    """The 126 monotone self-maps of the 5-chain under composition, and the
    position of the identity."""
    chain5 = validate_structure({"poset": {
        "elements": list("01234"),
        "leq": [[str(i), str(j)] for i in range(5) for j in range(i, 5)]}})
    pom, _ = selfmap_pomonoid(chain5)
    return pom, pom.poset.index[pom.unit]


def test_pomonoid_blocks_stay_small():
    """pomonoid_from_flat decides the 126-element pomonoid in blocks of x,
    each side of a block at most 64 KiB (4 of 126 rows of 126 * 126 bytes),
    so its traced allocations peak under 1 MB; one block over the whole
    table, 2 MB a side, would not."""
    pom, unit = _chain5_selfmaps()
    pom.poset.leq_table  # the poset's own table, built on first use
    tracemalloc.start()
    try:
        again = pomonoid_from_flat(pom.poset, pom.flat, unit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == pom
    assert peak <= 1 << 20


def _first_error(build):
    try:
        build()
    except SquantaError as exc:
        return type(exc).__name__, exc.witness
    return None


# mutants of the 126-element pomonoid: (x, y, value) sets one product,
# (x, y) drops the cover x < y from the order; but for the unit's, each
# fails first in another block of 4 x
@pytest.mark.parametrize("cell, cover, expected", [
    ((17, 59, 72), None, ("NotAssociative", ("f1", "f113", "f39"))),
    ((99, 39, 8), None, ("NotAssociative", ("f103", "f75", "f20"))),
    ((102, 70, 26), None, ("UnitNotNeutral", ("f49", "f78"))),
    (None, ("f11", "f13"), ("NotMonotone", ("f11", "f23", "f13"))),
    (None, ("f21", "f23"), ("NotMonotone", ("f21", "f43", "f29"))),
    (None, ("f92", "f94"), ("NotMonotone", ("f37", "f40", "f98"))),
    (None, ("f98", "f102"), ("NotMonotone", ("f48", "f58", "f98"))),
])
def test_pomonoid_blocks_give_the_per_x_witness(cell, cover, expected):
    """The first witness of a blocked scan is that of the scan over one x
    at a time (oracles.per_x_pomonoid_laws), in whichever block it falls."""
    pom, unit = _chain5_selfmaps()
    poset, flat = pom.poset, bytearray(pom.flat)
    if cell:
        x, y, value = cell
        flat[x * len(poset.elements) + y] = value
    else:
        x, y = map(poset.index.__getitem__, cover)
        up = list(poset.up_rows)
        up[x] &= ~(1 << y)
        poset = poset_from_rows(poset.elements, up)
    got = _first_error(lambda: pomonoid_from_flat(poset, flat, unit))
    assert got == _first_error(lambda: per_x_pomonoid_laws(poset, flat, unit))
    assert got == expected
