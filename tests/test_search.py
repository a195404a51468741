"""The pruned search enumerators against the scans in oracles.py: the same
lists, in the same order."""

import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from oracles import (
    _labeled_lattices,
    _labeled_posets,
    brute_commutative_mults,
    brute_consequences,
    brute_labeled_posets,
    brute_quantale_descriptions,
    is_lattice,
    scan_consequences,
    unit_row_commutative_mults,
)
from squanta.aqm import make_quantale
from squanta.nucleus import enumerate_consequences
from squanta import aqm, order, reporting, search
from squanta.search import (
    _commutative_mults,
    quantale_descriptions,
    suite_leftdist,
    suite_projective,
)


@pytest.fixture(scope="module")
def small_quantales():
    """Every c.d.i. generalized quantale on at most 3 labeled elements."""
    return [make_quantale(d) for d in quantale_descriptions(3)]


def _tables(q):
    return q.elements, q.leq, q.plus, lambda x, y: q.join([x, y])


def test_labeled_posets_match_scan():
    for n in range(1, 5):
        got = [{(i, j) for i in range(n) for j in range(n)
                if i != j and up[i] >> j & 1} for up in _labeled_posets(n)]
        assert got == brute_labeled_posets(n)


def test_descriptions_match_scan():
    # the enumerator builds tuples and the oracle lists: compare as JSON
    assert (json.dumps(quantale_descriptions(4), sort_keys=True)
            == json.dumps(brute_quantale_descriptions(4), sort_keys=True))


def test_size_five_counts():
    assert len(_labeled_posets(5)) == 4231  # OEIS A001035
    descs = quantale_descriptions(5)
    assert len(descs) == 6247
    # the whole list, content and order, as canonical JSON
    digest = hashlib.sha256(json.dumps(descs, sort_keys=True).encode())
    assert digest.hexdigest() == DESCRIPTIONS_5


@pytest.mark.parametrize("enabled", [True, False])
def test_descriptions_leave_the_collector_as_they_found_it(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(quantale_descriptions(3)) == 15
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_descriptions_restore_the_collector_when_the_build_raises(monkeypatch):
    lattice_tables = search._lattice_tables

    def partway(n):
        if n == 2:
            raise RuntimeError("build interrupted")
        return lattice_tables(n)

    monkeypatch.setattr(search, "_lattice_tables", partway)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="build interrupted"):
        quantale_descriptions(3)
    assert gc.isenabled()


def test_commutative_tables_leave_no_reference_cycle():
    chain4 = [[int(a <= b) for b in range(4)] for a in range(4)]
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(list(search._commutative_tables(4, chain4, 0))) == 6
        assert gc.collect() == 0
    finally:
        gc.enable() if was else gc.disable()


def test_descriptions_share_no_list_or_dict():
    # an edit to one description must not change another: each has its own
    # dicts, and what they share are tuples
    owner = {}

    def walk(obj, i):
        assert not isinstance(obj, list)
        if isinstance(obj, dict):
            assert owner.setdefault(id(obj), i) == i
            obj = tuple(obj.values())
        if isinstance(obj, tuple):
            for v in obj:
                walk(v, i)

    descs = quantale_descriptions(3)
    for i, desc in enumerate(descs):
        walk(desc, i)


def test_equal_tables_share_one_op_tuple():
    descs = [d for d in quantale_descriptions(5)
             if len(d["poset"]["elements"]) == 5]
    assert len(descs) == 6040
    ops = {}
    for d in descs:
        op = d["monoid"]["op"]
        assert ops.setdefault(op, op) is op  # equal tables, one object
    assert len({id(d["monoid"]["op"]) for d in descs}) == len(ops) == 2980


def test_size_five_descriptions_hold_at_most_6_mb():
    # 4.4 MB with one op tuple per distinct table, 5.1 MB with one per
    # description; about 15 MB with a fresh triple per cell, and 23 MB as
    # lists
    tracemalloc.start()
    try:
        descs = quantale_descriptions(5)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(descs) == 6247
    assert held <= 6_000_000


def _relabel(up, s):
    """The up-rows of the order `up` with each element x renamed s[x]."""
    out = [0] * len(up)
    for x, row in enumerate(up):
        out[s[x]] = sum(1 << s[y] for y in range(len(up)) if row >> y & 1)
    return tuple(out)


def test_labeled_lattices_are_the_labeled_posets_that_are_lattices():
    # built from a bottom, a top and an order on the other points, against
    # the scan of every labeled poset: the same lists, in the same order
    for n, count in zip(range(1, 6), [1, 2, 6, 36, 380]):  # OEIS A055512
        lattices = _labeled_lattices(n)
        assert lattices == [up for up in _labeled_posets(n) if is_lattice(up)]
        assert len(lattices) == count


def test_order_classes_by_one_point_extension():
    # one copy of each order class, none isomorphic to another, and their
    # orbits partition the labeled orders (OEIS A000112, A001035)
    for k, count in enumerate([1, 1, 2, 5, 16, 63]):
        classes = search._order_classes(k)
        assert len(classes) == count
        orbits = [set(search._orbit(up)) for up in classes]
        assert sum(map(len, orbits)) == len(_labeled_posets(k))
        assert set().union(*orbits) == set(_labeled_posets(k))


def test_lattice_orbits_are_the_labeled_lattices():
    # the labeled lattices _lattice_tables yields, each class's orbit sorted
    # into one list, against the bottom-and-top construction, list for list
    for n, count in zip(range(1, 6), [1, 2, 6, 36, 380]):
        got = [up for up, _, _ in search._lattice_tables(n)]
        assert got == _labeled_lattices(n)
        assert sum(len(search._orbit(rep))
                   for rep in search._lattice_classes(n)) == count
    for n, count in zip(range(1, 7), [1, 1, 1, 2, 5, 15]):  # OEIS A006966
        reps, key = search._lattice_classes(n), search._strict_pair_key(n)
        assert len(reps) == count
        for rep in reps:  # the copy the key puts first in its orbit
            assert key(rep) == min(map(key, search._orbit(rep)))
            assert is_lattice(rep)


def test_one_orbit_per_order_class(monkeypatch):
    # _order_classes lists the orbit of each order class on 1..n - 2 points
    # (OEIS A000112) and _lattice_classes that of each lattice class on n
    # (A006966), which _lattice_tables reads: none is listed twice
    calls, orbit = Counter(), search._orbit
    monkeypatch.setattr(search, "_orbit",
                        lambda up: calls.update([len(up)]) or orbit(up))
    orders = [1, 1, 2, 5, 16]
    for n, lattices, copies in zip(range(2, 7), [1, 1, 2, 5, 15],
                                   [2, 6, 36, 380, 6390]):
        calls.clear()
        assert len(list(search._lattice_tables(n))) == copies
        assert calls == Counter({n: lattices,
                                 **{k: orders[k] for k in range(1, n - 1)}})


def test_lattice_classes_rebase_each_orbit_onto_its_rep():
    # each copy with a relabeling that takes the rep to it
    for n in range(1, 7):
        for rep, orbit in search._lattice_classes(n).items():
            assert orbit.keys() == search._orbit(rep).keys()
            assert orbit[rep] == tuple(range(n))
            assert all(_relabel(rep, s) == up for up, s in orbit.items())


def test_orbit_keeps_the_first_permutation_to_each_copy():
    # the chain 0 < 1 and the antichain {0, 1} on two points; the diamond
    # 0 < 1, 2 < 3, whose swap of 1 and 2 is its one nontrivial automorphism
    assert search._orbit((3, 2)) == {(3, 2): (0, 1), (1, 3): (1, 0)}
    assert search._orbit((1, 2)) == {(1, 2): (0, 1)}
    diamond = search._orbit((15, 10, 12, 8))
    assert len(diamond) == 12
    assert diamond[(15, 10, 12, 8)] == (0, 1, 2, 3)
    assert all(s < (s[0], s[2], s[1], s[3]) for s in diamond.values())


def test_one_table_search_per_lattice_class(monkeypatch):
    calls = []
    commutative_tables = search._commutative_tables

    def spy(n, leq, unit, over=()):
        calls.append((n, leq))
        return commutative_tables(n, leq, unit, over)

    monkeypatch.setattr(search, "_commutative_tables", spy)
    assert len(quantale_descriptions(5)) == 6247
    sizes = [n for n, _ in calls]
    assert sizes == sorted(sizes)
    assert [sizes.count(n) for n in range(1, 6)] == [1, 1, 1, 2, 5]  # A006966
    for n in range(1, 6):
        lattices = [up for up in _labeled_posets(n) if is_lattice(up)]
        assert len(lattices) == [1, 2, 6, 36, 380][n - 1]
        copies = []
        for m, leq in calls:
            if m != n:
                continue
            rep = tuple(sum(b << j for j, b in enumerate(row)) for row in leq)
            orbit = {_relabel(rep, s) for s in permutations(range(n))}
            mine = [up for up in lattices if up in orbit]
            assert mine[0] == rep  # searched on the first copy of its class
            automorphisms = sum(_relabel(rep, s) == rep
                                for s in permutations(range(n)))
            assert len(mine) * automorphisms == factorial(n)
            copies.extend(mine)
        assert sorted(copies) == sorted(lattices)  # the classes partition them


def test_commutative_mults_match_scan(small_quantales):
    assert len(small_quantales) == 15
    for q in small_quantales:
        got = [(a.one, {(x, y): a.mult(x, y)
                        for x in q.elements for y in q.elements})
               for a in _commutative_mults(q)]
        els, leq, plus, join = _tables(q)
        assert got == brute_commutative_mults(els, leq, plus, join, q.zero)


def test_commutative_mults_keep_what_check_aqm_accepts():
    """On every quantale of size <= 4, _commutative_mults keeps, in order,
    exactly the unfiltered candidate tables whose AQM the law scan
    accepts: its distributivity and zero filters decide the AQM laws."""
    descs = quantale_descriptions(4)
    assert len(descs) == 207
    candidates = kept = 0
    for desc in descs:
        q = make_quantale(desc)
        els, up = q.elements, q.pomonoid.poset.up_rows
        n = len(els)
        leq = [[up[x] >> y & 1 for y in range(n)] for x in range(n)]
        tables = [(els[one], t) for one in range(n)
                  for t in search._commutative_tables(n, leq, one)]
        want = [(one, t) for one, t in tables
                if aqm.check_aqm(aqm.table_aqm(q, t, one), strict=False).ok]
        assert [(a.one, tuple(a.mult_op.flat))
                for a in _commutative_mults(q)] == want
        candidates += len(tables)
        kept += len(want)
    assert (candidates, kept) == (4685, 711)


def test_commutative_mults_match_the_unit_row_search():
    """The preset zero and the per-row distributivity cut keep exactly the
    tables, in order, of the search over every cell off the unit's row
    filtered on complete tables: on every quantale of size <= 4 and on
    every 50th description of size <= 5."""
    descs = quantale_descriptions(4) + quantale_descriptions(5)[::50]
    kept = 0
    for desc in descs:
        q = make_quantale(desc)
        got = [(a.one, tuple(a.mult_op.flat)) for a in _commutative_mults(q)]
        assert got == unit_row_commutative_mults(q)
        kept += len(got)
    assert (len(descs), kept) == (332, 1366)


def test_preset_zero_keeps_the_tables_with_that_zero_row():
    """_commutative_tables with a zero gives, in order, the tables without
    one whose zero row is all zero: for every labeled order on at most 3
    points, every unit and every other zero, which need not be the bottom;
    then only the preset cells' own monotonicity test keeps tables such as
    1*0 = 1 > 0 = 2*0 on the chain 0 < 1 < 2 (unit 2, zero 1) out. A zero
    that is the unit clashes with the unit's row unless n = 1."""
    runs = kept = 0
    for n in range(1, 4):
        for up in _labeled_posets(n):
            leq = [[up[a] >> b & 1 for b in range(n)] for a in range(n)]
            for unit in range(n):
                every = list(search._commutative_tables(n, leq, unit))
                assert list(search._commutative_tables(
                    n, leq, unit, zero=unit)) == ([] if n > 1 else [(0,)])
                for zero in set(range(n)) - {unit}:
                    got = list(search._commutative_tables(n, leq, unit,
                                                          zero=zero))
                    assert got == [t for t in every if all(
                        t[zero * n + x] == zero for x in range(n))]
                    runs += 1
                    kept += len(got)
    assert (runs, kept) == (120, 144)
    chain3 = [[int(a <= b) for b in range(3)] for a in range(3)]
    assert list(search._commutative_tables(3, chain3, 2, zero=1)) == []


def test_consequences_match_scans(small_quantales):
    for q in small_quantales:
        got = [c.pairs for c in enumerate_consequences(q)]
        assert got == scan_consequences(*_tables(q))
        assert got == brute_consequences(*_tables(q))


def test_leftdist_blocks_are_decided_by_one_comparison(monkeypatch):
    """No law of a suite_leftdist job of size <= 4 is walked: each block of
    instances is two byte rows, and one comparison decides a block that
    holds. A side of another type (a list against bytes) compares unequal
    and would be walked, correctly but slowly."""
    compared, walked = [], []
    row_mismatches = order.row_mismatches

    def spy(checks):
        for law, lhs, rhs in checks:
            compared.append((type(lhs), type(rhs)))
            if lhs != rhs:
                walked.append(law)
        return row_mismatches(checks)

    for module in (order, reporting, search):
        monkeypatch.setattr(module, "row_mismatches", spy)
    descs = quantale_descriptions(4)
    assert len(descs) == 207
    assert not any(suite_leftdist(d)["found"] for d in descs)
    assert set(compared) == {(bytes, bytes)}
    assert walked == []


def test_leftdist_matches_the_bench_pins():
    """The Gen sizes that the benchmark's leftdist-4 gate pins
    (perfbench/pins.json, keyed by the SHA-256 of each description's sorted
    JSON), and no witness, on every quantale of size <= 4."""
    pins = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "pins.json").read_text())["leftdist-4"]
    got = {}
    for d in quantale_descriptions(4):
        r = suite_leftdist(d)
        assert not r["found"]
        key = json.dumps(d, sort_keys=True, separators=(",", ":"))
        got[hashlib.sha256(key.encode()).hexdigest()[:16]] = r["gen_size"]
    assert got == pins


def test_leftdist_witness_at_size_five():
    # quantale_descriptions(5)[338], the first description of size 5 whose
    # endomorphism closure has a left-distributivity counterexample: the
    # order 4 < 2, 3 < 1 < 0 with 4 as the unit of +
    sums = {"11": "0", "12": "0", "13": "0", "22": "0", "23": "1", "33": "0"}

    def plus(x, y):
        if "4" in (x, y):
            return y if x == "4" else x
        return "0" if "0" in (x, y) else sums[min(x, y) + max(x, y)]

    els = ["0", "1", "2", "3", "4"]
    desc = {
        "poset": {"elements": els,
                  "leq": [["1", "0"], ["2", "0"], ["2", "1"], ["3", "0"],
                          ["3", "1"], ["4", "0"], ["4", "1"], ["4", "2"],
                          ["4", "3"]]},
        "monoid": {"op": [[x, y, plus(x, y)] for x in els for y in els],
                   "unit": "4"},
    }
    got = suite_leftdist(desc)
    assert (got["gen_size"], got["found"]) == (12, True)
    assert got["witnesses"][0] == ("(0,0,1,1,4)", "(0,0,0,2,4)", "(0,0,0,3,4)")


def test_projective_suite_at_size_four():
    # every (AQM, nucleus) pair of the 207 quantales of size <= 4, as
    # canonical JSON: the classification, its counts and its witnesses
    results = [suite_projective(d) for d in quantale_descriptions(4)]
    assert sum(r["cyclic_quotients"] for r in results) == 3347
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode())
    assert digest.hexdigest() == PROJECTIVE_4


DESCRIPTIONS_5 = (
    "e30ab6ec982cd000c602cb7192fc40d61847466a99c5cb73d4be9bc41db25fab")
PROJECTIVE_4 = (
    "661b828f5eb6e95ad79d18b8845118dd771e9da40c8ea9115c204d23b36128f0")
