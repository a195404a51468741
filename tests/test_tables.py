"""The law scans that run on integer-indexed tables: exp_end against the
label-table scan in oracles.py, and the first witness of every rejection
path, pinned."""

from itertools import product

import pytest

from oracles import brute_exp_end
from squanta import fixtures as fx
from squanta.aqm import AQM, check_aqm, exp_end, make_quantale
from squanta.errors import (
    LawViolated,
    NotAPartialOrder,
    NotAssociative,
    NotMonotone,
    UnitNotNeutral,
)
from squanta.order import validate_structure
from squanta.search import build_quantale, quantale_descriptions

CHAIN3 = ["0", "1", "2"]
CHAIN3_LEQ = [["0", "1"], ["0", "2"], ["1", "2"]]
SQUARE = ["0", "a", "b", "1"]  # 0 < a, b < 1
SQUARE_LEQ = [["0", "a"], ["0", "b"], ["0", "1"], ["a", "1"], ["b", "1"]]


def _table(unit, els, cells):
    """The op triples of a table with `unit` neutral and `cells` elsewhere."""
    op = [[unit, x, x] for x in els] + [[x, unit, x] for x in els if x != unit]
    return op + [[x, y, z] for (x, y), z in cells.items()]


def _pomonoid(els, leq, op, unit):
    return validate_structure({"poset": {"elements": els, "leq": leq},
                               "monoid": {"op": op, "unit": unit}})


def _name(values):
    return "(" + ",".join(values) + ")"


# -- exp_end against the scan --------------------------------------------------


def test_exp_end_matches_scan():
    for desc in quantale_descriptions(3):
        q = build_quantale(desc)
        a = exp_end(q)
        els = q.elements
        endos, gen = brute_exp_end(els, q.leq, q.plus,
                                   lambda x, y: q.join([x, y]), q.zero, q.bottom)
        assert a.endo_tables == {_name(v): dict(zip(els, v)) for v in endos}
        gen_tables = {_name(v): dict(zip(els, v)) for v in sorted(gen)}
        assert list(a.gen_tables.items()) == list(gen_tables.items())
        assert a.quant.elements == tuple(sorted(gen_tables))


# -- order.py: posets and pomonoids -------------------------------------------


def test_antisymmetry_witness():
    with pytest.raises(NotAPartialOrder) as err:
        validate_structure({"poset": {"elements": ["a", "b", "c"],
                                      "leq": [["c", "b"], ["b", "c"]]}})
    assert str(err.value).startswith("antisymmetry fails")
    assert err.value.witness == ("b", "c")


def test_transitivity_witness():
    with pytest.raises(NotAPartialOrder) as err:
        validate_structure({"poset": {"elements": ["a", "b", "c", "d"],
                                      "leq": [["c", "d"], ["b", "c"], ["a", "b"]]}})
    assert str(err.value).startswith("transitivity fails")
    assert err.value.witness == ("a", "b", "c")


def test_pomonoid_witnesses():
    cases = [
        (NotAssociative, "associativity fails", ("1", "1", "2"),
         _table("0", CHAIN3, {("1", "1"): "0", ("1", "2"): "0",
                              ("2", "1"): "0", ("2", "2"): "0"})),
        (NotMonotone, "right translation not monotone", ("0", "1", "1"),
         _table("0", CHAIN3, {("1", "1"): "0", ("1", "2"): "2",
                              ("2", "1"): "2", ("2", "2"): "2"})),
        (NotMonotone, "left translation not monotone", ("0", "1", "2"),
         _table("0", CHAIN3, {("1", "1"): "1", ("1", "2"): "2",
                              ("2", "1"): "1", ("2", "2"): "2"})),
        (UnitNotNeutral, "unit is not two-sided neutral", ("0", "0"),
         [[x, y, "2"] for x in CHAIN3 for y in CHAIN3]),
        (NotAssociative, "operation table incomplete", ("0", "1"),
         [["0", "0", "0"]]),
    ]
    for exc, message, witness, op in cases:
        with pytest.raises(exc) as err:
            _pomonoid(CHAIN3, CHAIN3_LEQ, op, "0")
        assert str(err.value).startswith(message)
        assert err.value.witness == witness


# -- FinGenQuantale ------------------------------------------------------------


def test_join_exists_witness():
    pom = _pomonoid(["0", "1"], [], _table("0", ["0", "1"], {("1", "1"): "1"}), "0")
    with pytest.raises(LawViolated) as err:
        make_quantale(pom)
    assert (err.value.law, err.value.witness) == ("join-exists", ("0", "1"))


def test_join_distributivity_witnesses():
    # unit 1 and every other sum 0: a + (a v b) = a + 1 = a, but
    # (a + a) v (a + b) = 0
    left = _table("1", SQUARE, {(x, y): "0" for x in "0ab" for y in "0ab"})
    # a non-commutative + with unit a, in which 0 and 1 are left zeros
    right = _table("a", SQUARE, {
        ("0", "0"): "0", ("0", "b"): "0", ("0", "1"): "0",
        ("b", "0"): "0", ("b", "b"): "a", ("b", "1"): "1",
        ("1", "0"): "1", ("1", "b"): "1", ("1", "1"): "1"})
    for law, unit, op, witness in (("join-dist-left", "1", left, ("a", "a", "b")),
                                   ("join-dist-right", "a", right, ("0", "a", "b"))):
        with pytest.raises(LawViolated) as err:
            make_quantale(_pomonoid(SQUARE, SQUARE_LEQ, op, unit))
        assert (err.value.law, err.value.witness) == (law, witness)


# -- check_aqm on a directly built AQM ------------------------------------------


def _broken_aqm(callables):
    """N2 with a product that breaks every finite AQM law, over a two-element
    chain of distributive elements mapped to 2 and 0."""
    q = fx.n2_quantale()
    dist = validate_structure({
        "poset": {"elements": ["d0", "d1"], "leq": [["d0", "d1"]]},
        "monoid": {"op": [["d0", "d0", "d0"], ["d0", "d1", "d0"],
                          ["d1", "d0", "d0"], ["d1", "d1", "d1"]],
                   "unit": "d1", "notation": "multiplicative"},
    })
    mult = {(x, y): str((int(x) + 2 * int(y) + 1) % 3)
            for x, y in product(q.elements, repeat=2)}
    iota = {"d0": "2", "d1": "0"}
    if callables:
        return AQM(dist, q, lambda x, y: mult[(x, y)], "1", iota.__getitem__)
    return AQM(dist, q, mult, "1", iota)


# law -> (number of failed instances, first witness)
BROKEN_AQM_FAILURES = {
    "unit": (2, ("1", "0")),
    "assoc": (18, ("0", "0", "0")),
    "right-join-dist": (8, ("0", "1", "2")),
    "right-plus-dist": (12, ("0", "0", "0")),
    "zero-annihilates": (2, "0"),
    "left-join-dist-iota": (4, ("d0", "1", "2")),
    "left-plus-dist-iota": (8, ("d0", "1", "1")),
    "left-zero-iota": (1, "d1"),
    "iota-hom": (3, ("d0", "d0")),
    "iota-monotone": (1, ("d0", "d1")),
    "iota-unit": (1, "d1"),
}


@pytest.mark.parametrize("callables", [False, True])
def test_check_aqm_witnesses(callables):
    a = _broken_aqm(callables)
    rep = check_aqm(a, strict=False)
    failures = {}
    for line in rep.lines:
        if ": FAIL [witness: " in line:
            law, witness = line.split(": FAIL [witness: ")
            count, first = failures.get(law, (0, witness[:-1]))
            failures[law] = (count + 1, first)
    assert failures == {law: (count, repr(w))
                        for law, (count, w) in BROKEN_AQM_FAILURES.items()}
    assert rep.lines[-2:] == ["violations found", "distributively generated: False"]
    assert a.dg_witness == {"0": "0", "2": "i(d0)"}
    with pytest.raises(LawViolated) as err:
        check_aqm(a)
    assert (err.value.law, err.value.witness) == ("unit", ("1", "0"))
