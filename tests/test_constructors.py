"""The table-level constructors (order.poset_from_rows, pomonoid_from_flat,
restrict_pomonoid) against the label parser they replaced for derived
structures: every derived structure is also built from its label
description, as before, and the two must agree in tables, flags, report
lines and errors."""

from collections import Counter
from itertools import product

import pytest

from oracles import brute_structural_over
from squanta import fixtures as fx, order, projective
from squanta.aqm import check_aqm, exp_end, make_quantale, table_aqm
from squanta.errors import LawViolated, NotStructural, SquantaError
from squanta.modact import (
    ACT,
    MODULE,
    ActionMap,
    check_action,
    extend_act_to_module,
)
from squanta.nucleus import (
    _structural_over,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
    quotient,
)
from squanta.order import (
    pomonoid_from_flat,
    poset_from_rows,
    restrict_pomonoid,
    validate_structure,
)
from squanta.projective import self_module, submodule_on_orbit
from squanta.search import (
    _commutative_mults,
    _commutative_tables,
    quantale_descriptions,
    suite_leftdist,
    suite_projective,
)
from test_tables import _broken_modules, _small_modules

DESCS = quantale_descriptions(3)


def _outcome(build):
    """What build() gives: ("ok", value) or (error type, message, witness)."""
    try:
        return "ok", build()
    except SquantaError as exc:
        return type(exc).__name__, str(exc), exc.witness


def _assert_same_quantale(a, b):
    pa, pb = a.pomonoid, b.pomonoid
    assert pa == pb
    assert pa.poset.up_rows == pb.poset.up_rows
    assert pa.flat == pb.flat
    assert (pa.commutative, pa.dually_integral, pa.idempotent) == \
        (pb.commutative, pb.dually_integral, pb.idempotent)
    assert (a.plus_table, a.join_table, a.bottom) == \
        (b.plus_table, b.join_table, b.bottom)


def _assert_same_module(a, b):
    assert a.star_table() == b.star_table()
    ra, rb = check_action(a, strict=False), check_action(b, strict=False)
    assert (ra.lines, ra.data) == (rb.lines, rb.data)


def _label_quantale(elements, leq, plus, zero):
    """A quantale on labels through validate_structure, as derived
    structures were built before the table constructors."""
    return make_quantale({
        "poset": {"elements": elements,
                  "leq": [[x, y] for x in elements for y in elements
                          if leq(x, y)]},
        "monoid": {"op": [[x, y, plus(x, y)] for x in elements
                          for y in elements],
                   "unit": zero},
    })


def _label_orbit(ma, u):
    q = ma.space
    orbit = sorted({ma.star(a, u) for a in ma.scalar_universe()})
    quant = _label_quantale(orbit, q.leq, q.plus, q.zero)
    sub = ActionMap(MODULE, ma.scalars, quant, ma.star)
    check_action(sub)
    return sub


def _label_quotient(ma, nuc):
    q, g = ma.space, nuc.as_dict()
    carrier = sorted({g[x] for x in q.elements})
    quant = _label_quantale(carrier, q.leq,
                            lambda x, y: g[q.plus(x, y)], g[q.zero])
    return ActionMap(MODULE, ma.scalars, quant,
                     lambda a, x: g[ma.star(a, x)])


# -- posets and pomonoids --------------------------------------------------------


def test_poset_from_rows_matches_parser():
    els = ("a", "b", "c")
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    kinds = Counter()
    for bits in range(1 << len(pairs)):
        rel = [p for k, p in enumerate(pairs) if bits >> k & 1]
        rows = [sum(1 << j for i2, j in rel if i2 == i) for i in range(3)]
        by_rows = _outcome(lambda: poset_from_rows(els, rows))
        by_labels = _outcome(lambda: validate_structure({"poset": {
            "elements": list(els),
            "leq": [[els[i], els[j]] for i, j in rel]}}))
        assert by_rows == by_labels
        assert by_rows[0] != "ok" or by_rows[1].up_rows == by_labels[1].up_rows
        kinds[by_rows[1].split(" [")[0] if by_rows[0] != "ok" else "ok"] += 1
    assert kinds == {"ok": 19, "antisymmetry fails": 37,
                     "transitivity fails": 8}


def _mutants(flat, n):
    """The flat table itself and every table that differs in one cell."""
    yield tuple(flat)
    for cell, z in product(range(n * n), range(n)):
        if flat[cell] != z:
            yield tuple(flat[:cell]) + (z,) + tuple(flat[cell + 1:])


def test_pomonoid_from_flat_matches_parser():
    kinds = Counter()
    for desc in DESCS:
        poset = validate_structure({"poset": desc["poset"]})
        els, n = poset.elements, len(poset.elements)
        flat = make_quantale(desc).plus_table
        for t, unit in product(_mutants(flat, n), range(n)):
            for notation in ("additive", "multiplicative"):
                by_table = _outcome(
                    lambda: pomonoid_from_flat(poset, t, unit, notation))
                by_labels = _outcome(lambda: validate_structure({
                    "poset": desc["poset"],
                    "monoid": {"op": [[els[i], els[j], els[t[i * n + j]]]
                                      for i in range(n) for j in range(n)],
                               "unit": els[unit], "notation": notation}}))
                assert by_table == by_labels
                if by_table[0] == "ok":
                    a, b = by_table[1], by_labels[1]
                    assert a.flat == b.flat
                    assert (a.commutative, a.dually_integral, a.idempotent) \
                        == (b.commutative, b.dually_integral, b.idempotent)
                kinds[by_table[0]] += 1
    assert set(kinds) == {"ok", "UnitNotNeutral", "NotAssociative",
                          "NotMonotone"}


def test_restrict_outside_the_positions():
    # N2: 0 < 1 < 2 with truncated +; {0, 1} is not closed (1 + 1 = 2) and
    # {1, 2} misses the zero
    from squanta.fixtures import n2_quantale

    q = n2_quantale()
    plus = q.plus_table
    for positions, zero in (([0, 1], 0), ([1, 2], 0), ([0, 2], 0)):
        els = [q.elements[i] for i in positions]
        by_table = _outcome(lambda: q.restrict(
            positions, lambda i, j: plus[i * 3 + j], zero))
        by_labels = _outcome(lambda: _label_quantale(
            els, q.leq, q.plus, q.elements[zero]))
        assert by_table[:1] == by_labels[:1]
        if by_table[0] == "ok":
            _assert_same_quantale(by_table[1], by_labels[1])
        else:
            assert by_table == by_labels
    assert _outcome(lambda: restrict_pomonoid(
        q.pomonoid.poset, [0, 1], lambda i, j: plus[i * 3 + j], 0)) == \
        ("UnknownElement", "element '2' not in poset [witness: '2']", "2")


# -- derived quantales and modules ----------------------------------------------


def test_derived_structures_match_label_descriptions():
    orbits = quotients = 0
    for desc in DESCS:
        q = make_quantale(desc)
        nucs = enumerate_nuclei(q)
        for aqm in _commutative_mults(q):
            selfm = self_module(aqm)
            for u in q.elements:
                sub, label = submodule_on_orbit(selfm, u), _label_orbit(selfm, u)
                _assert_same_quantale(sub.space, label.space)
                _assert_same_module(sub, label)
                orbits += 1
            for nuc in nucs:
                try:
                    qm = quotient(selfm, nuc).module
                except NotStructural:
                    continue
                label = _label_quotient(selfm, nuc)
                _assert_same_quantale(qm.space, label.space)
                _assert_same_module(qm, label)
                quotients += 1
    assert (orbits, quotients) == (77, 83)


def test_broken_orbits_raise_as_label_orbits():
    kinds = Counter()
    for ma in _broken_modules():
        for u in ma.space.elements:
            by_table = _outcome(lambda: submodule_on_orbit(ma, u))
            by_labels = _outcome(lambda: _label_orbit(ma, u))
            assert by_table[:1] == by_labels[:1]
            if by_table[0] == "ok":
                _assert_same_quantale(by_table[1].space, by_labels[1].space)
                _assert_same_module(by_table[1], by_labels[1])
            else:
                assert by_table == by_labels
            kinds[by_table[0]] += 1
    assert {"ok", "UnknownElement"} <= set(kinds)


def _label_table_aqm(q, mult, one):
    """table_aqm before the table constructors: the product validated as a
    label description, its errors renamed to AQM laws."""
    from squanta import errors

    try:
        dist = validate_structure({
            "poset": {"elements": list(q.elements),
                      "leq": [[x, y] for x in q.elements for y in q.elements
                              if q.leq(x, y)]},
            "monoid": {"op": [[x, y, z] for (x, y), z in mult.items()],
                       "unit": one, "notation": "multiplicative"}})
    except errors.UnitNotNeutral as exc:
        raise LawViolated("unit", witness=exc.witness) from exc
    except errors.NotAssociative as exc:
        raise LawViolated("assoc", witness=exc.witness) from exc
    except errors.NotMonotone as exc:
        raise LawViolated("mult-monotone", witness=exc.witness) from exc
    return dist


def test_table_aqm_matches_label_description():
    kinds = Counter()
    for desc in DESCS:
        q = make_quantale(desc)
        els, n = q.elements, len(q.elements)
        leq = [[q.leq(x, y) for y in els] for x in els]
        for one in range(n):
            for t in [m for good in _commutative_tables(n, leq, one)
                      for m in _mutants(good, n)]:
                mult = {(x, y): els[t[i * n + j]]
                        for i, x in enumerate(els) for j, y in enumerate(els)}
                by_flat = _outcome(lambda: table_aqm(q, t, els[one]))
                by_dict = _outcome(lambda: table_aqm(q, mult, els[one]))
                by_labels = _outcome(lambda: _label_table_aqm(q, mult, els[one]))
                assert by_flat[:1] == by_dict[:1] == by_labels[:1]
                if by_flat[0] != "ok":
                    assert by_flat == by_dict == by_labels
                    kinds[by_flat[1].split(" [")[0]] += 1
                    continue
                a, b = by_flat[1], by_dict[1]
                assert a.dist == b.dist == by_labels[1]
                assert tuple(a.mult_table()) == tuple(b.mult_table()) == t
                assert all(a.mult(x, y) == mult[x, y] for x, y in mult)
                ra, rb = check_aqm(a, strict=False), check_aqm(b, strict=False)
                assert (ra.lines, ra.data) == (rb.lines, rb.data)
                kinds["ok"] += 1
    assert len(kinds) > 3


def test_table_aqm_dict_errors():
    from squanta.fixtures import n2_quantale

    q = n2_quantale()
    full = {(x, y): x for x in q.elements for y in q.elements}
    missing = dict(full)
    del missing["1", "2"]
    unknown = dict(full)
    unknown["1", "1"] = "9"
    for mult in (missing, unknown):
        assert _outcome(lambda: table_aqm(q, mult, "0")) == \
            _outcome(lambda: _label_table_aqm(q, mult, "0"))
    assert _outcome(lambda: table_aqm(q, full, "7"))[0] == "UnknownElement"


def test_exp_end_matches_label_description():
    for desc in DESCS:
        q = make_quantale(desc)
        a = exp_end(q)
        tables = a.gen_tables
        names = sorted(tables)

        def pointwise(op):
            def combine(f, g):
                h = {x: op(tables[f][x], tables[g][x]) for x in q.elements}
                return next(k for k in names if tables[k] == h)
            return combine

        gen = _label_quantale(
            names, lambda f, g: all(q.leq(tables[f][x], tables[g][x])
                                    for x in q.elements),
            pointwise(q.plus), next(k for k in names if all(
                v == q.zero for v in tables[k].values())))
        _assert_same_quantale(a.quant, gen)

        def compose(f, g):
            h = {x: tables[f][tables[g][x]] for x in q.elements}
            return next(k for k in names if tables[k] == h)

        endo = sorted(a.endo_tables)
        dist = validate_structure({
            "poset": {"elements": endo,
                      "leq": [[f, g] for f in endo for g in endo
                              if gen.leq(f, g)]},
            "monoid": {"op": [[f, g, compose(f, g)] for f in endo for g in endo],
                       "unit": next(k for k in endo if all(
                           x == v for x, v in tables[k].items())),
                       "notation": "multiplicative"}})
        assert a.dist == dist and a.dist.flat == dist.flat
        assert all(a.mult(f, g) == compose(f, g) for f in names for g in names)


# -- structurality on tables against the label scan ------------------------------


def _fragment_scalar_modules():
    """Modules over the free AQM on M2 (fragment scalars) on finite
    quantales: the extensions of the acts in which c acts as the idempotent
    endomorphism 0, 2, 2 of N2 and of B3 (on B3, gamma(1) = 0, gamma(2) = 2
    is not structural)."""
    h = {"0": "0", "1": "2", "2": "2"}
    for q in (fx.n2_quantale(), fx.b3().quant):
        aa = ActionMap(ACT, fx.m2(), q, lambda a, x: x if a == "e" else h[x])
        check_action(aa)
        ma = extend_act_to_module(aa, 2)
        check_action(ma)
        yield ma


def test_structural_scan_matches_labels():
    verdicts = Counter()
    presentations = {}
    modules = [ma for mods in _small_modules() for ma in mods]
    # a size-4 quantale on which a consequence relation fails at (x, y) and
    # at (x', y') with x < x' and y > y', so the scan order decides the witness
    q4 = make_quantale(quantale_descriptions(4)[186])
    modules += [self_module(a) for a in _commutative_mults(q4)]
    modules += list(_fragment_scalar_modules())
    for ma in modules + list(_broken_modules()):
        sp = ma.space
        if id(sp) not in presentations:
            presentations[id(sp)] = (enumerate_nuclei(sp)
                                     + enumerate_consequences(sp)
                                     + enumerate_congruences(sp))
        for p in presentations[id(sp)]:
            for scalars in (ma.iota_scalars(), ma.scalar_universe()):
                got = _structural_over(p, ma, scalars)
                assert got == brute_structural_over(p, ma, scalars)
                verdicts[type(p).__name__, got[0]] += 1
    assert all(verdicts[kind, ok] for kind in ("Nucleus", "AddConsequence",
                                               "QuantCongruence")
               for ok in (True, False))


# -- each structure built once -------------------------------------------------


def _count_calls(monkeypatch, module, fn_name):
    """Wrap module.fn_name wherever a squanta module holds it; returns the
    list the wrapper appends each call's arguments to."""
    import sys

    calls = []
    original = getattr(module, fn_name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("squanta") and getattr(mod, fn_name, None) is original:
            monkeypatch.setattr(mod, fn_name, wrapper)
    return calls


@pytest.mark.parametrize("suite", [suite_projective, suite_leftdist])
def test_suites_validate_only_their_input(monkeypatch, suite):
    calls = _count_calls(monkeypatch, order, "validate_structure")
    for desc in quantale_descriptions(4)[-3:]:
        calls.clear()
        suite(desc)
        assert calls == [(desc,)]


def test_suite_projective_builds_no_orbit_submodule(monkeypatch):
    # condition (ii) is decided from generator images on the star tables
    calls = _count_calls(monkeypatch, projective, "submodule_on_orbit")
    for desc in quantale_descriptions(4)[-3:]:
        assert suite_projective(desc)["cyclic_quotients"]
    assert calls == []
