"""The law scans that run on integer-indexed tables: exp_end and the
module action laws against the label scans in oracles.py, and the first
witness of every rejection path, pinned."""

import hashlib
import json
from collections import Counter
from itertools import product

import pytest

from oracles import (brute_check_action, brute_condition_ii, brute_exp_end,
                     brute_residual, label_hom_from_generator_image)
from test_table_scan_pins import _cell_mutants
from squanta import fixtures as fx
from squanta.aqm import (AQM, MODULE_LAWS, check_aqm, exp_end, make_quantale,
                         scan_module_laws)
from squanta.errors import (
    IllDefined,
    LawViolated,
    NoResidual,
    NotAPartialOrder,
    NotAssociative,
    NotMonotone,
    NotStructural,
    UnitNotNeutral,
)
from squanta.modact import (MODULE, ActionMap, check_action,
                            hom_from_generator_image)
from squanta.nucleus import enumerate_nuclei, quotient
from squanta.order import validate_structure
from squanta.reporting import LawScan
from squanta.projective import (
    cyclic_projective_check,
    enumerate_module_homs,
    residual,
    self_module,
    submodule_on_orbit,
)
from squanta.search import (
    _commutative_mults,
    quantale_descriptions,
    suite_projective,
)

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


def test_exp_end_matches_scan(chain4_nc):
    """exp_end against the label scan, on every quantale of size <= 4 and on
    a 4-chain whose + does not commute: the endomorphisms, Gen's elements,
    and Gen's order, +, join and product (f after g) over every pair."""
    for q in [make_quantale(d) for d in quantale_descriptions(4)] + [chain4_nc]:
        a = exp_end(q)
        els, g = q.elements, a.quant
        endos, gen = brute_exp_end(els, q.leq, q.plus,
                                   lambda x, y: q.join([x, y]), q.zero, q.bottom)
        assert a.endo_tables == {_name(v): dict(zip(els, v)) for v in endos}
        gen_tables = {_name(v): dict(zip(els, v)) for v in sorted(gen)}
        assert list(a.gen_tables.items()) == list(gen_tables.items())
        assert g.elements == tuple(sorted(gen_tables))
        for f, h in product(sorted(gen), repeat=2):
            pair = _name(f), _name(h)
            assert g.leq(*pair) == all(map(q.leq, f, h))
            assert g.plus(*pair) == _name(map(q.plus, f, h))
            assert g.join(pair) == _name(q.join(xy) for xy in zip(f, h))
            assert a.mult(*pair) == _name(f[els.index(x)] for x in h)
    # the last Gen has a + that does not commute
    assert len(g.elements) == 7
    assert sum(g.plus(f, h) != g.plus(h, f)
               for f, h in product(g.elements, repeat=2)) == 4


def test_gen_quantales_as_pinned():
    """Gen's elements, order rows, + table, product table and distributive
    elements, for all 207 quantales of size <= 4 and every 20th of size 5
    (Gen has up to 70 elements there), as one SHA-256."""
    lines = []
    for desc in quantale_descriptions(4) + quantale_descriptions(5)[::20]:
        a = exp_end(make_quantale(desc))
        g = a.quant
        lines.append(repr((g.elements, g.pomonoid.poset.up_rows,
                           tuple(g.plus_table), tuple(a.mult_table()),
                           a.dist.elements)))
    assert len(lines) == 520
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "dbf9aadd64776178b106c67858d3355ca05f47b19e1c58fd9bfb5e6109e4d398")


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
    "unit": (2, "0"),
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
    assert (err.value.law, err.value.witness) == ("unit", "0")



@pytest.mark.parametrize("cell, law, other", [
    ((2, 1), "right-unit", "unit"),
    ((1, 2), "unit", "right-unit"),
])
def test_check_aqm_names_the_unit_side(cell, law, other):
    """A3's product with one cell set to 1 breaks its unit 1 at x = 2 on
    one side, 2 * 1 = 1 on the right or 1 * 2 = 1 on the left, and the
    report names that side only."""
    a, (s, x) = fx.a3(), cell
    t = list(a.mult_table())
    t[s * len(a.quant.elements) + x] = 1
    rep = check_aqm(AQM(a.dist, a.quant, tuple(t), a.one, a.iota),
                    strict=False)
    assert f"{law}: FAIL [witness: '2']" in rep.lines
    assert not any(ln.startswith(f"{other}: ") for ln in rep.lines)


# the module laws of an AQM's action on itself, by their AQM names
SELF_MODULE_LAWS = {
    "unit": "unit", "zero-scalar": "zero-annihilates", "compose": "assoc",
    "scalar-plus": "right-plus-dist", "scalar-join": "right-join-dist",
    "iota-join-dist": "left-join-dist-iota",
    "iota-plus-dist": "left-plus-dist-iota", "iota-zero": "left-zero-iota",
}


def _finite_aqms():
    """Every commutative AQM on each quantale of size <= 3, then every
    single-cell change of the A3 and N3 product tables."""
    for desc in quantale_descriptions(3):
        yield from _commutative_mults(make_quantale(desc))
    for a in (fx.a3(), fx.n3()):
        for t in _cell_mutants(a.mult_table(), len(a.quant.elements)):
            yield AQM(a.dist, a.quant, t, a.one, a.iota, a.name)


def test_check_aqm_matches_self_module_scan():
    """The finite check_aqm fails the module laws of the AQM acting on
    itself as the label scan of oracles.py does, in its order and under
    the AQM names; only the right unit and the iota link laws follow."""
    count = failing = 0
    for a in _finite_aqms():
        failures, checked = brute_check_action(self_module(a))
        rep = check_aqm(a, strict=False)
        fails = [ln for ln in rep.lines if ": FAIL [witness: " in ln]
        assert fails[:len(failures)] == [
            f"{SELF_MODULE_LAWS[law]}: FAIL [witness: {w!r}]"
            for law, w in failures]
        assert {ln.split(":")[0] for ln in fails[len(failures):]} <= {
            "right-unit", "iota-hom", "iota-monotone", "iota-unit"}
        # the link laws check the right unit per element, iota-hom per
        # pair of distributive elements and iota-monotone per ordered pair
        dist = a.dist.elements
        links = len(a.quant.elements) + len(dist) ** 2 + sum(
            a.dist.leq(d, e) for d, e in product(dist, repeat=2))
        assert (rep.data["checked"], rep.data["skipped"]) == (
            checked + links, 0)
        count += 1
        failing += bool(failures)
    assert (count, failing) == (93, 66)


# -- module actions on tables ---------------------------------------------------


def _small_modules():
    """For every commutative AQM on each quantale of size <= 3: its
    self-module, the orbit submodule of every element and the quotient by
    every structural nucleus."""
    for desc in quantale_descriptions(3):
        q = make_quantale(desc)
        nucs = enumerate_nuclei(q)
        for aqm in _commutative_mults(q):
            selfm = self_module(aqm)
            mods = [selfm] + [submodule_on_orbit(selfm, u) for u in q.elements]
            for nuc in nucs:
                try:
                    mods.append(quotient(selfm, nuc).module)
                except NotStructural:
                    pass
            yield mods


def _assert_matches_scan(ma):
    failures, checked = brute_check_action(ma)
    rep = check_action(ma, strict=False)
    assert rep.lines[:-1] == [f"{law}: FAIL [witness: {w!r}]"
                              for law, w in failures]
    assert rep.data == {"checked": checked, "skipped": 0}
    if failures:
        with pytest.raises(LawViolated) as err:
            check_action(ma)
        assert (err.value.law, err.value.witness) == failures[0]
    return failures


def test_check_action_matches_scan():
    count = 0
    for mods in _small_modules():
        for ma in mods:
            assert _assert_matches_scan(ma) == []
            count += 1
    assert count == 187  # 27 self-modules, 77 orbits, 83 quotients


def _cell_changes(ma):
    """Every single-cell change of the module's star table."""
    cells = {(a, x): ma.star(a, x) for a in ma.scalars.quant.elements
             for x in ma.space.elements}
    for (a, x), z in product(cells, ma.space.elements):
        if cells[a, x] != z:
            table = dict(cells)
            table[a, x] = z
            yield ActionMap(MODULE, ma.scalars, ma.space,
                            lambda a, x, t=table: t[a, x])


def _broken_modules():
    """Every single-cell change of the A3 and N3 self-module tables and of
    a self-module on the four-element lattice 3 < 1, 2 < 0."""
    square = make_quantale(quantale_descriptions(4)[15])
    for ma in (fx.a3_self_module(), fx.n3_self_module(),
               self_module(_commutative_mults(square)[0])):
        yield from _cell_changes(ma)


def test_check_action_witnesses_on_broken_tables():
    laws = set()
    for broken in _broken_modules():
        laws.update(law for law, _ in _assert_matches_scan(broken))
    assert laws == {"unit", "zero-scalar", "compose", "scalar-plus",
                    "scalar-join", "iota-join-dist", "iota-plus-dist",
                    "iota-zero"}


def test_modules_on_a_noncommutative_sum(chain4_nc):
    """The self-modules of the AQMs on a quantale whose + does not commute,
    so that the order of each sum shows. On them and on every single-cell
    change of them, scan_module_laws without a table (the runner of
    fragment modules) fails the laws as the label scan does, in its order.
    Each self-module's homomorphisms are its right multiplications, and
    its quotient by every structural nucleus verifies."""
    q, failing, quotients = chain4_nc, 0, 0
    selfms = [self_module(a) for a in _commutative_mults(q)]
    for ma in selfms + [b for m in selfms for b in _cell_changes(m)]:
        failures, checked = brute_check_action(ma)
        rep = LawScan("labels", strict=False)
        scan_module_laws(rep, ma.scalars, q, ma.star, q.elements, q.elements,
                         [(i, i) for i in ma.iota_scalars()], None,
                         MODULE_LAWS)
        assert rep.lines == [f"{law}: FAIL [witness: {w!r}]"
                             for law, w in failures]
        assert rep.checked == checked
        failing += bool(failures)
    for ma in selfms:
        mult = ma.scalars.mult
        homs = [tuple(h.items()) for h in enumerate_module_homs(ma, ma)]
        assert sorted(homs) == sorted({tuple((x, mult(x, w)) for x in q.elements)
                                       for w in q.elements})
        for nuc in enumerate_nuclei(q):
            try:
                quotient(ma, nuc)
            except NotStructural:
                continue
            quotients += 1
    assert (len(selfms), failing, quotients) == (2, 96, 9)


def test_quotient_star_matches_its_table():
    """A quotient module's action on labels agrees with its star table, on
    the self-module of an endomorphism AQM whose product does not commute,
    so that the order of scalar and point shows."""
    a = exp_end(make_quantale(quantale_descriptions(3)[4]))
    els = a.quant.elements
    assert any(a.mult(x, y) != a.mult(y, x) for x, y in product(els, repeat=2))
    quotients = 0
    for nuc in enumerate_nuclei(a.quant):
        try:
            qm = quotient(self_module(a), nuc).module
        except NotStructural:
            continue
        points = qm.space.elements
        assert [qm.star(s, x) for s in els for x in points] == [
            points[z] for z in qm.star_table()]
        quotients += 1
    assert quotients == 4


def test_residual_matches_scan():
    mods = [m for mods in _small_modules() for m in mods]
    outcomes = set()
    for ma in mods + list(_broken_modules()):
        for y, x in product(ma.space.elements, repeat=2):
            try:
                r = residual(y, x, ma)
            except NoResidual as exc:
                got = (exc.args[0], exc.witness)
                outcomes.add(exc.args[0])
            else:
                assert not r.fragment_limited
                got = (r.value, r.certificate)
                outcomes.add("value")
            assert got == brute_residual(y, x, ma)
    assert outcomes == {"value", "no scalar sends x below y",
                        "join of the certificate set escapes the bound",
                        "adjunction fails"}


def test_condition_ii_matches_scan():
    """Condition (ii), decided from generator images, against the
    isomorphism scan onto each orbit module: on every module of
    _small_modules(), every self-module of size 4 and every broken module,
    on which a well defined map a * w -> a * u need not be a homomorphism."""
    mods = [m for mods in _small_modules() for m in mods]
    for desc in quantale_descriptions(4)[15:]:
        mods += [self_module(a) for a in _commutative_mults(make_quantale(desc))]
    found = raised = 0
    for ma in mods + list(_broken_modules()):
        try:
            ii = cyclic_projective_check(ma).data["witnesses"]["ii"]
        except ArithmeticError:  # cyclic_check's two routes disagree
            raised += 1
            continue
        assert ii == brute_condition_ii(ma)
        found += bool(ii)
    assert (len(mods), found, raised) == (871, 853, 4)


def _hom_outcome(build, *args):
    try:
        return "map", build(*args)
    except IllDefined as exc:
        return exc.args[0], exc.witness


def test_generator_images_match_the_label_scan():
    """hom_from_generator_image on the star tables against the scan over
    labels: the same map, or the same message and witness, for every pair
    of points of the modules over one AQM, and from each broken module to
    itself, where the induced map can fail to be a homomorphism."""
    groups = [[(m, x) for m in mods for x in m.space.elements]
              for mods in _small_modules()]
    pairs = [pair for points in groups for pair in product(points, repeat=2)]
    pairs += [((b, u), (b, w)) for b in _broken_modules()
              for u, w in product(b.space.elements, repeat=2)]
    outcomes = Counter()
    for (m1, u), (m2, w) in pairs:
        got = _hom_outcome(hom_from_generator_image, m1, u, m2, w)
        assert got == _hom_outcome(label_hom_from_generator_image,
                                   m1, u, m2, w)
        outcomes[got[0]] += 1
    assert outcomes == {"map": 2375,
                        "generator image does not induce a map": 2601,
                        "module is not u-cyclic": 2489,
                        "induced map is not a module homomorphism": 154}


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


# per quantale of size <= 3: (aqms, cyclic quotients, (one, nucleus values,
# carrier) of each reported nonprojective quotient)
SUITE_PROJECTIVE_3 = [
    (1, 1, []), (1, 2, []), (1, 2, []), (1, 3, []),
    (3, 10, [("0", "011", "01"), ("0", "011", "01")]), (1, 3, []),
    (3, 10, [("0", "022", "02"), ("0", "022", "02")]),
    (3, 10, [("2", "002", "02"), ("2", "002", "02")]), (1, 3, []),
    (3, 10, [("1", "010", "01"), ("1", "010", "01")]), (1, 3, []), (1, 3, []),
    (3, 10, [("1", "212", "12"), ("1", "212", "12")]),
    (3, 10, [("2", "112", "12"), ("2", "112", "12")]), (1, 3, []),
]


def test_suite_projective_pinned():
    # recorded before the module layer ran on tables: the suite output and
    # every cyclic_projective_check report (lines and data) of the 83
    # cyclic quotients, as SHA-256 of their sorted-key JSON
    out = [suite_projective(d) for d in quantale_descriptions(3)]
    assert [(r["aqms"], r["cyclic_quotients"],
             [(e["one"], "".join(e["nucleus"].values()), "".join(e["carrier"]))
              for e in r["nonprojective"]]) for r in out] == SUITE_PROJECTIVE_3
    assert _digest(out) == \
        "d4286433c6777ba4e134c02f71efdd192d1ce5894c2ac9331ca8e17db8f70011"
    reports = []
    for mods in _small_modules():
        reports += [cyclic_projective_check(m).to_dict()
                    for m in mods[1 + len(mods[0].space.elements):]]
    assert len(reports) == 83
    assert _digest(reports) == \
        "a9bc431a70f956a04317b631959c543069dddce08ee1dcdf7ceda70a0e1acf0d"
