import sys

import pytest

from oracles import (
    brute_congruences,
    brute_consequences,
    brute_nuclei,
    closure_operators,
    congruence_failures,
    join_closed_preorders,
    order_joins,
    scan_consequences,
    semilattice_congruences,
    set_partitions,
)
from squanta.aqm import exp_end, make_quantale
from squanta.errors import LawViolated, NotStructural, TooLarge, UnknownElement
from squanta.modact import ACT, MODULE, ActionMap, check_action, extend_act_to_module
from squanta.nucleus import (
    QuantCongruence,
    _order_and_sum_iso,
    congruence,
    consequence,
    convert,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
    nucleus,
    quotient,
    structural_check,
    validate_presentation,
)
from squanta.search import quantale_descriptions


def test_validate_nucleus_examples(n2q):
    validate_presentation(nucleus(n2q, {x: x for x in n2q.elements}))
    validate_presentation(nucleus(n2q, {"0": "0", "1": "2", "2": "2"}))
    with pytest.raises(LawViolated) as err:
        validate_presentation(nucleus(n2q, {"0": "1", "1": "1", "2": "2"}))
    assert err.value.law == "nucleus-sum"
    assert err.value.witness == ("0", "0")


def test_validate_presentation_rejects_other_objects(n2q):
    # the kind is checked before any table is read: a quantale has no
    # `space`, and a bare object has nothing at all
    for p in (object(), n2q):
        with pytest.raises(TypeError, match="not a presentation"):
            validate_presentation(p)
        with pytest.raises(TypeError, match="not a presentation"):
            validate_presentation(p, strict=False)


def test_malformed_presentations(n2q):
    # a nucleus missing an element is reported once, and nothing else is
    # scanned; a name outside the space is not an element at all
    rep = validate_presentation(nucleus(n2q, {"0": "0", "1": "2"}), strict=False)
    assert rep.lines == ["nucleus-total: FAIL [witness: ['2']]",
                         "violations found"]
    with pytest.raises(LawViolated) as err:
        validate_presentation(nucleus(n2q, {"0": "0", "1": "2"}))
    assert (err.value.law, err.value.witness) == ("nucleus-total", ["2"])
    for build in (lambda: nucleus(n2q, {"0": "9", "1": "2", "2": "2"}),
                  lambda: nucleus(n2q, {"9": "2"}),
                  lambda: consequence(n2q, [("0", "9")]),
                  lambda: congruence(n2q, [["0"], ["1", "2", "9"]])):
        with pytest.raises(UnknownElement) as err:
            build()
        assert err.value.witness == "9"
    with pytest.raises(LawViolated) as err:
        congruence(n2q, [["0", "1"], ["1", "2"]])
    assert (err.value.law, err.value.witness) == ("partition-cover",
                                                  ["0", "1", "1", "2"])


def test_convert_examples(n2q):
    g = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    cons = convert(g, "consequence")
    geq = {(x, y) for x in n2q.elements for y in n2q.elements if n2q.leq(y, x)}
    assert cons.pairs == frozenset(geq | {("1", "2")})
    minimal = consequence(n2q, geq)
    validate_presentation(minimal)
    assert convert(minimal, "nucleus") == nucleus(n2q, {x: x for x in n2q.elements})
    cong = convert(g, "congruence")
    assert cong.classes == (("0",), ("1", "2"))


def test_counts_match_brute_force_oracles(n2q):
    els = n2q.elements
    leq, plus = n2q.leq, n2q.plus
    join = lambda x, y: n2q.join([x, y])
    oracle_nucs = brute_nuclei(els, leq, plus)
    oracle_cons = brute_consequences(els, leq, plus, join)
    oracle_congs = brute_congruences(els, leq, plus, join)
    assert len(oracle_nucs) == len(oracle_cons) == len(oracle_congs) == 3
    assert sorted(n.table for n in enumerate_nuclei(n2q)) == sorted(oracle_nucs)
    assert sorted(c.pairs for c in enumerate_consequences(n2q)) == sorted(oracle_cons)
    assert sorted(c.classes for c in enumerate_congruences(n2q)) == sorted(
        oracle_congs
    )


def test_presentations_of_a_noncommutative_sum_match_the_oracles(chain4_nc):
    """On a quantale whose + does not commute, so that the order of the
    summands in each sum law shows: the three enumerations against the
    oracles, and every partition's congruence failures, in order."""
    q = chain4_nc
    els, leq, plus = q.elements, q.leq, q.plus
    join = lambda x, y: q.join([x, y])
    nucs = enumerate_nuclei(q)
    assert sorted(n.table for n in nucs) == sorted(brute_nuclei(els, leq, plus))
    assert sorted(c.pairs for c in enumerate_consequences(q)) == sorted(
        scan_consequences(els, leq, plus, join))
    assert sorted(c.classes for c in enumerate_congruences(q)) == sorted(
        brute_congruences(els, leq, plus, join))
    failing = 0
    for part in set_partitions(els):
        expected = congruence_failures(els, plus, join, part)
        rep = validate_presentation(congruence(q, part), strict=False)
        assert rep.lines[:-1] == [f"{law}: FAIL [witness: {w!r}]"
                                  for law, w in expected]
        failing += bool(expected)
    assert (len(nucs), failing) == (5, 10)


def test_presentations_of_a_join_are_those_of_its_order():
    """Galatos and Tsinakis's setting as a special case: on a quantale whose
    + is its join, the nuclei are the closure operators, the consequence
    relations the transitive, join-closed relations holding >=, and the
    congruences the join-semilattice congruences, each found by a scan of
    the order that never evaluates +."""
    sizes = []
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        els, leq = q.elements, q.leq
        joins = order_joins(els, leq)
        if any(q.plus(x, y) != joins[(x, y)] for x in els for y in els):
            continue
        sizes.append(len(els))
        assert [n.table for n in enumerate_nuclei(q)] == closure_operators(els, leq)
        assert sorted(c.pairs for c in enumerate_consequences(q)) == sorted(
            join_closed_preorders(els, leq))
        assert sorted(c.classes for c in enumerate_congruences(q)) == sorted(
            semilattice_congruences(els, leq))
    # one labeled quantale per labeled lattice
    assert [sizes.count(n) for n in (1, 2, 3, 4)] == [1, 2, 6, 36]


def test_congruence_scan_witnesses():
    # every partition of every quantale of size <= 4, against the scan over
    # labels: each failing instance, in order, and the first one raised
    failing = 0
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        join = lambda x, y: q.join([x, y])
        for part in set_partitions(q.elements):
            expected = congruence_failures(q.elements, q.plus, join, part)
            c = congruence(q, part)
            rep = validate_presentation(c, strict=False)
            assert rep.lines[:-1] == [f"{law}: FAIL [witness: {w!r}]"
                                      for law, w in expected]
            if expected:
                failing += 1
                with pytest.raises(LawViolated) as err:
                    validate_presentation(c)
                assert (err.value.law, err.value.witness) == expected[0]
    assert failing == 1794  # of 2,945 partitions; the other 1,151 are congruences


def test_all_six_round_trips(n2q):
    nucs = enumerate_nuclei(n2q)
    cons = enumerate_consequences(n2q)
    congs = enumerate_congruences(n2q)
    for p in nucs:
        assert convert(convert(p, "consequence"), "nucleus") == p
        assert convert(convert(p, "congruence"), "nucleus") == p
    for p in cons:
        assert convert(convert(p, "nucleus"), "consequence") == p
        assert convert(convert(p, "congruence"), "consequence") == p
    for p in congs:
        assert convert(convert(p, "nucleus"), "congruence") == p
        assert convert(convert(p, "consequence"), "congruence") == p


def test_conversions_are_monotone(n2q):
    nucs = enumerate_nuclei(n2q)
    for g1 in nucs:
        for g2 in nucs:
            pointwise = all(
                n2q.leq(g1.apply(x), g2.apply(x)) for x in n2q.elements
            )
            inclusion = convert(g1, "consequence").pairs <= convert(
                g2, "consequence"
            ).pairs
            assert pointwise == inclusion


def test_structural_examples(n2q, a3_self):
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    rep = structural_check(g022, a3_self, scope="all")
    assert rep.data["structural"]
    ident = nucleus(n2q, {x: x for x in n2q.elements})
    assert structural_check(ident, a3_self, scope="all").data["structural"]


def _eval_module(n2q):
    a = exp_end(n2q)
    tables = a.gen_tables

    def star(g, x):
        return tables[g][x]

    return ActionMap(MODULE, a, n2q, star, name="N2-over-ExpEnd")


def test_eval_module_is_valid(n2q):
    assert check_action(_eval_module(n2q)).ok


def test_generator_scope_equals_all_scope(n2q, a3_self):
    # over both fixture scalar algebras, for every presentation of each kind
    modules = [a3_self, _eval_module(n2q)]
    for ma in modules:
        for p in (enumerate_nuclei(n2q) + enumerate_consequences(n2q)
                  + enumerate_congruences(n2q)):
            rep = structural_check(p, ma, scope="generators")
            assert rep.data["generators_pass"] == rep.data["all_pass"]


def test_transfer_theorem_instances(n2q, a3_self):
    for ma in (a3_self, _eval_module(n2q)):
        for p in (enumerate_nuclei(n2q) + enumerate_consequences(n2q)
                  + enumerate_congruences(n2q)):
            rep = structural_check(p, ma, scope="all")
            if rep.data["structural"]:
                assert rep.ok  # includes the three transfer checks


def test_quotient_examples(n2q, a3_self):
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    qm = quotient(a3_self, g022)
    assert qm.parent is a3_self and qm.nucleus is g022
    assert qm.module.space.elements == ("0", "2")
    assert qm.module.space.plus("2", "2") == "2"
    assert qm.module.star("2", "2") == "2"
    ident = nucleus(n2q, {x: x for x in n2q.elements})
    qm2 = quotient(a3_self, ident)
    assert qm2.module.space.elements == n2q.elements
    const2 = nucleus(n2q, {x: "2" for x in n2q.elements})
    qm3 = quotient(a3_self, const2)
    assert qm3.module.space.elements == ("2",)


def test_quotient_requires_structural(n2q, a3_self):
    # doctor the action at (2, 1) so gamma = (0,2,2) stops being structural:
    # 2 * gamma(1) = 2 is no longer below gamma(2 * 1) = gamma(0) = 0
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    broken = ActionMap(MODULE, a3_self.scalars, n2q,
                       lambda a, x: "0" if (a, x) == ("2", "1") else
                       a3_self.star(a, x))
    rep = structural_check(g022, broken, scope="all")
    assert not rep.data["structural"]
    with pytest.raises(NotStructural):
        quotient(broken, g022)


def test_every_structural_nucleus_gives_lawful_quotient(n2q, a3_self, a3_sub2):
    for ma in (a3_self, a3_sub2):
        sp = ma.space
        for g in enumerate_nuclei(sp):
            rep = structural_check(g, ma, scope="all")
            if not rep.data["structural"]:
                continue
            qm = quotient(ma, g)
            assert qm.report.ok  # full module law scan + congruence iso
            assert check_action(qm.module).ok


def test_quotient_needs_finite_scalars(m2, n2q):
    # the free module over the act of M2 on N2 in which c acts as 0, 2, 2
    # has fragment scalars: it is refused before the nucleus is looked at,
    # so an invalid nucleus gets the same answer as the three valid ones
    cx = {"0": "0", "1": "2", "2": "2"}
    ma = extend_act_to_module(
        ActionMap(ACT, m2, n2q, lambda a, x: cx[x] if a == "c" else x))
    nuclei = enumerate_nuclei(n2q)
    assert len(nuclei) == 3
    for g in nuclei + [nucleus(n2q, {"0": "1", "1": "1", "2": "2"})]:
        with pytest.raises(TooLarge):
            quotient(ma, g)


def test_quotient_fails_against_another_congruence(n2q, a3_self, monkeypatch):
    # with the identity congruence in place of the kernel of gamma the
    # classes no longer meet the image once each
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    # the module, not squanta.nucleus, which names the constructor
    module = sys.modules[quotient.__module__]
    monkeypatch.setattr(module, "convert", lambda p, target:
                        QuantCongruence(p.space, tuple(range(len(p.values)))))
    rep = quotient(a3_self, g022, strict=False).report
    assert "isomorphic to the congruence quotient: FAIL" in rep.lines
    assert not rep.ok
    with pytest.raises(LawViolated) as err:
        quotient(a3_self, g022)
    assert err.value.law == "quotient"


def test_quotient_isomorphic_to_congruence_quotient(n2q, a3_self):
    for g in enumerate_nuclei(n2q):
        if structural_check(g, a3_self, scope="all").data["structural"]:
            qm = quotient(a3_self, g)
            assert any("congruence quotient" in ln and "PASS" in ln
                       for ln in qm.report.lines)


def test_quotient_joins_of_arbitrary_subsets(n2q, a3_self):
    # the quotient join of any non-empty subset is the image of the parent
    # join, not just for pairs
    from itertools import combinations

    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    qm = quotient(a3_self, g022)
    quant = qm.module.space
    g = g022.as_dict()
    for r in range(1, len(quant.elements) + 1):
        for subset in combinations(quant.elements, r):
            assert quant.join(list(subset)) == g[n2q.join(list(subset))]


def test_kernel_iso_checks_the_sum(n2q):
    """The identity onto the classes of the identity congruence carries
    N2's order and sum to themselves, but not the sum of max on the same
    chain (1 + 1 = 2 in N2, max(1, 1) = 1)."""
    ident = tuple(range(len(n2q.elements)))
    assert _order_and_sum_iso(n2q, n2q, ident, ident)
    by_max = make_quantale({"poset": {"elements": list(n2q.elements),
                                      "leq": sorted(n2q.pomonoid.poset.pairs)},
                            "monoid": {"op": [[x, y, max(x, y)]
                                              for x in n2q.elements
                                              for y in n2q.elements],
                                       "unit": "0"}})
    assert not _order_and_sum_iso(n2q, by_max, ident, ident)
