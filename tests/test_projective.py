import gc
import sys
import weakref
from itertools import product

import pytest

from oracles import brute_residual
from squanta.aqm import exp_end, make_quantale
from squanta.errors import (BaseMismatch, FragmentExceeded, LawViolated,
                            NoResidual, NotAHomomorphism, NotDividing,
                            NotStructural, TooLarge)
from squanta.modact import (
    MODULE,
    ActionMap,
    extend_act_to_module,
    extend_poset_action_to_dm,
    hom_on_positions,
)
from squanta.nucleus import (convert, enumerate_nuclei, nucleus, quotient,
                             structural_check)
from squanta.projective import (
    cyclic_check,
    cyclic_projective_check,
    enumerate_module_homs,
    exhaustive_family,
    find_lift,
    gamma_u,
    is_module_hom,
    lifting_check,
    residual,
    self_module,
    submodule_on_orbit,
)
from squanta.search import (_commutative_mults, quantale_descriptions,
                            suite_projective)
from squanta import fixtures as fx, projective, search


def test_residual_examples(a3_self):
    assert residual("1", "2", a3_self).value == "0"
    for y in a3_self.space.elements:
        assert residual(y, "1", a3_self).value == y  # unit scalar
    assert residual("2", "2", a3_self).value == "2"


def test_residual_adjunction(a3_self, n3_self):
    for ma in (a3_self, n3_self):
        q = ma.scalars.quant
        for y, x in product(ma.space.elements, repeat=2):
            r = residual(y, x, ma)
            for a in q.elements:
                assert q.leq(a, r.value) == ma.space.leq(ma.star(a, x), y)


def test_no_residual_needs_non_dually_integral(a3_self):
    # for dually integral scalars 0 always qualifies, so no NoResidual
    for y, x in product(a3_self.space.elements, repeat=2):
        residual(y, x, a3_self)


def test_gamma_u_examples(n2q, a3_self):
    nuc, rep = gamma_u("2", a3_self)
    assert nuc.as_dict() == {"0": "0", "1": "2", "2": "2"}
    assert rep.ok
    assert rep.lines == [
        "u is dividing",
        "gamma_u is a structural nucleus on the scalar quantale: PASS",
        "orbit module isomorphic to scalar quotient: PASS "
        "(via x->x/u and a->a*u)"]
    # cross-oracle agreement with the enumerated nuclei
    assert nuc in enumerate_nuclei(n2q)
    ident, rep1 = gamma_u("1", a3_self)
    assert all(ident.apply(x) == x for x in n2q.elements)


@pytest.mark.parametrize("u", ["0", "2"])
def test_gamma_u_refutes_a_module_that_is_not_the_orbit(a3_self, monkeypatch, u):
    """With the whole of A3 in place of its orbit A3*u, x -> (x/u)*u is not
    the identity, while a -> (a*u)/u still is on the quotient and a -> a*u
    is a homomorphism. At u = 0 x -> x/u is one too (onto the one-point
    quotient); at u = 2 it is not."""
    monkeypatch.setattr(projective, "submodule_on_orbit", lambda ma, u: ma)
    _, rep = gamma_u(u, a3_self)
    assert rep.lines[-1] == "orbit module isomorphic to scalar quotient: FAIL"


def test_gamma_u_fragment_scope(m2_on_d2):
    # residuals, and so gamma_u, are decided on tables only
    ma = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2))
    for u in ma.space.enumerate((1, 1)):
        with pytest.raises(TooLarge):
            gamma_u(u, ma)
        with pytest.raises(TooLarge):
            residual(u, u, ma)


def test_gamma_u_on_a_noncommutative_self_module():
    # Gen's product is composition, which does not commute here: the
    # nucleus is a -> (a * u)/u, and the orbit map a -> a * u
    ma = self_module(exp_end(make_quantale(quantale_descriptions(3)[4])))
    els, dividing = ma.space.elements, 0
    assert any(ma.star(a, b) != ma.star(b, a) for a in els for b in els)
    for u in els:
        try:
            nuc, rep = gamma_u(u, ma)
        except NotDividing:
            continue
        assert rep.ok
        assert nuc.as_dict() == {
            a: brute_residual(ma.star(a, u), u, ma)[0] for a in els}
        dividing += 1
    assert dividing == 6


def test_gamma_u_always_structural_for_dividing_u(a3_self, n3_self):
    for ma in (a3_self, n3_self):
        for u in ma.space.elements:
            nuc, rep = gamma_u(u, ma)
            assert rep.ok


def test_cyclic_examples(a3_self, a3_sub2, m2_on_d2):
    assert cyclic_check(a3_self, "1") == (True, None)
    ok, witness = cyclic_check(a3_self, "2")
    assert not ok and witness == "1"
    assert cyclic_check(a3_sub2, "2") == (True, None)
    assert cyclic_check(m2_on_d2, "q") == (True, None)
    ok, witness = cyclic_check(m2_on_d2, "p")
    assert not ok and witness == "q"


def test_act_level_cyclicity(m2_on_d2):
    from squanta.modact import extend_poset_action_to_dm
    from squanta.downset import unit_embed
    from squanta.multiupset import Multiupset

    aa = extend_poset_action_to_dm(m2_on_d2)
    base = aa.space.base
    gen = unit_embed(base, Multiupset(m2_on_d2.space, ("q",)))
    ok, _ = cyclic_check(aa, gen)
    assert ok  # poset-level cyclicity lifts to the act (fragment scope)


def test_module_level_cyclicity_over_fragment_scalars(m2_on_d2):
    ma = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2))
    got = {str(u): cyclic_check(ma, u) for u in ma.space_universe()}
    assert len(got) == 12
    q = next(u for u in ma.space_universe() if str(u) == "v[[q]]")
    assert got.pop("v[[q]]") == (True, None)  # the orbit scan alone
    assert set(got.values()) == {(False, q)}
    with pytest.raises(ValueError):
        cyclic_check(ActionMap("bogus", m2_on_d2.scalars, m2_on_d2.space,
                               m2_on_d2.star), "q")


def test_module_level_cyclicity_skips_products_past_the_fragment(m2_on_d2):
    # at k = 2, 64 of the 144 (scalar, point) products leave the fragment;
    # the orbit scan skips them and finds the verdicts of the default bound
    ma = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2, k=2), k=2)
    scalars, points = list(ma.scalar_universe()), list(ma.space_universe())
    assert (len(scalars), len(points)) == (12, 12)
    exceeded = 0
    for a, u in product(scalars, points):
        try:
            ma.star(a, u)
        except FragmentExceeded:
            exceeded += 1
    assert exceeded == 64
    got = {str(u): cyclic_check(ma, u) for u in points}
    q = next(u for u in points if str(u) == "v[[q]]")
    assert got.pop("v[[q]]") == (True, None)
    assert len(got) == 11 and set(got.values()) == {(False, q)}


def test_cyclic_projective_a_sub2(a3_sub2):
    rep = cyclic_projective_check(a3_sub2)
    assert rep.ok
    assert rep.data["conditions"] == {"ii": True, "iii": True, "iv": True,
                                      "v": True}
    assert rep.data["shared_witness"] == ("2", "2")


def test_cyclic_projective_a3_itself(a3_self):
    rep = cyclic_projective_check(a3_self)
    assert rep.ok
    assert rep.data["conditions"]["ii"]
    assert rep.data["shared_witness"] == ("1", "1")


def test_cyclic_projective_skips_a_scalar_that_is_not_dividing():
    # G2's self-module: the idempotent scalar 1 sends nothing below 0, so
    # it witnesses no condition, and 0 witnesses each
    from test_literals_and_errors import _g2_module

    ma = _g2_module()
    assert self_module(ma.scalars).column(1) == b"\1\1"
    with pytest.raises(NoResidual):
        residual("0", "1", ma)
    rep = cyclic_projective_check(ma)
    assert rep.ok and rep.lines == [
        "idempotent scalars: ['0', '1']",
        "cyclic generators: ['0']",
        "condition (ii): PASS (witness 0)",
        "condition (iii): PASS (witness ('0', '0'))",
        "condition (iv): PASS (witness ('0', '0'))",
        "condition (v): PASS (witness ('0', '0'))",
        "conditions (ii)-(v) mutually equivalent: PASS (all True)",
        "shared witness across conditions: PASS ((u,v)=('0', '0'))"]
    assert rep.data["witnesses"] == {"ii": ["0"], "iii": [("0", "0")],
                                     "iv": [("0", "0")], "v": [("0", "0")]}


def test_cyclic_projective_one_element_module():
    triv = fx.trivial_module()
    rep = cyclic_projective_check(triv)
    assert rep.ok
    assert rep.data["witnesses"]["ii"][0] == "0"  # minimal witness first


def test_each_residual_is_computed_once_per_job(monkeypatch):
    """Within one suite_projective job, on every 5th quantale of size 4, no
    residual y/x on one module is computed twice: the suite checks the unit
    image's cyclicity by its orbit alone, and a cyclic point's gamma is read
    off the residual row its cyclicity test computed."""
    seen, held = set(), []
    counts = {"jobs": 0, "checks": 0, "residuals": 0}
    residual_index, check = projective._residual_index, cyclic_projective_check

    def spy(ma, y, x):
        assert (id(ma), y, x) not in seen, (ma.name, y, x)
        seen.add((id(ma), y, x))
        held.append(ma)  # no id is reused while it is in `seen`
        counts["residuals"] += 1
        return residual_index(ma, y, x)

    def counted_check(ma, *args):
        counts["checks"] += 1
        return check(ma, *args)

    monkeypatch.setattr(projective, "_residual_index", spy)
    monkeypatch.setattr(search, "cyclic_projective_check", counted_check)
    for desc in quantale_descriptions(4)[::5]:
        seen.clear()
        counts["jobs"] += 1
        suite_projective(desc)
    assert counts == {"jobs": 42, "checks": 681, "residuals": 4013}


@pytest.mark.parametrize("planted", ["wrong value", "no residual"])
def test_a_wrong_residual_at_a_cyclic_point_raises(monkeypatch, a3_self,
                                                   planted):
    """A residual that breaks (x/u)*u = x on the full orbit of the unit is
    caught by both cyclicity routes: 2/1 read as 0, or as missing."""
    residual_index = projective._residual_index

    def planted_at_the_unit(ma, y, x):
        if ma is a3_self and (y, x) == (2, 1):
            if planted == "no residual":
                raise NoResidual("planted", witness=(y, x))
            return 0, [0]
        return residual_index(ma, y, x)

    monkeypatch.setattr(projective, "_residual_index", planted_at_the_unit)
    with pytest.raises(ArithmeticError, match="disagree at u='1'"):
        cyclic_check(a3_self, "1")
    with pytest.raises(ArithmeticError, match="disagree at u='1'"):
        cyclic_projective_check(a3_self)
    assert cyclic_check(a3_self, "2") == (False, "1")  # off the orbit


def test_exhaustive_lifting_confirms_projectivity(a3_sub2):
    fam = exhaustive_family(a3_sub2, fx.module_family(), max_size=3)
    rep = cyclic_projective_check(a3_sub2, lifting_family=fam)
    assert rep.ok and rep.data["lifting_ok"]
    # each surjection q ->> r, in order, once per homomorphism A·2 -> r
    assert [(q.name, r.name) for _, q, r, _ in fam] == [
        ("A·0", "A·0"), ("A·2", "A·0"), ("A·2", "A·2"), ("A·2", "A·2"),
        ("A3", "A·0"), ("A3", "A·2"), ("A3", "A·2"), ("A3", "A3"), ("A3", "A3")]


@pytest.mark.parametrize("g, r, h, message", [
    ({"0": "2", "2": "2"}, "sub2", None,
     "surjection is not a module homomorphism"),
    (None, "self", None, "map is not onto its codomain"),
    (None, "sub2", {"0": "2", "2": "2"},
     "candidate is not a module homomorphism"),
])
def test_lifting_check_refuses_a_family_that_is_not_one(a3_self, a3_sub2,
                                                        g, r, h, message):
    # each (g, q, r, h) is checked before any lift is searched: g a module
    # homomorphism, g onto r, then h a module homomorphism
    ident = {x: x for x in a3_sub2.space.elements}
    g, h = g or ident, h or ident
    good = (ident, a3_sub2, a3_sub2, ident)
    r_mod = a3_sub2 if r == "sub2" else a3_self
    with pytest.raises(NotAHomomorphism) as err:
        lifting_check(a3_sub2, [good, (g, a3_sub2, r_mod, h)])
    assert err.value.args[0] == message
    assert err.value.witness == sorted((h if "candidate" in message
                                        else g).items())


def test_lifting_examples(n2q, a3_self, a3_sub2):
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"})
    qm = quotient(a3_self, g022)
    inclusion = {x: x for x in a3_sub2.space.elements}
    rep = lifting_check(a3_sub2, [(g022.as_dict(), a3_self, qm.module, inclusion)])
    assert rep.ok  # lift found
    ident = {x: x for x in a3_sub2.space.elements}
    rep2 = lifting_check(a3_sub2, [(ident, a3_sub2, a3_sub2, ident)])
    assert rep2.ok  # identity surjection lifts by h itself


def test_find_lift_is_the_first_lift(n2q, a3_self, a3_sub2, n3_self):
    g022 = nucleus(n2q, {"0": "0", "1": "2", "2": "2"}).as_dict()
    inclusion = {x: x for x in a3_sub2.space.elements}
    lifts = [k for k in enumerate_module_homs(a3_sub2, a3_self)
             if all(g022[k[x]] == x for x in k)]
    assert lifts
    assert find_lift(inclusion, g022, a3_sub2, a3_self) == lifts[0]
    g = nucleus(n3_self.space, {"0": "0", "1": "1", "2": "3", "3": "3"})
    qm = quotient(n3_self, g)
    ident = {x: x for x in qm.module.space.elements}
    assert find_lift(ident, g.as_dict(), qm.module, n3_self) is None


def test_self_module_star_table_is_the_product_table():
    a = fx.a3()
    assert self_module(a).star_table() is a.mult_op.flat


def test_nonprojective_fixture_yields_nolift(n3_self):
    q3 = n3_self.space
    g = nucleus(q3, {"0": "0", "1": "1", "2": "3", "3": "3"})
    assert structural_check(g, n3_self, scope="all").data["structural"]
    qm = quotient(n3_self, g)
    assert cyclic_check(qm.module, "1")[0]
    rep = cyclic_projective_check(qm.module)
    assert not any(rep.data["conditions"].values())
    assert rep.data.get("exhausted")
    ident = {x: x for x in qm.module.space.elements}
    lift = lifting_check(qm.module, [(g.as_dict(), n3_self, qm.module, ident)])
    assert not lift.ok  # the NoLift witness pair


def test_search_finds_two_element_nonprojective():
    # a two-element module with no idempotent witness exists over a
    # three-element scalar algebra; the search suite must find one
    from squanta.search import quantale_descriptions, suite_projective

    for desc in quantale_descriptions(3):
        result = suite_projective(desc)
        two = [w for w in result["nonprojective"] if len(w["carrier"]) == 2]
        if two:
            return
    pytest.fail("no two-element non-projective cyclic quotient found")


def test_gamma_equals_gamma_u_lemma(a3_self, n3_self):
    # (gamma = gamma_u and u*u = u) iff (gamma(u) = gamma(1) and
    # gamma(a)*u = a*u for all a), over all structural nuclei and dividing u
    for ma in (a3_self, n3_self):
        aqm = ma.scalars
        q = aqm.quant
        for g in enumerate_nuclei(q):
            if not structural_check(g, ma, scope="all").data["structural"]:
                continue
            for u in q.elements:
                gu, _ = gamma_u(u, ma)
                lhs = gu == g and aqm.mult(u, u) == u
                rhs = g.apply(u) == g.apply(aqm.one) and all(
                    aqm.mult(g.apply(a), u) == aqm.mult(a, u)
                    for a in q.elements
                )
                assert lhs == rhs, (ma.name, g, u)


def test_every_cyclic_module_is_a_nucleus_quotient(a3_self, a3_sub2):
    # cyclic fixture modules are isomorphic to quotients of the scalars by
    # gamma_u; the isomorphism is constructed and verified inside gamma_u
    for ma in (a3_self, a3_sub2):
        gens = [v for v in ma.space.elements if cyclic_check(ma, v)[0]]
        assert gens
        for v in gens:
            nuc, rep = gamma_u(v, ma)
            assert rep.ok


def test_map_leaving_the_target_is_not_a_module_hom(a3_self, a3_sub2):
    identity = {x: x for x in a3_self.space.elements}
    assert "1" not in a3_sub2.space.elements
    assert not is_module_hom(identity, a3_self, a3_sub2)


def test_a_map_off_the_source_carrier_is_not_a_module_hom(a3_self, a3_sub2):
    # is_module_hom's map must have the source's points as its keys, and
    # hom_on_positions gives False, not an error, for an action that names
    # a point outside its own carrier
    identity = {x: x for x in a3_self.space.elements}
    assert is_module_hom(identity, a3_self, a3_self)
    for h in ({"0": "0", "1": "1"}, dict(identity, x="0")):
        assert not is_module_hom(h, a3_self, a3_self)
    leaving = ActionMap(MODULE, a3_self.scalars, a3_self.space,
                        lambda a, x: "9")
    ident = bytes(range(3))
    assert hom_on_positions(ident, a3_self, a3_self)
    assert not hom_on_positions(ident, a3_self, leaving)
    assert not hom_on_positions(ident, leaving, a3_self)


def test_module_hom_preconditions(n2q, a3_self, m2_on_d2):
    from squanta.aqm import exp_end
    from squanta.modact import (ActionMap, MODULE, extend_act_to_module,
                                extend_poset_action_to_dm)

    identity = {x: x for x in n2q.elements}
    assert is_module_hom(identity, a3_self, a3_self)
    # the same quantale under scalars with another carrier
    ev = exp_end(n2q)
    evaluation = ActionMap(MODULE, ev, n2q, lambda g, x: ev.gen_tables[g][x])
    assert evaluation.on_tables and is_module_hom(identity, evaluation, evaluation)
    assert not is_module_hom(identity, a3_self, evaluation)
    # an action naming a point outside its own carrier is no module
    leaving = ActionMap(MODULE, a3_self.scalars, n2q, lambda a, x: "9")
    assert not is_module_hom(identity, a3_self, leaving)
    assert not is_module_hom(identity, leaving, a3_self)
    # fragment scalars and spaces have no star table
    free = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2))
    with pytest.raises(TooLarge):
        is_module_hom({}, free, free)


def test_module_hom_enumeration(a3_self, a3_sub2):
    homs = enumerate_module_homs(a3_self, a3_self)
    # homs of the self-module are right multiplications
    assert len(homs) == 3
    for h in homs:
        w = h["1"]
        assert all(h[a] == a3_self.scalars.mult(a, w) for a in h)
    surj = [h for h in enumerate_module_homs(a3_self, a3_sub2)
            if set(h.values()) == {"0", "2"}]
    assert surj


def test_poset_act_cyclicity_equivalence(m2_on_d2):
    # an element generates the poset action iff its unit image generates the
    # lifted act, in both directions
    from squanta.downset import unit_embed
    from squanta.modact import extend_poset_action_to_dm
    from squanta.multiupset import Multiupset

    aa = extend_poset_action_to_dm(m2_on_d2)
    base = aa.space.base
    for u in m2_on_d2.space.elements:
        poset_cyclic = cyclic_check(m2_on_d2, u)[0]
        act_cyclic = cyclic_check(
            aa, unit_embed(base, Multiupset(m2_on_d2.space, (u,))))[0]
        assert poset_cyclic == act_cyclic, u


# -- what a quantale keeps -----------------------------------------------------


def _c3():
    """A fresh quantale on the chain 2 < 1 < 0 with + its join, the space of
    B3, and its three commutative AQMs: units 0, 0 and 1, the second B3's
    product."""
    els = ["0", "1", "2"]
    q = make_quantale({
        "poset": {"elements": els, "leq": [["1", "0"], ["2", "0"], ["2", "1"]]},
        "monoid": {"op": [[x, y, min(x, y)] for x in els for y in els],
                   "unit": "2"}}, name="C3")
    aqms = _commutative_mults(q)
    assert [a.one for a in aqms] == ["0", "0", "1"]
    assert aqms[1].mult_op == fx.b3().mult_op
    return q, aqms


def test_a_fresh_quantale_keeps_nothing():
    q, aqms = _c3()
    assert q.derived == {}
    qm = quotient(self_module(aqms[0]), nucleus(q, {x: x for x in q.elements}))
    assert qm.module.space.derived == {}


def test_aqms_on_one_quantale_share_its_quotient_and_orbit_quantales(monkeypatch):
    q, aqms = _c3()
    validated = []
    module = sys.modules[quotient.__module__]
    check = module.validate_presentation
    monkeypatch.setattr(module, "validate_presentation",
                        lambda p: validated.append(p) or check(p))
    g = nucleus(q, {"0": "0", "1": "0", "2": "2"})
    m0, m2 = self_module(aqms[0], name="M0"), self_module(aqms[2], name="M2")
    q0, q2 = quotient(m0, g), quotient(m2, g)
    assert q0.report.ok and q2.report.ok
    assert q0.module is not q2.module
    assert q0.module.space is q2.module.space
    assert q0.module.space.name == "C3/nucleus"
    assert validated == [g]  # validated once, on the first call
    # each AQM's orbit of its unit is the whole chain
    o0, o2 = submodule_on_orbit(m0, "0"), submodule_on_orbit(m2, "1")
    assert o0 is not o2
    assert o0.space is o2.space
    assert (o0.name, o2.name) == ("M0*0", "M2*1")
    # the shared quantale is named after its space and orbit, not a module
    assert o0.space.name == "C3|orbit(0,1,2)"


def test_a_checked_aqm_is_freed_without_a_collection():
    # the AQM keeps only its self-module's gammas, which point away from
    # it, so reference counting frees it once the check is done
    q, aqms = _c3()
    qm = quotient(self_module(aqms[0]), nucleus(q, {x: x for x in q.elements}))
    assert cyclic_projective_check(qm.module).data["conditions"]["ii"]
    assert list(aqms[0].derived) == ["self-gammas"]
    freed = weakref.ref(aqms[0])
    gc.disable()
    try:
        del aqms, qm
        assert freed() is None
    finally:
        gc.enable()


def test_a_kept_quotient_still_checks_each_module():
    # 1 -> 0 is structural for the first AQM and not for B3's product, where
    # 1 * gamma(1) = 1 is not below gamma(1 * 1) = 2: the same witness with
    # the quotient kept as on a fresh quantale
    for keep in (True, False):
        q, aqms = _c3()
        g = nucleus(q, {"0": "0", "1": "0", "2": "2"})
        if keep:
            quotient(self_module(aqms[0]), g)
        with pytest.raises(NotStructural) as err:
            quotient(self_module(aqms[1]), g)
        assert err.value.witness == ("1", "1")


def test_an_invalid_nucleus_raises_on_every_call():
    q, aqms = _c3()
    g = nucleus(q, {"0": "0", "1": "2", "2": "2"})  # 1 -> 2 is below 1
    for aqm in aqms + aqms:
        with pytest.raises(LawViolated) as err:
            quotient(self_module(aqm), g)
        assert (err.value.law, err.value.witness) == ("nucleus-expansive", "1")
    assert q.derived == {}


def test_quotient_refuses_a_nucleus_on_another_space():
    # on A3, whose space is N2, B3's constant nucleus once gave a
    # one-element quotient and N3's nuclei a bare IndexError; an invalid
    # nucleus on another space is refused before it is validated
    ma = self_module(fx.a3())
    others = enumerate_nuclei(fx.b3().quant) + enumerate_nuclei(fx.n3_quantale())
    others.append(nucleus(fx.b3().quant, {"0": "1", "1": "1", "2": "2"}))
    for g in others:
        with pytest.raises(BaseMismatch):
            quotient(ma, g)


def test_structural_check_refuses_a_presentation_on_another_space():
    # N3's nucleus on A3 (whose space is N2) and N2's on N3 once ended in a
    # bare IndexError; each is refused before any scan, for every kind
    for g, ma in ((enumerate_nuclei(fx.n3_quantale())[0], fx.a3_self_module()),
                  (enumerate_nuclei(fx.n2_quantale())[0], fx.n3_self_module())):
        for kind in ("nucleus", "consequence", "congruence"):
            with pytest.raises(BaseMismatch) as err:
                structural_check(convert(g, kind), ma)
            assert err.value.witness == (g.space, ma.space)


def test_characterization_needs_an_action_on_tables():
    # finite scalars on a fragment space once ended in an AttributeError
    space = extend_poset_action_to_dm(fx.m2_on_d2()).space
    ma = ActionMap(MODULE, fx.a3(), space, lambda a, x: x)
    with pytest.raises(TooLarge):
        cyclic_projective_check(ma)


def test_gamma_u_reports_a_nucleus_that_is_not_structural(a3_self,
                                                           monkeypatch):
    # A3's gamma_2 is structural; a quotient that refuses it takes the
    # report's FAIL branch, which returns the nucleus before any iso check
    from squanta import projective

    def refuse(ma, nuc):
        raise NotStructural("refused")

    want, _ = gamma_u("2", a3_self)
    monkeypatch.setattr(projective, "quotient", refuse)
    nuc, rep = gamma_u("2", a3_self)
    assert nuc == want
    assert not rep.ok
    assert rep.lines[-1] == "gamma_u structural on the scalar quantale: FAIL"
