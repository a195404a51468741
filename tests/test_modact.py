from dataclasses import replace

import pytest

from oracles import brute_check_poset_act
from test_law_scan_pins import _fragment_mutant, _table_mutants
from squanta.aqm import check_aqm, free_aqm
from squanta.downset import djoin, normalize, unit_embed
from squanta.errors import FragmentExceeded, LawViolated, UnitNotEmbedding
from squanta.modact import (
    ACT,
    POSET,
    ActionMap,
    check_action,
    extend_act_to_module,
    extend_poset_action_to_dm,
    restrict_module_to_act,
)
from squanta.multiupset import Multiupset, enumerate_fragment, free_extend_pomonoid
from squanta.order import monotone_map, selfmap_pomonoid


def mu(poset, *gens):
    return Multiupset(poset, gens)


def test_poset_action_valid(m2_on_d2):
    assert check_action(m2_on_d2).ok


def test_a3_self_action_valid_at_module_level(a3_self):
    assert check_action(a3_self).ok


def test_poset_and_act_scans_match_oracle(m2_on_d2, a3_self, c2, m2,
                                         chain4_nc):
    """check_action fails the same (law, witness) pairs as the oracle's
    scan, with the same counts, on every table mutant of the pin tests,
    on the act of extend M2D2, on that act's fragment mutant, on the act
    over the fragment of multiplicity 2, where instances leave it, on
    the evaluation action of c2's monotone self-maps, whose scalars do not
    commute, so the order of composition shows, and on an act of M2 on a
    quantale whose + does not commute, so the order of each sum shows."""
    aa, small = (extend_poset_action_to_dm(m2_on_d2, k) for k in (4, 2))
    pom, maps = selfmap_pomonoid(c2)
    evaluation = ActionMap(POSET, pom, c2, lambda f, x: maps[f].apply(x),
                           name="evaluation")
    on_sums = ActionMap(ACT, m2, chain4_nc,
                        lambda a, x: x if a == "e" else "0", name="on-sums")
    actions = [*_table_mutants(m2_on_d2, POSET),
               *_table_mutants(restrict_module_to_act(a3_self), ACT),
               aa, _fragment_mutant(aa), small, evaluation, on_sums]
    failing = 0
    for am in actions:
        failures, counts = brute_check_poset_act(am)
        rep = check_action(am, strict=False)
        fails = [ln for ln in rep.lines if ": FAIL [witness: " in ln]
        assert len(fails) == len(failures)
        assert set(fails) == {f"{law}: FAIL [witness: {w!r}]"
                              for law, w in failures}
        assert (rep.data["checked"], rep.data["skipped"]) == counts
        assert rep.ok == (not failures)
        failing += bool(failures)
    assert brute_check_poset_act(aa) == (set(), (684, 0))
    assert brute_check_poset_act(small) == (set(), (460, 224))
    assert brute_check_poset_act(evaluation) == (set(), (41, 0))
    assert brute_check_poset_act(on_sums) == (set(), (100, 0))
    assert (len(actions), failing) == (40, 21)


def test_constant_action_violates_unit(m2, d2):
    am = ActionMap(POSET, m2, d2, lambda a, x: "p", name="const-p")
    with pytest.raises(LawViolated) as err:
        check_action(am)
    assert err.value.law == "unit"
    rep = check_action(am, strict=False)
    assert not rep.ok


def test_extend_poset_action_examples(m2_on_d2, d2):
    aa = extend_poset_action_to_dm(m2_on_d2)
    base = aa.space.base
    dn = lambda *gs: djoin([unit_embed(base, g) for g in gs])
    assert aa.star("c", dn(mu(d2, "p"), mu(d2, "q"))) == dn(mu(d2, "p"))
    p = dn(mu(d2, "p"), mu(d2, "q"))
    assert aa.star("e", p) == p
    assert aa.star("c", aa.space.zero) == aa.space.zero
    assert check_action(aa).ok
    # a * eta(x) = eta(a * x)
    for a in m2_on_d2.scalars.elements:
        for x in d2.elements:
            assert aa.star(a, unit_embed(base, mu(d2, x))) == unit_embed(
                base, mu(d2, m2_on_d2.star(a, x))
            )


def test_extend_act_to_module_examples(m2_on_d2, m2, d2):
    aa = extend_poset_action_to_dm(m2_on_d2)
    ma = extend_act_to_module(aa)
    base = aa.space.base
    dn = lambda *gs: djoin([unit_embed(base, g) for g in gs])
    sbase = ma.scalars.quant.base
    sdn = lambda *gs: djoin([unit_embed(sbase, g) for g in gs])
    assert ma.star(sdn(mu(m2.poset, "c", "c")), dn(mu(d2, "p"), mu(d2, "q"))) == dn(
        mu(d2, "p", "p")
    )
    p = dn(mu(d2, "q"))
    assert ma.star(sdn(mu(m2.poset, "e")), p) == p
    assert ma.star(sdn(mu(m2.poset, "e"), mu(m2.poset, "c")), p) == dn(
        mu(d2, "p"), mu(d2, "q")
    )
    assert check_action(ma).ok


def test_restriction_round_trip(m2_on_d2, m2, d2):
    aa = extend_poset_action_to_dm(m2_on_d2)
    ma = extend_act_to_module(aa)
    back = restrict_module_to_act(ma)
    pts = aa.space.enumerate((3, 2))
    for a in m2.elements:
        for p in pts:
            assert back.star(a, p) == aa.star(a, p)
    # c * [q] = [p] reproduced through the composite
    base = aa.space.base
    assert back.star("c", unit_embed(base, mu(d2, "q"))) == unit_embed(
        base, mu(d2, "p")
    )


def test_extension_is_forced_by_iota_values(m2_on_d2, m2):
    # uniqueness: the module action value on any scalar is the join over its
    # maximal generator multisets of sums of iota-scalar actions
    aa = extend_poset_action_to_dm(m2_on_d2)
    ma = extend_act_to_module(aa)
    sp = ma.space
    scalars = ma.scalars.quant.enumerate((2, 2))
    pts = sp.enumerate((2, 2))
    for s in scalars:
        for p in pts:
            parts = []
            for sigma in s.maxgens:
                acc = sp.zero
                for a in sigma.gens:
                    acc = sp.plus(acc, ma.star(ma.scalars.iota(a), p))
                parts.append(acc)
            assert ma.star(s, p) == sp.join(parts)


def test_restrict_a3_self_is_multiplicative_action(a3, a3_self):
    back = restrict_module_to_act(a3_self)
    for d in a3.dist.elements:
        for x in a3.quant.elements:
            assert back.star(d, x) == a3.mult(d, x)


def test_unit_not_embedding_rejected(n2, d2):
    # a chain-ordered scalar monoid: the principal-multiset unit map flips
    # the order, so the extension hypothesis fails
    chain_monoid = n2  # additive N2 read as a multiplicative scalar monoid
    frag_space = extend_poset_action_to_dm(
        ActionMap(POSET, chain_monoid, d2, lambda a, x: x, name="trivial")
    ).space
    trivial_act = ActionMap(ACT, chain_monoid, frag_space, lambda a, p: p,
                            name="trivial-act")
    assert check_action(trivial_act).ok
    with pytest.raises(UnitNotEmbedding):
        extend_act_to_module(trivial_act)


def test_scalar_monotonicity_justifies_maxgens_joins(m2_on_d2, m2):
    aa = extend_poset_action_to_dm(m2_on_d2)
    ma = extend_act_to_module(aa)
    scalars = ma.scalars.quant.enumerate((2, 2))
    pts = ma.space.enumerate((2, 2))
    squant = ma.scalars.quant
    for s in scalars:
        for t in scalars:
            if squant.leq(s, t):
                for p in pts:
                    assert ma.space.leq(ma.star(s, p), ma.star(t, p))
    # oracle equivalence: join over all in-fragment generators equals the
    # maxgens-only computation
    base = ma.scalars.quant.base
    universe = enumerate_fragment(base, 4)
    for s in scalars:
        members = s.members(universe)
        for p in pts:
            via_all = ma.space.join([ma.star(normalize(base, [sigma]), p)
                                     for sigma in members])
            assert via_all == ma.star(s, p)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except FragmentExceeded as exc:
        return "left", exc.witness


@pytest.mark.parametrize("k", [2, 3, 4])
def test_free_product_is_the_extended_self_action(m2, k):
    # M2 acting on itself, extended to a module, acts by free_aqm's product:
    # equal values, and equal witnesses where a partial sum leaves the bound
    # (only below k = 4: the scan universe's totals are at most 2)
    fa = free_aqm(m2, k)
    ma = extend_act_to_module(extend_poset_action_to_dm(
        ActionMap(POSET, m2, m2.poset, m2.apply), k), k)
    universe = fa.quant.enumerate(fa.quant.scan_bounds())
    outcomes = [(_outcome(fa.mult, p, q), _outcome(ma.star, p, q))
                for p in universe for q in universe]
    assert all(mine == theirs for mine, theirs in outcomes)
    kinds = {mine[0] for mine, _ in outcomes}
    assert kinds == ({"value", "left"} if k < 4 else {"value"})


def test_module_action_leaves_fragment_on_every_call(m2_on_d2, m2, d2):
    # a multiset of three scalars sums three copies: multiplicity 3 > k = 2,
    # on the first call and again when the kept sum is looked up
    aa = extend_poset_action_to_dm(m2_on_d2, k=2)
    ma = extend_act_to_module(aa, k=2)
    base, scalars = aa.space.base, ma.scalars.quant.base
    x = normalize(base, [mu(d2, "p")])
    scalar = normalize(scalars, [mu(m2.poset, "e", "e", "e")])
    for _ in range(3):
        with pytest.raises(FragmentExceeded) as exc:
            ma.star(scalar, x)
        assert exc.value.witness == normalize(base, [mu(d2, "p", "p", "p")])
    assert ma.star(normalize(scalars, [mu(m2.poset, "e", "c")]), x) == normalize(
        base, [mu(d2, "p", "p")])


def test_naturality_of_free_extension(m2_on_d2, m2, d2, n2, n2q):
    # extending h after acting equals extending the transported map
    aa = extend_poset_action_to_dm(m2_on_d2)
    base = aa.space.base
    from squanta.downset import free_extend_quantale

    maps = [
        {"p": "0", "q": "0"}, {"p": "1", "q": "1"},
        {"p": "1", "q": "2"}, {"p": "2", "q": "1"},
    ]
    pts = aa.space.enumerate((2, 2))
    for tab in maps:
        h = monotone_map(d2, n2.poset, tab)
        ev = free_extend_quantale(base, free_extend_pomonoid(h, n2), n2q)
        for a in m2.elements:
            transported = monotone_map(
                d2, n2.poset, {x: tab[m2_on_d2.star(a, x)] for x in d2.elements}
            )
            ev_t = free_extend_quantale(
                base, free_extend_pomonoid(transported, n2), n2q
            )
            for p in pts:
                assert ev(aa.star(a, p)) == ev_t(p)


def test_act_level_laws_hold_on_extension(m2_on_d2):
    aa = extend_poset_action_to_dm(m2_on_d2)
    rep = check_action(aa, strict=False)
    assert rep.ok and rep.data["checked"] > 0


def test_second_scan_computes_no_sum_or_join(monkeypatch, m2, m2_on_d2):
    # the spies go in first: a kept result's cache holds the function it
    # was built with
    import squanta.aqm
    import squanta.downset
    import squanta.modact

    calls = []
    for mod in (squanta.aqm, squanta.modact, squanta.downset):
        for name in ("dsum", "djoin"):
            if hasattr(mod, name):
                fn = getattr(mod, name)
                monkeypatch.setattr(mod, name, lambda *args, fn=fn, name=name:
                                    calls.append(name) or fn(*args))
    fa = free_aqm(m2, k=3)
    ma = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2))
    for scan, obj in ((check_aqm, fa), (check_action, ma)):
        calls.clear()
        first = scan(obj)
        assert {"dsum", "djoin"} <= set(calls)
        calls.clear()
        assert scan(obj).to_dict() == first.to_dict()
        assert calls == []


def test_check_action_rejects_an_unknown_level(m2_on_d2):
    with pytest.raises(ValueError, match="unknown action level 'bogus'"):
        check_action(replace(m2_on_d2, level="bogus"))
