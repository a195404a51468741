"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime and enforcing the stated bound. The lines are written to
the terminal summary, so any pytest invocation shows them."""

import time
from itertools import product

import conftest

import pytest

from oracles import (
    brute_congruences,
    brute_consequences,
    brute_nuclei,
    naive_elementwise_product,
)
from squanta import fixtures as fx
from squanta.aqm import check_aqm, exp_end
from squanta.cli import EXIT_VIOLATION, main
from squanta.downset import djoin, dsum, dzero, normalize, unit_embed
from squanta.equivlogic import (
    TranslationPair,
    equivalence_check,
    hom_from_generator_image,
    recover_translations,
)
from squanta.errors import IllDefined
from squanta.modact import (
    MODULE,
    ActionMap,
    check_action,
    extend_act_to_module,
    extend_poset_action_to_dm,
    restrict_module_to_act,
)
from squanta.multiupset import (
    Multiupset,
    enumerate_fragment,
    free_extend_pomonoid,
    generator_embed,
    mleq,
    msum,
)
from squanta.nucleus import (
    convert,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
    nucleus,
    quotient,
    structural_check,
)
from squanta.order import monotone_map
from squanta.projective import (
    cyclic_projective_check,
    enumerate_module_homs,
    exhaustive_family,
    gamma_u,
    residual,
)
from squanta.search import quantale_descriptions, suite_correspond


class Timer:
    def __init__(self, label, bound):
        self.label, self.bound = label, bound

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        line = (f"{self.label}: {verdict} ({elapsed:.2f}s, "
                f"bound {self.bound}s)")
        conftest.ACCEPTANCE_LINES.append(line)
        print(f"[acceptance] {line}")
        if exc_type is None:
            assert elapsed < self.bound, f"{self.label} exceeded {self.bound}s"
        return False


def test_criterion_1_correspondence_counts_on_n2():
    with Timer("criterion 1: N2 correspondence counts", 1.0):
        q = fx.n2_quantale()
        els, leq, plus = q.elements, q.leq, q.plus
        join2 = lambda x, y: q.join([x, y])
        # oracle counts over all 27 self-maps / 512 relations / 5 partitions
        assert len(brute_nuclei(els, leq, plus)) == 3
        assert len(brute_consequences(els, leq, plus, join2)) == 3
        assert len(brute_congruences(els, leq, plus, join2)) == 3
        nucs = enumerate_nuclei(q)
        cons = enumerate_consequences(q)
        congs = enumerate_congruences(q)
        assert len(nucs) == len(cons) == len(congs) == 3
        for p in nucs:
            assert convert(convert(p, "consequence"), "nucleus") == p
            assert convert(convert(p, "congruence"), "nucleus") == p
        for p in cons:
            assert convert(convert(p, "nucleus"), "consequence") == p
            assert convert(convert(p, "congruence"), "consequence") == p
        for p in congs:
            assert convert(convert(p, "nucleus"), "congruence") == p
            assert convert(convert(p, "consequence"), "congruence") == p


def test_criterion_2_correspondence_on_enumerated_quantales():
    with Timer("criterion 2: correspondence on all c.d.i. quantales <= 4", 60.0):
        descs = quantale_descriptions(4)
        assert len(descs) > 100
        for desc in descs:
            result = suite_correspond(desc)
            assert result["counts_agree"], desc
            assert result["round_trips"], desc


def _monotone_maps(src, dst):
    out = []
    for values in product(dst.elements, repeat=len(src.elements)):
        tab = dict(zip(src.elements, values))
        if all(dst.leq(tab[x], tab[y])
               for x in src.elements for y in src.elements if src.leq(x, y)):
            out.append(monotone_map(src, dst, tab))
    return out


def test_criterion_3_freeness_of_multiupsets():
    with Timer("criterion 3: freeness of the multiupset pomonoid", 5.0):
        n2 = fx.n2()
        for base in (fx.d2(), fx.c2()):
            frag = enumerate_fragment(base, 4)
            for h in _monotone_maps(base, n2.poset):
                ev = free_extend_pomonoid(h, n2)
                for a in base.elements:
                    assert ev(generator_embed(base, a)) == h.apply(a)
                assert ev(Multiupset(base, ())) == "0"
                for f in frag:
                    # homomorphism equations on the fragment
                    for g in frag:
                        assert ev(msum(f, g)) == n2.apply(ev(f), ev(g))
                    # uniqueness: the equations force the generator fold
                    assert ev(f) == n2.fold(h.apply(a) for a in f.gens)


def test_criterion_4_dm_quantale_laws():
    with Timer("criterion 4: DM quantale laws and the dsum oracle", 10.0):
        from itertools import combinations

        from oracles import downset_sum_oracle, full_downset

        for poset in (fx.d2(), fx.c2()):
            mus = enumerate_fragment(poset, 4)
            downs = []
            for size in range(1, 4):
                for combo in combinations(mus, size):
                    if all(not (mleq(a, b) or mleq(b, a))
                           for a, b in combinations(combo, 2)):
                        downs.append(normalize(poset, list(combo)))
            zero = dzero(poset)
            for p in downs:
                assert dsum(p, zero) == p and djoin([p, p]) == p
            small = [p for p in downs
                     if len(p.maxgens) <= 2
                     and all(g.total_multiplicity <= 2 for g in p.maxgens)]
            for p in small:
                for q in small:
                    for r in small:
                        assert dsum(p, djoin([q, r])) == djoin(
                            [dsum(p, q), dsum(p, r)])
                        assert dsum(djoin([q, r]), p) == djoin(
                            [dsum(q, p), dsum(r, p)])
            # oracle equivalence on a subfragment
            universe = enumerate_fragment(poset, 8)
            vec = lambda m: tuple(m.counts[x] for x in poset.elements)
            by_vec = {vec(m): m for m in universe}
            leq_vec = lambda u, v: all(a <= b for a, b in zip(vec(u), vec(v)))
            add_vec = lambda u, v: by_vec[tuple(a + b
                                                for a, b in zip(vec(u), vec(v)))]
            for p in small:
                for q in small:
                    got = frozenset(dsum(p, q).members(universe))
                    want = downset_sum_oracle(
                        universe, leq_vec, add_vec,
                        full_downset(universe, leq_vec, p.maxgens),
                        full_downset(universe, leq_vec, q.maxgens))
                    assert got == want


def test_criterion_5_free_aqm_and_category_isomorphism():
    with Timer("criterion 5: free AQM laws and extend/restrict round trip", 10.0):
        m2, d2 = fx.m2(), fx.d2()
        from squanta.aqm import free_aqm

        fa = free_aqm(m2, k=4)
        rep = check_aqm(fa)
        assert rep.ok
        assert (rep.data["checked"], rep.data["skipped"]) == (4394, 1408)
        # category isomorphism on the M2/D2 act
        pa = fx.m2_on_d2()
        aa = extend_poset_action_to_dm(pa)
        ma = extend_act_to_module(aa)
        assert check_action(aa).ok and check_action(ma).ok
        back = restrict_module_to_act(ma)
        pts = aa.space.enumerate((3, 2))
        for a in m2.elements:
            for p in pts:
                assert back.star(a, p) == aa.star(a, p)
        # reverse composite: the module action is forced by iota values
        scalars = ma.scalars.quant.enumerate((2, 2))
        for s in scalars:
            for p in ma.space.enumerate((2, 2)):
                parts = []
                for sigma in s.maxgens:
                    acc = ma.space.zero
                    for a in sigma.gens:
                        acc = ma.space.plus(acc, ma.star(ma.scalars.iota(a), p))
                    parts.append(acc)
                assert ma.star(s, p) == ma.space.join(parts)
        # the naive elementwise product differs on the recorded instance
        base = fa.quant.base
        mus = lambda *gs: Multiupset(m2.poset, gs)
        dn = lambda *gs: djoin([unit_embed(base, g) for g in gs])
        p, q = dn(mus("e", "e")), dn(mus("e"), mus("c"))
        assert fa.mult(p, q) != naive_elementwise_product(m2, p, q)


def test_criterion_6_structurality_lemmas():
    with Timer("criterion 6: structurality scopes and transfer", 10.0):
        n2q = fx.n2_quantale()
        a = exp_end(n2q)
        tables = a.gen_tables
        eval_module = ActionMap(MODULE, a, n2q,
                                lambda g, x: tables[g][x], name="eval")
        fixtures = [fx.a3_self_module(), fx.a3_sub2_module(), eval_module]
        for ma in fixtures:
            sp = ma.space
            presentations = (enumerate_nuclei(sp) + enumerate_consequences(sp)
                             + enumerate_congruences(sp))
            for p in presentations:
                rep = structural_check(p, ma, scope="generators")
                assert rep.data["generators_pass"] == rep.data["all_pass"]
                if rep.data["structural"]:
                    assert rep.ok  # transfer to both other presentations


def test_criterion_7_quotient_modules():
    with Timer("criterion 7: quotient modules", 5.0):
        for ma in (fx.a3_self_module(), fx.a3_sub2_module(),
                   fx.n3_self_module()):
            for g in enumerate_nuclei(ma.space):
                if not structural_check(g, ma, scope="all").data["structural"]:
                    continue
                qm = quotient(ma, g)
                assert qm.report.ok
                assert check_action(qm.module).ok


def test_criterion_8_cyclic_projective_theorem():
    with Timer("criterion 8: cyclic projective characterization", 60.0):
        sub2 = fx.a3_sub2_module()
        fam = exhaustive_family(sub2, fx.module_family(), max_size=3)
        rep = cyclic_projective_check(sub2, lifting_family=fam)
        assert rep.ok
        assert rep.data["conditions"] == {"ii": True, "iii": True,
                                          "iv": True, "v": True}
        assert rep.data["shared_witness"] == ("2", "2")
        assert rep.data["lifting_ok"]
        # gamma_u matches the independently enumerated nucleus
        nuc, grep = gamma_u("2", fx.a3_self_module())
        assert nuc.as_dict() == {"0": "0", "1": "2", "2": "2"}
        assert grep.ok
        oracle = brute_nuclei(fx.n2_quantale().elements,
                              fx.n2_quantale().leq, fx.n2_quantale().plus)
        assert tuple(sorted(nuc.as_dict().items())) in oracle


def test_criterion_9_algebraizability():
    with Timer("criterion 9: algebraizability line equivalence", 30.0):
        n2q = fx.n2_quantale()
        selfm = fx.a3_self_module()
        sub2 = fx.a3_sub2_module()
        homs = enumerate_module_homs(selfm, selfm)
        pairs = 0
        for g in enumerate_nuclei(n2q):
            if not structural_check(g, selfm, scope="all").data["structural"]:
                continue
            for d in enumerate_nuclei(n2q):
                if not structural_check(d, selfm, scope="all").data["structural"]:
                    continue
                for tau in homs:
                    for rho in homs:
                        rep = equivalence_check(
                            TranslationPair(selfm, selfm, g, d, tau, rho))
                        assert rep.data["line1"] == rep.data["line2"]
                        pairs += 1
        assert pairs == 81  # 3 nuclei x 3 nuclei x 9 hom pairs
        # recover a pair from the gamma_u isomorphism
        g2, _ = gamma_u("2", selfm)
        fwd = {x: residual(x, "2", selfm).value for x in sub2.space.elements}
        bwd = {a: selfm.star(a, "2") for a in g2.image()}
        ident2 = nucleus(sub2.space, {x: x for x in sub2.space.elements})
        tp = recover_translations(fwd, bwd, sub2, selfm, ident2, g2)
        assert equivalence_check(tp).ok


def test_criterion_10_negative_controls(capsys):
    with Timer("criterion 10a: non-monotone table rejected", 1.0):
        assert main(["validate", "N2-broken"]) == EXIT_VIOLATION
        assert "witness" in capsys.readouterr().out
    with Timer("criterion 10b: ill-defined generator-image hom", 1.0):
        with pytest.raises(IllDefined) as err:
            hom_from_generator_image(fx.a3_sub2_module(), "2",
                                     fx.a3_self_module(), "1")
        assert err.value.witness == ("1", "2")
    with Timer("criterion 10c: non-structural nucleus rejected", 1.0):
        assert main(["quotient", "B3.self", "gB3"]) == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "('1', '1')" in out
    with Timer("criterion 10d: misdeclared unit rejected", 1.0):
        assert main(["validate", "A3-broken"]) == EXIT_VIOLATION
        assert "witness" in capsys.readouterr().out
