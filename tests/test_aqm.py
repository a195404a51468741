from itertools import product

import pytest

from oracles import naive_elementwise_product
from squanta.aqm import (
    AQM,
    check_aqm,
    eval_term,
    exp_end,
    free_aqm,
    make_quantale,
    table_aqm,
    term,
    term_closure,
)
from squanta.downset import djoin, unit_embed
from squanta.errors import (FragmentExceeded, LawViolated, NotAssociative,
                            TooLarge, UnboundVariable, UnknownElement)
from squanta.multiupset import Multiupset
from squanta.order import ByteTable


def test_eval_term(n2q):
    t = term(("x", "y"))
    assert eval_term(t, {"x": "1", "y": "1"}, n2q) == "2"
    u = term(("x",), ("y",))  # formal join
    assert eval_term(u, {"x": "1", "y": "2"}, n2q) == "2"
    zero = term(())
    assert eval_term(zero, {}, n2q) == "0"
    with pytest.raises(UnboundVariable):
        eval_term(t, {"x": "1"}, n2q)


def test_eval_term_monotone_in_env(n2q):
    t = term(("x", "x", "y"), ("y",))
    els = n2q.elements
    for x1, y1, x2, y2 in product(els, repeat=4):
        if n2q.leq(x1, x2) and n2q.leq(y1, y2):
            v1 = eval_term(t, {"x": x1, "y": y1}, n2q)
            v2 = eval_term(t, {"x": x2, "y": y2}, n2q)
            assert n2q.leq(v1, v2)


def test_a3_valid_and_distributively_generated(a3):
    rep = check_aqm(a3)
    assert rep.ok
    assert a3.distributively_generated  # iota is onto


def test_check_aqm_reads_the_tables_it_holds(a3, n3, monkeypatch):
    """check_aqm on a built finite AQM compiles one ByteTable, the
    transposed product; every other table is held by the structures."""
    by_function = AQM(a3.dist, a3.quant, a3.mult, a3.one,
                      {d: d for d in a3.dist.elements}, name="A3-again")
    built = []
    real = ByteTable.__init__
    monkeypatch.setattr(ByteTable, "__init__", lambda self, flat, n: (
        built.append(n), real(self, flat, n))[1])
    for a in (a3, n3, by_function):
        built.clear()
        assert check_aqm(a).ok
        assert built == [len(a.quant.elements)], a


def test_a3_broken_unit(n2q):
    mult = {(x, y): str(min(int(x) * int(y), 2))
            for x in n2q.elements for y in n2q.elements}
    with pytest.raises(LawViolated) as err:
        table_aqm(n2q, mult, "0")  # 0*a = 0 != a
    assert err.value.law == "unit"


def test_product_dict_missing_a_pair_or_naming_no_element(n2q, a3):
    mult = {(x, y): a3.mult(x, y) for x in n2q.elements for y in n2q.elements}
    del mult["0", "1"]
    with pytest.raises(NotAssociative) as err:
        AQM(a3.dist, n2q, mult, "1", a3.iota)
    assert (err.value.args[0], err.value.witness) == (
        "operation table incomplete", ("0", "1"))
    mult["0", "1"] = "7"
    with pytest.raises(UnknownElement) as err:
        AQM(a3.dist, n2q, mult, "1", a3.iota)
    assert err.value.witness == "7"


def test_exp_end_structure(n2q):
    a = exp_end(n2q)
    # End(N2) = constant-0, identity, the 1->2 map; derived by filtering the
    # 10 monotone self-maps of the 3-chain
    assert len(a.dist.elements) == 3
    endos = {tuple(t[x] for x in n2q.elements) for t in a.endo_tables.values()}
    assert endos == {("0", "0", "0"), ("0", "1", "2"), ("0", "2", "2")}
    assert "(0,1,2)" in a.dist.elements  # identity present
    # Gen contains id + id = the doubling map (0,2,2)
    doubling = {x: n2q.plus(x, x) for x in n2q.elements}
    assert tuple(doubling[x] for x in n2q.elements) == ("0", "2", "2")
    assert "(0,2,2)" in a.quant.elements
    assert check_aqm(a).ok
    assert a.distributively_generated


def test_exp_end_too_large():
    chain6 = make_quantale(
        {
            "poset": {
                "elements": [str(i) for i in range(6)],
                "leq": [[str(i), str(j)] for i in range(6) for j in range(6) if i <= j],
            },
            "monoid": {
                "op": [[str(i), str(j), str(min(i + j, 5))]
                       for i in range(6) for j in range(6)],
                "unit": "0",
            },
        }
    )
    with pytest.raises(TooLarge):
        exp_end(chain6)


def test_exp_end_without_a_zero():
    # the chain 0 < 1 under min, with unit 1: its zero is not its bottom,
    # which every endomorphism fixes, so the closure misses Gen's zero, the
    # constant map (1,1)
    chain2 = make_quantale({
        "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "monoid": {"op": [[x, y, min(x, y)] for x in "01" for y in "01"],
                   "unit": "1"}})
    assert (chain2.zero, chain2.bottom) == ("1", "0")
    with pytest.raises(UnknownElement) as err:
        exp_end(chain2)
    assert err.value.witness == "(1,1)"


def test_dg_closure_lemma(a3, n2q):
    # the closure of the iota-image under {0, +, finite joins} is closed
    # under products and contains the multiplicative unit
    for a in (a3, exp_end(n2q)):
        closure = term_closure(a.quant, ((a.iota(d), f"i({d})")
                                         for d in a.dist.elements))
        assert a.one in closure
        for x in closure:
            for y in closure:
                assert a.mult(x, y) in closure


def _helpers(m):
    fa = free_aqm(m, k=4)
    base = fa.quant.base

    def mus(*gens):
        return Multiupset(m.poset, gens)

    def dn(*gens):
        return djoin([unit_embed(base, g) for g in gens])

    return fa, mus, dn


def test_free_aqm_product_examples(m2):
    fa, mus, dn = _helpers(m2)
    assert fa.mult(dn(mus("c")), dn(mus("c", "c"))) == dn(mus("c", "c"))
    p = dn(mus("e"), mus("c"))
    assert fa.mult(fa.one, p) == p
    assert fa.mult(p, dn(mus("c"))) == dn(mus("c"))


def test_free_aqm_fragment_laws(m2):
    fa, _, _ = _helpers(m2)
    rep = check_aqm(fa)
    assert rep.ok
    assert rep.data["checked"] > 0


def test_free_aqm_left_distributivity_is_asymmetric(m2):
    # iota-image elements distribute over joins on the left; some
    # non-iota element does not (matching the asymmetric law set)
    fa, mus, dn = _helpers(m2)
    x, y = dn(mus("e", "e")), dn(mus("c"))
    for a in m2.elements:
        i = fa.iota(a)
        assert fa.mult(i, djoin([x, y])) == djoin(
            [fa.mult(i, x), fa.mult(i, y)]
        )
    d = dn(mus("e", "c"))  # principal downset of a two-element multiset
    lhs = fa.mult(d, djoin([x, y]))
    rhs = djoin([fa.mult(d, x), fa.mult(d, y)])
    assert lhs != rhs


def test_free_aqm_right_distributivity_for_all(m2):
    fa, mus, dn = _helpers(m2)
    els = [dn(mus()), dn(mus("e")), dn(mus("c")), dn(mus("e"), mus("c")),
           dn(mus("c", "c"))]
    checked = 0
    for p, q, r in product(els, repeat=3):
        try:
            assert fa.mult(djoin([p, q]), r) == djoin(
                [fa.mult(p, r), fa.mult(q, r)]
            )
            assert fa.mult(fa.quant.plus(p, q), r) == fa.quant.plus(
                fa.mult(p, r), fa.mult(q, r)
            )
            checked += 1
        except FragmentExceeded:
            pass  # reported, never truncated; law asserted on the rest
    assert checked > 50


def test_naive_product_differs(m2):
    # the recorded instance where the elementwise product disagrees with the
    # free product
    fa, mus, dn = _helpers(m2)
    p, q = dn(mus("e", "e")), dn(mus("e"), mus("c"))
    free = fa.mult(p, q)
    naive = naive_elementwise_product(m2, p, q)
    assert free != naive
    assert mus("c", "e") in free.members(
        [mus("c", "e")]
    )  # the mixed multiset witnesses the gap
    assert free == dn(mus("e", "e"), mus("c", "e"), mus("c", "c"))
    assert naive == dn(mus("e", "e"), mus("c", "c"))


def test_fragment_exceeded_is_an_error_not_truncation(m2):
    fa, mus, dn = _helpers(m2)
    big = dn(mus("c", "c", "c"))
    with pytest.raises(FragmentExceeded):
        fa.mult(big, dn(mus("c", "c")))  # multiplicity 6 > 4
    with pytest.raises(FragmentExceeded):
        fa.quant.plus(big, big)


CHAIN2 = {
    "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
    "monoid": {"op": [["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"],
                      ["1", "1", "1"]],
               "unit": "1", "notation": "multiplicative"},
}


@pytest.mark.parametrize("base, k, counts", [
    ("M2", 4, (4394, 1408)),
    ("M2", 3, (2082, 3720)),
    ("chain2", 4, (1060, 192)),
])
def test_free_aqm_fragment_scan_counts(m2, base, k, counts):
    from squanta.order import validate_structure

    m = m2 if base == "M2" else validate_structure(CHAIN2)
    rep = check_aqm(free_aqm(m, k=k))
    assert rep.ok
    assert (rep.data["checked"], rep.data["skipped"]) == counts


def test_fragment_scan_checks_iota_unit():
    from squanta.order import validate_structure

    # iota composed with the swap 0 <-> 1 of chain2 (0 < 1, min) sends the
    # unit 1 to v[[0]], not to the one v[[1]]. It stays monotone: the
    # multiupset order reverses the base's, so i(0) = v[[1]] <= v[[0]] = i(1)
    fa = free_aqm(validate_structure(CHAIN2), k=2)
    swap = {"0": "1", "1": "0"}
    a = AQM(fa.dist, fa.quant, fa.mult, fa.one, lambda d: fa.iota(swap[d]))
    rep = check_aqm(a, strict=False)
    failed = [ln for ln in rep.lines if ": FAIL" in ln]
    assert {ln.split(":")[0] for ln in failed} == {"iota-hom", "iota-unit"}
    assert failed[-1] == "iota-unit: FAIL [witness: '1']"
    assert rep.data == {"checked": 564, "skipped": 688}  # iota laws uncounted


def test_fragment_product_must_be_a_function(m2):
    # a finite dict cannot cover a fragment: refused when the AQM is built,
    # where a check_aqm scan once ended in a bare KeyError
    fa = free_aqm(m2, 2)
    for mult in ({}, {(fa.one, fa.one): fa.one}):
        with pytest.raises(TooLarge) as err:
            AQM(fa.dist, fa.quant, mult, fa.one, fa.iota, name="F")
        assert err.value.witness == "F"
        assert "'F'" in str(err.value)


def test_fragment_exceeded_on_every_call(m2):
    # results are kept per fragment; a result outside the bound raises
    # again on each later call, not only on the one that computed it
    fa, mus, dn = _helpers(m2)
    big, two = dn(mus("c", "c", "c")), dn(mus("c", "c"))
    for _ in range(3):
        with pytest.raises(FragmentExceeded) as plus_exc:
            fa.quant.plus(big, big)
        with pytest.raises(FragmentExceeded) as mult_exc:
            fa.mult(big, two)
    assert plus_exc.value.witness == dn(mus(*"cccccc"))
    assert mult_exc.value.witness == dn(mus(*"cccccc"))
    # within the bound the kept results are returned unchanged
    assert fa.quant.plus(two, two) == dn(mus(*"cccc"))
    assert fa.mult(two, two) == dn(mus(*"cccc"))


def test_check_aqm_repeatable_on_one_free_aqm(m2):
    fa = free_aqm(m2, k=3)
    first, second = check_aqm(fa), check_aqm(fa)
    assert first.to_dict() == second.to_dict()
    assert first.data == {"checked": 2082, "skipped": 3720}


def test_dropped_fragment_frees_its_tables(m2):
    import gc
    import weakref

    fa = free_aqm(m2, k=3)
    check_aqm(fa)
    frag = weakref.ref(fa.quant)
    assert (frag()._sum.cache_info().currsize
            and frag()._join.cache_info().currsize)
    del fa
    gc.collect()
    assert frag() is None


def test_iota_is_monoid_hom(m2):
    fa, mus, dn = _helpers(m2)
    for a in m2.elements:
        for b in m2.elements:
            assert fa.mult(fa.iota(a), fa.iota(b)) == fa.iota(m2.apply(a, b))
    assert fa.iota(m2.unit) == fa.one


def test_free_aqm_freeness_against_finite_targets(m2, a3):
    # every multiplicative-pomonoid map of the scalars into a finite
    # two-sorted target extends along iota, and the extension is unique
    # because its values are forced generator by generator
    fa, mus, dn = _helpers(m2)
    # pomonoid homs M2 -> A3_d: unit to unit, c to an idempotent
    idempotents = [u for u in a3.quant.elements if a3.mult(u, u) == u]
    homs = [{"e": "1", "c": u} for u in idempotents]
    frag = fa.quant.enumerate((2, 2))
    for h in homs:
        def ext(p, h=h):
            parts = []
            for sigma in p.maxgens:
                acc = a3.quant.zero
                for a in sigma.gens:
                    acc = a3.quant.plus(acc, a3.iota(h[a]))
                parts.append(acc)
            return a3.quant.join(parts)

        for a in m2.elements:
            assert ext(fa.iota(a)) == a3.iota(h[a])
        assert ext(fa.one) == a3.one
        for p in frag:
            for q in frag:
                assert ext(djoin([p, q])) == a3.quant.join([ext(p), ext(q)])
                assert ext(fa.quant.plus(p, q)) == a3.quant.plus(ext(p), ext(q))
                assert ext(fa.mult(p, q)) == a3.mult(ext(p), ext(q))


def test_non_complete_generalized_quantale():
    # two minimal points below a top: no bottom, so the empty join is never
    # formed and the complete flag gates bottom-dependent behavior
    q = make_quantale(
        {
            "poset": {"elements": ["a", "b", "t"],
                      "leq": [["a", "t"], ["b", "t"]]},
            "monoid": {
                "op": [["a", "a", "a"], ["a", "b", "b"], ["a", "t", "t"],
                       ["b", "a", "b"], ["b", "b", "t"], ["b", "t", "t"],
                       ["t", "a", "t"], ["t", "b", "t"], ["t", "t", "t"]],
                "unit": "a",
            },
        },
        name="V3",
    )
    assert not q.complete and q.bottom is None
    with pytest.raises(LawViolated):
        q.join([])
    a = exp_end(q)
    assert check_aqm(a).ok


from hypothesis import given, settings, strategies as st


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_free_product_laws_hypothesis(data):
    from squanta.fixtures import m2 as mk

    fa, _, _ = _helpers(mk())
    frag = fa.quant.enumerate((2, 2))
    p = data.draw(st.sampled_from(frag))
    q = data.draw(st.sampled_from(frag))
    r = data.draw(st.sampled_from(frag))
    try:
        assert fa.mult(fa.mult(p, q), r) == fa.mult(p, fa.mult(q, r))
        assert fa.mult(fa.one, p) == p == fa.mult(p, fa.one)
        assert fa.mult(djoin([p, q]), r) == djoin([fa.mult(p, r), fa.mult(q, r)])
    except FragmentExceeded:
        pass
