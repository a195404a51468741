import pytest
from hypothesis import given, settings, strategies as st

from oracles import eval_gens, multiupset_universe
from squanta.errors import BaseMismatch, NotCDI, UnknownElement
from squanta.multiupset import (
    Multiupset,
    decompose,
    enumerate_fragment,
    free_extend_pomonoid,
    generator_embed,
    mleq,
    msum,
)
from squanta.order import monotone_map


def table(m):
    return {x: m.counts[x] for x in m.base.elements}


def test_generator_embed_values(c2, d2):
    # the defining display: [a](x) = 1 iff x >= a
    assert table(generator_embed(c2, "a")) == {"a": 1, "b": 1}
    assert table(generator_embed(c2, "b")) == {"a": 0, "b": 1}
    assert table(generator_embed(d2, "p")) == {"p": 1, "q": 0}
    with pytest.raises(UnknownElement):
        generator_embed(d2, "zz")


def test_msum_pointwise(c2, d2):
    two_p = msum(generator_embed(d2, "p"), generator_embed(d2, "p"))
    assert table(two_p) == {"p": 2, "q": 0}
    # oracle: pointwise evaluation of the generator multiset
    ab = msum(generator_embed(c2, "a"), generator_embed(c2, "b"))
    assert tuple(table(ab)[x] for x in c2.elements) == eval_gens(
        c2.elements, c2.leq, ("a", "b")
    )
    f = Multiupset(c2, ["a", "b", "b"])
    assert table(msum(f, Multiupset(c2, ()))) == table(f)


def test_msum_base_mismatch(c2, d2):
    with pytest.raises(BaseMismatch):
        msum(generator_embed(c2, "a"), generator_embed(d2, "p"))


def test_mleq_examples(c2, d2):
    a, b = generator_embed(c2, "a"), generator_embed(c2, "b")
    assert mleq(a, msum(a, b))
    assert not mleq(a, b)
    assert mleq(b, msum(a, a))  # evals (0,1) <= (2,2)
    empty = Multiupset(c2, ())
    for f in enumerate_fragment(c2, 3):
        assert mleq(empty, f)


def test_mleq_matches_multiset_inclusion_on_discrete_base(d2):
    # two independent implementations must agree over a discrete poset
    from collections import Counter

    for f in enumerate_fragment(d2, 3):
        for g in enumerate_fragment(d2, 3):
            cf, cg = Counter(f.gens), Counter(g.gens)
            inclusion = all(cf[k] <= cg[k] for k in cf)
            assert mleq(f, g) == inclusion


def test_decompose_examples(c2, d2):
    f = Multiupset(c2, ["a", "b"])  # eval a->1, b->2
    assert table(f) == {"a": 1, "b": 2}
    assert decompose(f) == ("a", "b")
    assert decompose(Multiupset(c2, ())) == ()
    assert decompose(Multiupset(d2, ["p", "p", "q"])) == ("p", "p", "q")


def test_decompose_is_normal_form(c2, d2):
    # re-summing the decomposition reproduces the evaluation, for all sums
    # of fragment elements
    for base in (c2, d2):
        frag = enumerate_fragment(base, 2)
        for f in frag:
            for g in frag:
                h = msum(f, g)
                assert Multiupset(base, decompose(h)) == h


def test_free_extend_examples(c2, d2, n2):
    h = monotone_map(d2, n2.poset, {"p": "1", "q": "1"})
    ev = free_extend_pomonoid(h, n2)
    assert ev(Multiupset(d2, ["p", "q"])) == "2"
    assert ev(Multiupset(d2, ())) == "0"
    h2 = monotone_map(c2, n2.poset, {"a": "1", "b": "2"})
    ev2 = free_extend_pomonoid(h2, n2)
    assert ev2(Multiupset(c2, ["a", "b"])) == "2"  # 1+2 truncated


def test_free_extend_refuses_a_multiupset_over_another_base(c2, d2, n2):
    ev = free_extend_pomonoid(monotone_map(d2, n2.poset, {"p": "1", "q": "2"}),
                              n2)
    other = Multiupset(c2, ["a"])
    with pytest.raises(BaseMismatch) as err:
        ev(other)
    assert err.value.args[0] == "multiupset over a different poset"
    assert err.value.witness == other
    assert ev(Multiupset(d2, ["p"])) == "1"


def test_free_extend_requires_cdi(d2, m2):
    h = monotone_map(d2, m2.poset, {"p": "e", "q": "e"})
    with pytest.raises(NotCDI):
        free_extend_pomonoid(h, m2)  # M2 is not dually integral


def _monotone_maps(src, dst):
    from itertools import product as iproduct

    out = []
    for values in iproduct(dst.elements, repeat=len(src.elements)):
        tab = dict(zip(src.elements, values))
        if all(
            dst.leq(tab[x], tab[y])
            for x in src.elements
            for y in src.elements
            if src.leq(x, y)
        ):
            out.append(monotone_map(src, dst, tab))
    return out


def test_freeness_on_fragment(c2, d2, n2):
    # for every monotone h into N2: h-sharp is additive, agrees with h on
    # generators, and its values are forced by the homomorphism equations
    for base in (c2, d2):
        frag = enumerate_fragment(base, 4)
        for h in _monotone_maps(base, n2.poset):
            ev = free_extend_pomonoid(h, n2)
            for a in base.elements:
                assert ev(generator_embed(base, a)) == h.apply(a)
            assert ev(Multiupset(base, ())) == "0"
            for f in frag:
                for g in frag:
                    assert ev(msum(f, g)) == n2.apply(ev(f), ev(g))
                # uniqueness: any map satisfying the equations is the
                # generator-fold, which must coincide with the evaluator
                forced = n2.fold(h.apply(a) for a in f.gens)
                assert ev(f) == forced


def test_extension_monotone_on_discrete_base(d2, n2):
    frag = enumerate_fragment(d2, 4)
    for h in _monotone_maps(d2, n2.poset):
        ev = free_extend_pomonoid(h, n2)
        for f in frag:
            for g in frag:
                if mleq(f, g):
                    assert n2.leq(ev(f), ev(g))


def test_fragment_is_cdi_pomonoid(c2, d2):
    # commutativity, associativity, dual integrality over the fragment
    for base in (c2, d2):
        frag = enumerate_fragment(base, 2)
        empty = Multiupset(base, ())
        for f in frag:
            assert msum(f, empty) == f
            assert mleq(empty, f)
            for g in frag:
                assert msum(f, g) == msum(g, f)
                for h in frag:
                    assert msum(msum(f, g), h) == msum(f, msum(g, h))
                    if mleq(f, g):
                        assert mleq(msum(f, h), msum(g, h))


def test_fragment_enumeration_complete(d2, c2):
    # matches the independent universe of eval tables
    for base in (d2, c2):
        frag = enumerate_fragment(base, 4)
        keys = {tuple(f.counts[x] for x in base.elements) for f in frag}
        assert keys == multiupset_universe(base.elements, base.leq, 4)


@settings(derandomize=True, database=None)
@given(st.data())
def test_msum_laws_hypothesis(data):
    from squanta.fixtures import c2 as mk

    base = mk()
    frag = enumerate_fragment(base, 3)
    f = data.draw(st.sampled_from(frag))
    g = data.draw(st.sampled_from(frag))
    assert msum(f, g) == msum(g, f)
    assert mleq(f, msum(f, g))


NON_FORESTS = {
    # p, q < t: incomparable generators share an upper bound
    "V": (["p", "q", "t"], [["p", "t"], ["q", "t"]]),
    # b < p, q: the dual shape
    "Lambda": (["b", "p", "q"], [["b", "p"], ["b", "q"]]),
    "diamond": (["b", "p", "q", "t"],
                [["b", "p"], ["b", "q"], ["b", "t"], ["p", "t"], ["q", "t"]]),
    "N": (["a", "b", "c", "d"], [["a", "c"], ["b", "c"], ["b", "d"]]),
}


@pytest.mark.parametrize("shape", sorted(NON_FORESTS))
def test_decompose_exact_on_non_forest_bases(shape, n2):
    from squanta.order import validate_structure
    from oracles import all_gen_multisets

    els, leq = NON_FORESTS[shape]
    v = validate_structure({"poset": {"elements": els, "leq": leq}})
    tables = set()
    for gens in all_gen_multisets(v.elements, 3):
        f = Multiupset(v, gens)
        want = eval_gens(v.elements, v.leq, gens)
        assert tuple(table(f)[x] for x in v.elements) == want
        assert decompose(f) == tuple(sorted(gens))
        tables.add(want)
    if shape == "V":
        assert decompose(Multiupset(v, ["p", "q"])) == ("p", "q")
    # the free extension is defined on every base: minimal points to 1,
    # the others to 2, folded over the generators
    h = monotone_map(v, n2.poset, {
        x: "2" if any(v.leq(a, x) and a != x for a in v.elements) else "1"
        for x in v.elements})
    ev = free_extend_pomonoid(h, n2)
    for gens in all_gen_multisets(v.elements, 3):
        assert ev(Multiupset(v, gens)) == n2.fold(h.apply(a) for a in gens)
    # distinct generator multisets have distinct tables
    assert len(tables) == len(list(all_gen_multisets(v.elements, 3)))


def test_multiplicity_overflow(c2, monkeypatch):
    # a count past MAX_COUNT is a bug, raised rather than carried
    from squanta import multiupset

    monkeypatch.setattr(multiupset, "MAX_COUNT", 1)
    assert table(Multiupset(c2, ["b"])) == {"a": 0, "b": 1}
    with pytest.raises(OverflowError, match="multiplicity overflow"):
        Multiupset(c2, ["a", "b"])
