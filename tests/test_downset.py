from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import downset_sum_oracle, full_downset
from squanta.downset import (
    MultiBase,
    PomonoidBase,
    djoin,
    dleq,
    dsum,
    dzero,
    free_extend_quantale,
    normalize,
    unit_embed,
)
from squanta.errors import BaseMismatch, EmptyGeneratorSet, NotAHomomorphism
from squanta.multiupset import Multiupset, enumerate_fragment, free_extend_pomonoid
from squanta.order import monotone_map


def mu(base, *gens):
    return Multiupset(base, gens)


def dn(base, *gens):
    return normalize(base, list(gens))


def test_normalize_examples(d2):
    base = MultiBase(d2)
    p, q = mu(d2, "p"), mu(d2, "q")
    empty = mu(d2)
    assert dn(base, p, empty).maxgens == (p,)
    assert dn(base, p, mu(d2, "p", "q")).maxgens == (mu(d2, "p", "q"),)
    assert set(dn(base, p, q).maxgens) == {p, q}
    with pytest.raises(EmptyGeneratorSet):
        normalize(base, [])


def test_principal_downset_members(d2):
    # eta(p) denotes exactly {[p], []} over a discrete base
    base = MultiBase(d2)
    universe = enumerate_fragment(d2, 3)
    got = set(unit_embed(base, mu(d2, "p")).members(universe))
    assert got == {mu(d2, "p"), mu(d2)}


def test_djoin_examples(d2):
    base = MultiBase(d2)
    p, q = mu(d2, "p"), mu(d2, "q")
    assert djoin([dn(base, p), dn(base, q)]) == dn(base, p, q)
    assert djoin([dn(base, p), dn(base, p)]) == dn(base, p)
    assert djoin([dn(base, p), dn(base, mu(d2, "p", "q"))]) == dn(base, mu(d2, "p", "q"))


def test_dsum_examples(d2):
    base = MultiBase(d2)
    p, q = mu(d2, "p"), mu(d2, "q")
    assert dsum(dn(base, p), dn(base, q)) == dn(base, mu(d2, "p", "q"))
    assert dsum(dn(base, p, q), dzero(base)) == dn(base, p, q)
    got = dsum(dn(base, p, q), dn(base, p))
    assert set(got.maxgens) == {mu(d2, "p", "p"), mu(d2, "p", "q")}


def test_dleq_examples(d2):
    base = MultiBase(d2)
    p, q, pq = mu(d2, "p"), mu(d2, "q"), mu(d2, "p", "q")
    assert dleq(dn(base, p), dn(base, pq))
    assert not dleq(dn(base, p, q), dn(base, p))
    for gens in ([p], [q], [pq], [p, q]):
        assert dleq(dzero(base), dn(base, *gens))


def test_base_mismatch(d2, c2):
    with pytest.raises(BaseMismatch):
        dsum(dn(MultiBase(d2), mu(d2, "p")), dn(MultiBase(c2), mu(c2, "a")))


def test_unit_embed_is_pomonoid_hom_down_n2(n2):
    base = PomonoidBase(n2)
    one, two = unit_embed(base, "1"), unit_embed(base, "2")
    assert dsum(one, one) == two
    assert unit_embed(base, "0") == dzero(base)
    for a in n2.elements:
        for b in n2.elements:
            assert dsum(unit_embed(base, a), unit_embed(base, b)) == unit_embed(
                base, n2.apply(a, b)
            )


def test_free_extend_quantale_examples(n2, n2q, d2):
    base = PomonoidBase(n2)
    ev = free_extend_quantale(base, lambda x: x, n2q, validate_on=n2.elements)
    assert ev(djoin([unit_embed(base, "1"), unit_embed(base, "2")])) == "2"
    assert ev(dzero(base)) == "0"
    # two-stage composite DM(D2) -> N2 via the pomonoid extension
    h = monotone_map(d2, n2.poset, {"p": "1", "q": "1"})
    hsharp = free_extend_pomonoid(h, n2)
    mbase = MultiBase(d2)
    composite = free_extend_quantale(mbase, hsharp, n2q)
    assert composite(unit_embed(mbase, mu(d2, "p", "q"))) == "2"


def test_free_extend_quantale_rejects_non_hom(n2, n2q):
    base = PomonoidBase(n2)
    bad = {"0": "0", "1": "2", "2": "1"}
    with pytest.raises(NotAHomomorphism):
        free_extend_quantale(base, lambda x: bad[x], n2q, validate_on=n2.elements)


def test_free_extend_quantale_preserves_structure(n2, n2q):
    base = PomonoidBase(n2)
    ev = free_extend_quantale(base, lambda x: x, n2q, validate_on=n2.elements)
    downs = [normalize(base, list(gens))
             for r in (1, 2)
             for gens in combinations(n2.elements, r)]
    for p in downs:
        for q in downs:
            assert ev(djoin([p, q])) == n2q.join([ev(p), ev(q)])
            assert ev(dsum(p, q)) == n2q.plus(ev(p), ev(q))


def _fragment_downsets(base, poset, k=4, width=3):
    mus = enumerate_fragment(poset, k)
    out = []
    for size in range(1, width + 1):
        for combo in combinations(mus, size):
            if all(
                not (base.leq(a, b) or base.leq(b, a))
                for a, b in combinations(combo, 2)
            ):
                out.append(normalize(base, list(combo)))
    return out


def test_quantale_laws_on_dm_fragments(d2, c2):
    # finite-join distributivity over the antichain<=3, multiplicity<=4
    # fragments of DM(D2) and DM(C2): 100% of instances
    for poset in (d2, c2):
        base = MultiBase(poset)
        downs = _fragment_downsets(base, poset, k=4, width=3)
        small = _fragment_downsets(base, poset, k=2, width=2)
        zero = dzero(base)
        for p in downs:
            assert dsum(p, zero) == p
            assert djoin([p, p]) == p
            assert dleq(p, p)
        checked = 0
        for p in small:
            for q in small:
                assert dsum(p, q) == dsum(q, p)
                for r in small:
                    assert dsum(p, djoin([q, r])) == djoin(
                        [dsum(p, q), dsum(p, r)]
                    )
                    assert dsum(djoin([q, r]), p) == djoin(
                        [dsum(q, p), dsum(r, p)]
                    )
                    assert dsum(dsum(p, q), r) == dsum(p, dsum(q, r))
                    checked += 1
        assert checked == len(small) ** 3


def test_dsum_matches_full_enumeration_oracle(d2, c2):
    # maxgens shortcut vs the oracle over explicit full downsets
    for poset in (d2, c2):
        base = MultiBase(poset)
        universe = enumerate_fragment(poset, 8)
        vec = lambda m: tuple(m.counts[x] for x in poset.elements)
        by_vec = {vec(m): m for m in universe}
        leq_vec = lambda u, v: all(a <= b for a, b in zip(vec(u), vec(v)))
        add_vec = lambda u, v: by_vec[
            tuple(a + b for a, b in zip(vec(u), vec(v)))
        ]
        small = _fragment_downsets(base, poset, k=3, width=2)
        for p in small:
            for q in small:
                got = dsum(p, q)
                got_set = frozenset(got.members(universe))
                p_set = full_downset(universe, leq_vec, p.maxgens)
                q_set = full_downset(universe, leq_vec, q.maxgens)
                want = downset_sum_oracle(universe, leq_vec, add_vec, p_set, q_set)
                assert got_set == want


def test_dleq_is_partial_order_and_djoin_is_lub(d2):
    base = MultiBase(d2)
    downs = _fragment_downsets(base, d2, k=3, width=2)
    for p in downs:
        for q in downs:
            if dleq(p, q) and dleq(q, p):
                assert p == q
            j = djoin([p, q])
            assert dleq(p, j) and dleq(q, j)
            for r in downs:
                if dleq(p, r) and dleq(q, r):
                    assert dleq(j, r)
            for r in downs:
                if dleq(p, q) and dleq(q, r):
                    assert dleq(p, r)


@settings(max_examples=60)
@given(st.data())
def test_downset_laws_hypothesis(data):
    from squanta.fixtures import d2 as mk

    poset = mk()
    base = MultiBase(poset)
    downs = _fragment_downsets(base, poset, k=3, width=2)
    p = data.draw(st.sampled_from(downs))
    q = data.draw(st.sampled_from(downs))
    assert dleq(p, djoin([p, q]))
    assert dsum(p, q) == dsum(q, p)
    assert dleq(dsum(p, dzero(base)), p)
