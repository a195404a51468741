from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from oracles import downset_sum_oracle, full_downset
from squanta.aqm import DmFragment
from squanta.downset import (
    djoin,
    dleq,
    dsum,
    dzero,
    free_extend_quantale,
    normalize,
    unit_embed,
)
from squanta.errors import BaseMismatch, EmptyGeneratorSet, NotAHomomorphism, UnknownElement
from squanta.multiupset import (Multiupset, enumerate_fragment, free_extend_pomonoid,
                                mleq, msum)
from squanta.order import monotone_map, validate_structure


def mu(base, *gens):
    return Multiupset(base, gens)


def dn(base, *gens):
    return normalize(base, list(gens))


def test_normalize_examples(d2):
    p, q = mu(d2, "p"), mu(d2, "q")
    empty = mu(d2)
    assert dn(d2, p, empty).maxgens == (p,)
    assert dn(d2, p, mu(d2, "p", "q")).maxgens == (mu(d2, "p", "q"),)
    assert set(dn(d2, p, q).maxgens) == {p, q}
    with pytest.raises(EmptyGeneratorSet):
        normalize(d2, [])


def test_principal_downset_members(d2):
    # eta(p) denotes exactly {[p], []} over a discrete base
    universe = enumerate_fragment(d2, 3)
    got = set(unit_embed(d2, mu(d2, "p")).members(universe))
    assert got == {mu(d2, "p"), mu(d2)}


def test_djoin_examples(d2):
    p, q = mu(d2, "p"), mu(d2, "q")
    assert djoin([dn(d2, p), dn(d2, q)]) == dn(d2, p, q)
    assert djoin([dn(d2, p), dn(d2, p)]) == dn(d2, p)
    assert djoin([dn(d2, p), dn(d2, mu(d2, "p", "q"))]) == dn(d2, mu(d2, "p", "q"))


def test_dsum_examples(d2):
    p, q = mu(d2, "p"), mu(d2, "q")
    assert dsum(dn(d2, p), dn(d2, q)) == dn(d2, mu(d2, "p", "q"))
    assert dsum(dn(d2, p, q), dzero(d2)) == dn(d2, p, q)
    got = dsum(dn(d2, p, q), dn(d2, p))
    assert set(got.maxgens) == {mu(d2, "p", "p"), mu(d2, "p", "q")}


def test_dleq_examples(d2):
    p, q, pq = mu(d2, "p"), mu(d2, "q"), mu(d2, "p", "q")
    assert dleq(dn(d2, p), dn(d2, pq))
    assert not dleq(dn(d2, p, q), dn(d2, p))
    for gens in ([p], [q], [pq], [p, q]):
        assert dleq(dzero(d2), dn(d2, *gens))


def test_base_mismatch(d2, c2):
    p, q = dn(d2, mu(d2, "p")), dn(c2, mu(c2, "a"))
    for op in (dsum, dleq, lambda p, q: djoin([p, q]), DmFragment(d2).plus):
        with pytest.raises(BaseMismatch) as err:
            op(p, q)
        assert err.value.witness == (p, q)
    for gen in (mu(c2, "a"), "p"):
        with pytest.raises(UnknownElement) as err:
            normalize(d2, [mu(d2, "p"), gen])
        assert err.value.witness == gen
        with pytest.raises(UnknownElement):
            unit_embed(d2, gen)
    # an equal poset built apart is the same base
    again = validate_structure({"poset": {"elements": ["p", "q"], "leq": []}})
    assert again is not d2
    assert dn(again, mu(again, "p")) == p
    assert dsum(dn(again, mu(again, "p")), p) == dn(d2, mu(d2, "p", "p"))


def test_unit_embed_is_pomonoid_hom(d2):
    assert unit_embed(d2, mu(d2)) == dzero(d2)
    assert dsum(unit_embed(d2, mu(d2, "p")), unit_embed(d2, mu(d2, "p"))) == (
        unit_embed(d2, mu(d2, "p", "p")))
    frag = enumerate_fragment(d2, 2)
    for f in frag:
        for g in frag:
            assert dsum(unit_embed(d2, f), unit_embed(d2, g)) == unit_embed(
                d2, msum(f, g))


def _counting(d2, n2):
    """The pomonoid homomorphism M(D2) -> N2 that counts generators,
    truncated at 2: the free extension of p, q -> 1."""
    return free_extend_pomonoid(monotone_map(d2, n2.poset, {"p": "1", "q": "1"}),
                                n2)


def test_free_extend_quantale_examples(n2, n2q, d2, c2):
    ev = free_extend_quantale(d2, _counting(d2, n2), n2q,
                              validate_on=enumerate_fragment(d2, 2))
    assert ev(unit_embed(d2, mu(d2, "p", "q"))) == "2"
    assert ev(djoin([unit_embed(d2, mu(d2, "p")),
                     unit_embed(d2, mu(d2, "q"))])) == "1"
    assert ev(dn(d2, mu(d2, "p"), mu(d2, "q", "q"))) == "2"
    assert ev(dzero(d2)) == "0"
    # the base is compared by value: an equal poset built apart is the same
    again = validate_structure({"poset": {"elements": ["p", "q"], "leq": []}})
    assert ev(dn(again, mu(again, "p", "p"))) == "2"
    with pytest.raises(BaseMismatch):
        ev(dzero(c2))


def test_free_extend_quantale_rejects_non_hom(n2, n2q, d2):
    frag = enumerate_fragment(d2, 2)
    with pytest.raises(NotAHomomorphism) as err:  # [p] + [p] -> 1, not 1 + 1
        free_extend_quantale(d2, lambda f: "1" if f.gens else "0", n2q,
                             validate_on=frag)
    assert err.value.args[0] == "sum not preserved"
    with pytest.raises(NotAHomomorphism) as err:  # 2 + 2 = 2, but [] -> 2
        free_extend_quantale(d2, lambda f: "2", n2q, validate_on=frag)
    assert err.value.args[0] == "zero not preserved"
    assert err.value.witness == mu(d2)


def test_free_extend_quantale_rejects_an_order_reversing_map(n2, n2q, c2):
    """Over C2 (a < b) the free extension of a -> 1, b -> 2 keeps sums and
    zero on the k = 2 fragment, but [b] <= [a] in the multiupset order and
    2 <= 1 fails in N2; unchecked, its evaluator would not keep joins."""
    h = free_extend_pomonoid(monotone_map(c2, n2.poset, {"a": "1", "b": "2"}),
                             n2)
    with pytest.raises(NotAHomomorphism) as err:
        free_extend_quantale(c2, h, n2q, validate_on=enumerate_fragment(c2, 2))
    assert err.value.args[0] == "order not preserved"
    assert err.value.witness == (mu(c2, "b"), mu(c2, "a"))
    ev = free_extend_quantale(c2, h, n2q)
    a, b = unit_embed(c2, mu(c2, "a")), unit_embed(c2, mu(c2, "b"))
    assert ev(djoin([a, b])) != n2q.join([ev(a), ev(b)])


def test_free_extend_quantale_preserves_structure(n2, n2q, d2):
    ev = free_extend_quantale(d2, _counting(d2, n2), n2q,
                              validate_on=enumerate_fragment(d2, 2))
    downs = _fragment_downsets(d2, k=2, width=2)
    for p in downs:
        for q in downs:
            assert ev(djoin([p, q])) == n2q.join([ev(p), ev(q)])
            assert ev(dsum(p, q)) == n2q.plus(ev(p), ev(q))


def _fragment_downsets(poset, k=4, width=3):
    mus = enumerate_fragment(poset, k)
    out = []
    for size in range(1, width + 1):
        for combo in combinations(mus, size):
            if all(
                not (mleq(a, b) or mleq(b, a))
                for a, b in combinations(combo, 2)
            ):
                out.append(normalize(poset, list(combo)))
    return out


def test_quantale_laws_on_dm_fragments(d2, c2):
    # finite-join distributivity over the antichain<=3, multiplicity<=4
    # fragments of DM(D2) and DM(C2): 100% of instances
    for poset in (d2, c2):
        downs = _fragment_downsets(poset, k=4, width=3)
        small = _fragment_downsets(poset, k=2, width=2)
        zero = dzero(poset)
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
        universe = enumerate_fragment(poset, 8)
        vec = lambda m: tuple(m.counts[x] for x in poset.elements)
        by_vec = {vec(m): m for m in universe}
        leq_vec = lambda u, v: all(a <= b for a, b in zip(vec(u), vec(v)))
        add_vec = lambda u, v: by_vec[
            tuple(a + b for a, b in zip(vec(u), vec(v)))
        ]
        small = _fragment_downsets(poset, k=3, width=2)
        for p in small:
            for q in small:
                got = dsum(p, q)
                got_set = frozenset(got.members(universe))
                p_set = full_downset(universe, leq_vec, p.maxgens)
                q_set = full_downset(universe, leq_vec, q.maxgens)
                want = downset_sum_oracle(universe, leq_vec, add_vec, p_set, q_set)
                assert got_set == want


def test_dleq_is_partial_order_and_djoin_is_lub(d2):
    downs = _fragment_downsets(d2, k=3, width=2)
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


@settings(max_examples=60, derandomize=True, database=None)
@given(st.data())
def test_downset_laws_hypothesis(data):
    from squanta.fixtures import d2 as mk

    poset = mk()
    downs = _fragment_downsets(poset, k=3, width=2)
    p = data.draw(st.sampled_from(downs))
    q = data.draw(st.sampled_from(downs))
    assert dleq(p, djoin([p, q]))
    assert dsum(p, q) == dsum(q, p)
    assert dleq(dsum(p, dzero(poset)), p)
