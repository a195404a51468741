import pytest

from squanta.equivlogic import (
    TranslationPair,
    equivalence_check,
    hom_from_generator_image,
    induced_embedding_check,
    recover_translations,
)
from squanta.errors import IllDefined, NotProjective, TooLarge
from squanta.modact import extend_act_to_module, extend_poset_action_to_dm
from squanta.nucleus import enumerate_nuclei, nucleus, quotient, structural_check
from squanta.projective import enumerate_module_homs


def g022_of(n2q):
    return nucleus(n2q, {"0": "0", "1": "2", "2": "2"})


def mul_by(a3, w):
    return {a: a3.mult(a, w) for a in a3.quant.elements}


def test_hom_from_generator_image_examples(a3, a3_self, a3_sub2, n3_self,
                                           m2_on_d2):
    tau = hom_from_generator_image(a3_self, "1", a3_self, "2")
    assert tau == {"0": "0", "1": "2", "2": "2"}
    ident = hom_from_generator_image(a3_self, "1", a3_self, "1")
    assert ident == {x: x for x in a3_self.space.elements}
    with pytest.raises(IllDefined) as err:
        hom_from_generator_image(a3_sub2, "2", a3_self, "1")
    assert set(err.value.witness) == {"1", "2"}
    # the star tables of both modules are read over one scalar carrier
    with pytest.raises(IllDefined) as err:
        hom_from_generator_image(a3_self, "1", n3_self, "1")
    assert err.value.args[0] == "modules over different scalar carriers"
    free = extend_act_to_module(extend_poset_action_to_dm(m2_on_d2))
    with pytest.raises(TooLarge):  # fragment scalars have no star table
        hom_from_generator_image(free, free.space.zero, free, free.space.zero)


def test_induced_embedding_examples(n2q, a3, a3_self):
    g = g022_of(n2q)
    f_id = {x: x for x in g.image()}
    ident = {x: x for x in n2q.elements}
    assert induced_embedding_check(f_id, g, g, ident, a3_self) == (True, None)
    tau = mul_by(a3, "2")
    assert induced_embedding_check(f_id, g, g, tau, a3_self) == (True, None)
    # a map that does not intertwine: send everything to 0
    f_bad = {x: "0" for x in g.image()}
    ok, witness = induced_embedding_check(f_bad, g, g, ident, a3_self)
    assert not ok and witness is not None


def test_equivalence_check_identity(n2q, a3_self):
    ident_n = nucleus(n2q, {x: x for x in n2q.elements})
    ident = {x: x for x in n2q.elements}
    tp = TranslationPair(a3_self, a3_self, ident_n, ident_n, ident, ident)
    rep = equivalence_check(tp)
    assert rep.ok
    assert rep.data["f"] == ident


def test_equivalence_check_mul2_pair(n2q, a3, a3_self):
    g = g022_of(n2q)
    t = mul_by(a3, "2")
    tp = TranslationPair(a3_self, a3_self, g, g, t, t)
    rep = equivalence_check(tp)
    assert rep.ok
    assert rep.data["conditions"] == dict(c1=True, c2=True, c3=True, c4=True)
    f, gg = rep.data["f"], rep.data["g"]
    assert all(gg[f[x]] == x for x in f)


def test_equivalence_check_broken_rho(n2q, a3, a3_self):
    g = g022_of(n2q)
    t = mul_by(a3, "2")
    const0 = {a: "0" for a in n2q.elements}
    tp = TranslationPair(a3_self, a3_self, g, g, t, const0)
    # constant-0 is a module hom here (0 absorbs), so validation passes and
    # a condition must fail with a witness instead
    rep = equivalence_check(tp)
    assert not rep.ok
    assert not rep.data["conditions"]["c2"]


def test_line_equivalence_over_all_hom_pairs(n2q, a3_self):
    # the meta-claim: line-1 truth equals line-2 truth for every candidate
    # pair of module homomorphisms
    homs = enumerate_module_homs(a3_self, a3_self)
    assert len(homs) == 3
    agree = 0
    for g in enumerate_nuclei(n2q):
        if not structural_check(g, a3_self, scope="all").data["structural"]:
            continue
        for tau in homs:
            for rho in homs:
                rep = equivalence_check(
                    TranslationPair(a3_self, a3_self, g, g, tau, rho)
                )
                assert rep.data["line1"] == rep.data["line2"]
                agree += 1
    assert agree == 27  # 3 structural nuclei x 9 hom pairs


def test_recover_translations_identity(n2q, a3_self):
    ident_n = nucleus(n2q, {x: x for x in n2q.elements})
    ident = {x: x for x in n2q.elements}
    tp = recover_translations(ident, ident, a3_self, a3_self, ident_n, ident_n)
    assert equivalence_check(tp).ok


def test_recover_translations_g022(n2q, a3, a3_self):
    g = g022_of(n2q)
    f_id = {x: x for x in g.image()}
    tp = recover_translations(f_id, f_id, a3_self, a3_self, g, g)
    gd = g.as_dict()
    assert all(gd[tp.tau[x]] == f_id[gd[x]] for x in n2q.elements)
    assert equivalence_check(tp).ok


def test_recover_rejects_a_nonprojective_module(n2q, n3_self):
    # N3 by the nucleus fixing {0, 1, 3} is cyclic but not projective
    n3q = n3_self.space
    g0133 = nucleus(n3q, {"0": "0", "1": "1", "2": "3", "3": "3"})
    qm = quotient(n3_self, g0133).module
    g, f = g022_of(n2q), {"0": "0"}
    with pytest.raises(NotProjective) as err:
        recover_translations(f, f, qm, qm, g, g)
    assert err.value.args[0] == "module 'N3/nucleus' is not cyclic projective"
    assert err.value.witness == "N3/nucleus"


def test_recover_via_gamma_u_isomorphism(n2q, a3, a3_self, a3_sub2):
    # end-to-end: the gamma_u isomorphism between A*2 and the quotient of the
    # scalars induces a recovered pair passing the equivalence check
    from squanta.projective import gamma_u, residual

    g, rep = gamma_u("2", a3_self)
    fwd = {x: residual(x, "2", a3_self).value for x in a3_sub2.space.elements}
    bwd = {a: a3_self.star(a, "2") for a in g.image()}
    ident2 = nucleus(a3_sub2.space, {x: x for x in a3_sub2.space.elements})
    tp = recover_translations(fwd, bwd, a3_sub2, a3_self, ident2, g)
    assert equivalence_check(tp).ok


def test_round_trip_recovered_pair_induces_same_iso(n2q, a3, a3_self):
    g = g022_of(n2q)
    t = mul_by(a3, "2")
    tp = TranslationPair(a3_self, a3_self, g, g, t, t)
    rep = equivalence_check(tp)
    f, gg = rep.data["f"], rep.data["g"]
    tp2 = recover_translations(f, gg, a3_self, a3_self, g, g)
    rep2 = equivalence_check(tp2)
    assert rep2.ok
    assert rep2.data["f"] == f and rep2.data["g"] == gg
