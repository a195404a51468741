"""Translation pairs, the four-condition equivalence of consequence
relations with the isomorphism it induces between nucleus quotients, and
recovery of translations from a quotient isomorphism via projectivity
lifting."""

from dataclasses import dataclass
from itertools import product

from .errors import IllDefined, NoLift, NotProjective
from .nucleus import Nucleus, quotient
from .modact import hom_from_generator_image, is_module_hom
from .projective import cyclic_projective_check, find_lift
from .reporting import Report

__all__ = [
    "TranslationPair",
    "hom_from_generator_image",
    "equivalence_check",
    "recover_translations",
]


@dataclass
class TranslationPair:
    p_mod: object      # module P
    q_mod: object      # module Q over the same AQM
    gamma: Nucleus     # structural nucleus on P
    delta: Nucleus     # structural nucleus on Q
    tau: dict          # module homomorphism P -> Q
    rho: dict          # module homomorphism Q -> P

    def validate(self):
        if self.p_mod.scalars is not self.q_mod.scalars:
            raise IllDefined("modules over different AQMs",
                             witness=(self.p_mod.name, self.q_mod.name))
        _check_on(self.gamma, self.p_mod, "gamma")
        _check_on(self.delta, self.q_mod, "delta")
        for label, h, dst in (("tau", self.tau, self.q_mod),
                              ("rho", self.rho, self.p_mod)):
            if not set(h.values()) <= set(dst.space.elements):
                raise IllDefined(f"{label} leaves the target module",
                                 witness=label)
        if not is_module_hom(self.tau, self.p_mod, self.q_mod):
            raise IllDefined("tau is not a module homomorphism", witness="tau")
        if not is_module_hom(self.rho, self.q_mod, self.p_mod):
            raise IllDefined("rho is not a module homomorphism", witness="rho")
        return self


def _check_on(nuc, mod, label):
    if nuc.space != mod.space:
        raise IllDefined(f"{label} is not a nucleus on its module's space",
                         witness=label)


def _entails(nuc, space, x, y):
    return space.leq(y, nuc.apply(x))


def _preserves(src, dst):
    """Condition (1) for src = (P, gamma, tau), dst = (Q, delta, rho), and
    (3) with them swapped: the translation preserves and reflects entailment."""
    (sp, nuc, there), (dsp, dnuc, _) = src, dst
    return all(_entails(nuc, sp, x, y) == _entails(dnuc, dsp, there[x], there[y])
               for x, y in product(sp.elements, repeat=2))


def _round_trip(src, dst):
    """Condition (2) for src and dst as in _preserves, and (4) with them
    swapped: each e of dst is interderivable with there(back(e))."""
    (_, _, there), (sp, nuc, back) = src, dst
    return all(_entails(nuc, sp, e, there[back[e]])
               and _entails(nuc, sp, there[back[e]], e) for e in sp.elements)


def equivalence_check(tp: TranslationPair):
    """Evaluate the four equivalence conditions exhaustively, the meta-claim
    that the two condition lines have equal truth value, and, on success,
    that delta o tau and gamma o rho induce mutually inverse isomorphisms of
    the two quotients."""
    tp.validate()
    rep = Report("equivalence")
    p = (tp.p_mod.space, tp.gamma, tp.tau)
    q = (tp.q_mod.space, tp.delta, tp.rho)
    c1, c2 = _preserves(p, q), _round_trip(p, q)
    c3, c4 = _preserves(q, p), _round_trip(q, p)
    for name, ok in [("translation preserves entailment", c1),
                     ("tau-rho round trip is interderivable", c2),
                     ("back-translation preserves entailment", c3),
                     ("rho-tau round trip is interderivable", c4)]:
        rep.verdict(name, ok)
    line1, line2 = c1 and c2, c3 and c4
    rep.data.update(line1=line1, line2=line2,
                    conditions=dict(c1=c1, c2=c2, c3=c3, c4=c4))
    rep.verdict("line 1 equivalent to line 2", line1 == line2,
                f"both {line1}", witness=(line1, line2))

    if line1 and line2:
        gd, dd = tp.gamma.as_dict(), tp.delta.as_dict()
        f = {x: dd[tp.tau[x]] for x in tp.gamma.image()}
        h = {e: gd[tp.rho[e]] for e in tp.delta.image()}
        inverse = all(h[f[x]] == x for x in f) and all(f[h[e]] == e for e in h)
        rep.verdict("delta.tau and gamma.rho are mutually inverse on "
                    "quotients", inverse)
        rep.data["f"] = f
        rep.data["g"] = h
    return rep


def recover_translations(f, g, p_mod, q_mod, gamma, delta):
    """Lift a quotient isomorphism back to a translation pair.

    Both modules are first certified cyclic projective (condition (ii) of
    `cyclic_projective_check`); a module that is not raises NotProjective
    with its name as the witness. f and g, on the nucleus images, must be
    module homomorphisms between the quotients (IllDefined otherwise); then
    the lifts exist, so a failed hom search would indicate a bug.
    """
    for mod in (p_mod, q_mod):
        if not cyclic_projective_check(mod).data["conditions"]["ii"]:
            raise NotProjective(f"module {mod.name!r} is not cyclic projective",
                                witness=mod.name)
    _check_on(gamma, p_mod, "gamma")
    _check_on(delta, q_mod, "delta")
    gd, dd = gamma.as_dict(), delta.as_dict()
    quotients = quotient(p_mod, gamma).module, quotient(q_mod, delta).module
    for label, h, image, (src, dst) in (("f", f, gd, quotients),
                                        ("g", g, dd, quotients[::-1])):
        if not set(image.values()) <= set(h):
            raise IllDefined(f"{label} is not defined on the whole image",
                             witness=label)
        if not is_module_hom({x: h[x] for x in src.space.elements}, src, dst):
            raise IllDefined(f"{label} is not a module homomorphism of the "
                             "quotients", witness=label)
    tau = find_lift({x: f[gd[x]] for x in gd}, dd, p_mod, q_mod)
    rho = find_lift({e: g[dd[e]] for e in dd}, gd, q_mod, p_mod)
    if tau is None or rho is None:
        raise NoLift(
            "certified projective module admitted no lift: this is a bug trap",
            witness=("tau" if tau is None else "rho"),
        )
    tp = TranslationPair(p_mod, q_mod, gamma, delta, tau, rho)
    tp.validate()
    return tp
