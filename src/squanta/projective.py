"""Residuals of module actions, dividing elements, the induced nucleus of a
module element, cyclicity at the three action levels, and the dividing-
idempotent characterization of cyclic projective modules, including direct
lifting checks."""

from dataclasses import dataclass
from itertools import product

from .aqm import term_closure
from .errors import (
    FragmentExceeded,
    NoLift,
    NotAHomomorphism,
    NoResidual,
    NotDividing,
    NotStructural,
    TooLarge,
)
from .modact import (ACT, MODULE, POSET, ActionMap, check_action, cut_module,
                     generator_image, hom_on_positions, is_module_hom)
from .nucleus import Nucleus, quotient
from .reporting import Report

__all__ = [
    "ResidualResult",
    "residual",
    "gamma_u",
    "cyclic_check",
    "cyclic_projective_check",
    "lifting_check",
    "find_lift",
    "self_module",
    "submodule_on_orbit",
    "is_module_hom",
    "enumerate_module_homs",
    "exhaustive_family",
]


@dataclass
class ResidualResult:
    value: object
    certificate: tuple


def residual(y, x, ma):
    """Largest scalar sending x below y, with the scalars that do, for a
    module with finite scalars on a finite quantale (ActionMap.on_tables);
    raises TooLarge for any other action."""
    ma.require_tables()
    index_of = ma.space.pomonoid.poset.index_of
    value, certificate = _residual_index(ma, index_of(y), index_of(x))
    els = ma.scalars.quant.elements
    return ResidualResult(els[value], tuple(els[b] for b in certificate))


def _residual_index(ma, y, x):
    """y/x over element positions on a module on tables (see
    ActionMap.column): the position of the residual among the scalars
    and the positions of the scalars b with b * x <= y. Raises NoResidual
    as `residual` does."""
    q, pels = ma.scalars.quant, ma.space.elements
    up = ma.space.pomonoid.poset.up_rows
    below = [up[z] >> y & 1 for z in ma.column(x)]
    certificate = [b for b, ok in enumerate(below) if ok]
    if not certificate:
        raise NoResidual("no scalar sends x below y", witness=(pels[y], pels[x]))
    value = q.join_of(certificate)
    qels, qup = q.elements, q.pomonoid.poset.up_rows
    # the defining adjunction, scanned for every scalar
    if not below[value]:
        raise NoResidual("join of the certificate set escapes the bound",
                         witness=(qels[value], pels[x], pels[y]))
    for a, ok in enumerate(below):
        if qup[a] >> value & 1 != ok:
            raise NoResidual("adjunction fails",
                             witness=(qels[a], qels[value], pels[x], pels[y]))
    return value, certificate


def _residual_row(ma, u, n):
    """Positions of y/u for the n points y, or None when u is not dividing."""
    try:
        return [_residual_index(ma, y, u)[0] for y in range(n)]
    except NoResidual:
        return None


def _cyclic_row(ma, u):
    """(the points off the scalar orbit of the point at position u, its
    residual row when there are none) for a module on tables."""
    pels, n = ma.space.elements, len(ma.space.elements)
    times_u = ma.column(u)
    missing = [pels[x] for x in range(n) if x not in times_u]
    divided = None if missing else _residual_row(ma, u, n)
    # (x/u)*u = x on a full orbit; no (x/u)*u is a point off the orbit
    if not missing and [times_u[d] for d in divided or ()] != list(range(n)):
        raise ArithmeticError("orbit and residual characterizations of "
                              f"cyclicity disagree at u={pels[u]!r}")
    return missing, divided


def _gamma_index(ma, u, divided):
    """a -> (a * u)/u on positions from u's residual row; None without one."""
    return divided and [divided[z] for z in ma.column(u)]


def self_module(aqm, name=None):
    """The AQM acting on its own quantale sort by multiplication."""
    return ActionMap(MODULE, aqm, aqm.quant, aqm.mult,
                     name=name or f"{aqm.name}-self",
                     table=aqm.mult_op if aqm.is_finite else None)


def submodule_on_orbit(ma, u, name=None):
    """The submodule on the scalar orbit of u, for a module with finite
    scalars on a finite quantale (ActionMap.on_tables). An orbit that is not
    closed under + or the action, or that misses the zero, raises
    UnknownElement. The quantale on the orbit depends on the space and the
    orbit alone, so the space keeps it (see aqm.Derives)."""
    ma.require_tables()
    q, n = ma.space, len(ma.space.elements)
    orbit = tuple(sorted(set(ma.column(q.pomonoid.poset.index_of(u)))))
    labels = ",".join(q.elements[p] for p in orbit)
    sub = cut_module(ma, ("orbit", orbit), orbit, bytes(range(n)), (
        f"{q.name or 'quantale'}|orbit({labels})", name or f"{ma.name}*{u}"))
    check_action(sub)
    return sub


def gamma_u(u, ma):
    """Dividing report for u and, when dividing, the induced structural
    nucleus a -> (a*u)/u on the scalar quantale together with the verified
    isomorphism between the orbit module and the quotient; for a module on
    tables (any other raises TooLarge)."""
    ma.require_tables()
    rep = Report(f"gamma_u(u={u})")
    index_of = ma.space.pomonoid.poset.index_of
    ui, divided = index_of(u), []  # divided[y]: y/u at the point y
    for y, x in enumerate(ma.space.elements):
        try:
            divided.append(_residual_index(ma, y, ui)[0])
        except NoResidual as exc:
            raise NotDividing(f"residual missing at {x!r}", witness=x) from exc
    rep.data["dividing"] = True
    rep.note("u is dividing")

    nuc = Nucleus(ma.scalars.quant, tuple(_gamma_index(ma, ui, divided)))
    try:
        qm = quotient(self_module(ma.scalars), nuc)
    except NotStructural:
        rep.failed("gamma_u structural on the scalar quantale")
        return nuc, rep
    rep.passed("gamma_u is a structural nucleus on the scalar quantale")

    # orbit module A*u is isomorphic to the quotient by gamma_u (its image):
    # x -> x/u is a bijection onto it that a -> a*u inverts, and a module
    # homomorphism, so its inverse is one too
    orbit_mod = submodule_on_orbit(ma, u)
    orbit = bytes(map(index_of, orbit_mod.space.elements))
    fwd, image = bytes(map(divided.__getitem__, orbit)), sorted(set(nuc.values))
    iso_ok = (sorted(fwd) == image
              and fwd.translate(ma.column(ui).ljust(256, b"\0")) == orbit
              and hom_on_positions(bytes(map(image.index, fwd)), orbit_mod,
                                   qm.module))
    rep.verdict("orbit module isomorphic to scalar quotient", iso_ok,
                "via x->x/u and a->a*u")
    rep.data["nucleus"] = nuc
    return nuc, rep


def cyclic_check(am, u):
    """Is the action generated by the scalar orbit of u, at its level?

    Returns (bool, witness): the witness is an element outside the generated
    part when the answer is no. At module level over finite scalars the
    residual characterization (x/u)*u = x is cross-checked on a full orbit.
    """
    if am.level == ACT:
        closed = term_closure(am.space, ((am.star(a, u), f"{a}*u")
                                         for a in am.scalars.elements))
        missing = [x for x in am.space_universe() if x not in closed]
    elif am.on_tables:
        missing = _cyclic_row(am, am.space.pomonoid.poset.index_of(u))[0]
    elif am.level in (POSET, MODULE):  # the orbit scan
        orbit = set()
        for a in am.scalar_universe():
            try:
                orbit.add(am.star(a, u))
            except FragmentExceeded:
                pass
        missing = [x for x in am.space_universe() if x not in orbit]
    else:
        raise ValueError(am.level)
    return (not missing, missing[0] if missing else None)


def cyclic_projective_check(ma, lifting_family=None):
    """Evaluate conditions (ii)-(v) of the dividing-idempotent
    characterization independently, assert their mutual equivalence, and
    report shared witnesses. Condition (i), projectivity itself, is checked
    directly only when a lifting family is supplied, and a family can only
    refute it: when every lift exists but (ii) fails, the report notes (i)
    as inconclusive."""
    ma.require_tables()
    aqm = ma.scalars
    q = aqm.quant
    rep = Report(f"cyclic-projective {ma.name or 'module'}")
    selfm = self_module(aqm)  # a view on aqm.mult_op: nothing is compiled
    els, pels = q.elements, ma.space.elements
    m, n = len(els), len(pels)
    one = q.pomonoid.poset.index_of(aqm.one)

    idempotents = [u for u in range(m) if selfm.column(u)[u] == u]
    # cyclic points -> their residual rows, and (v, its position, gamma_v)
    gens = {w: row for w in range(n) if (row := _cyclic_row(ma, w)[1])}
    gammas = [(pels[vi], vi, _gamma_index(ma, vi, gens[vi])) for vi in gens]
    rep.note(f"idempotent scalars: {[els[u] for u in idempotents]}")
    rep.note(f"cyclic generators: {[pels[w] for w in gens]}")

    # the self-module's gammas depend on the AQM alone, so the AQM keeps them
    self_gammas = aqm.derive("self-gammas", lambda: [
        _gamma_index(selfm, u, _residual_row(selfm, u, m)) for u in range(m)])
    w2, w3, w4, w5 = [], [], [], []
    for u in range(m):  # ascending carrier order: minimal witnesses first
        gu = self_gammas[u]
        if gu is None:  # every condition needs u dividing in the self-module
            continue
        for w in gens if u in idempotents else ():
            # (ii): a * w -> a * u is an isomorphism onto A*u (see README)
            h = generator_image(ma, w, selfm, u)
            if (h is not None and len(set(h)) == n
                    and hom_on_positions(h, ma, selfm)):
                w2.append(els[u])
                break
        times_u = selfm.column(u)
        for v, vi, gv in gammas:
            if u in idempotents and gu == gv:
                w3.append((els[u], v))
            # (iv) and (v) share (a/v) * u = a * u for every scalar a:
            # gamma_v(a) is (a * v)/v
            if bytes(times_u[g] for g in gv) == times_u:
                if gv[u] == gv[one]:
                    w4.append((els[u], v))
                if ma.column(vi)[u] == vi:
                    w5.append((els[u], v))

    conds = {"ii": sorted(set(w2)), "iii": sorted(set(w3)),
             "iv": sorted(set(w4)), "v": sorted(set(w5))}
    truth = {k: bool(v) for k, v in conds.items()}
    for k in ("ii", "iii", "iv", "v"):
        if truth[k]:
            rep.passed(f"condition ({k})", f"witness {conds[k][0]}")
        else:
            rep.note(f"condition ({k}): no witness")
    rep.verdict("conditions (ii)-(v) mutually equivalent",
                len(set(truth.values())) == 1, f"all {truth['ii']}", truth)
    rep.data["conditions"] = truth
    rep.data["witnesses"] = conds
    if truth["iii"]:
        shared = sorted(set(conds["iii"]) & set(conds["iv"]) & set(conds["v"]))
        shared = [uv for uv in shared if uv[0] in conds["ii"]]
        if shared:
            rep.passed("shared witness across conditions", f"(u,v)={shared[0]}")
            rep.data["shared_witness"] = shared[0]
        else:
            rep.failed("shared witness across conditions")
    if lifting_family is not None:
        # a missing lift refutes projectivity, but lifts through a finite
        # family cannot prove it: only a missing lift while (ii) holds
        # contradicts the characterization
        lift_rep = lifting_check(ma, lifting_family)
        ok = rep.ok
        rep.merge(lift_rep)
        rep.ok = ok
        rep.data["lifting_ok"] = lift_rep.ok
        if lift_rep.ok and not truth["ii"]:
            rep.note("condition (i): inconclusive (every lift in the family "
                     "exists, and a finite family cannot prove projectivity)")
        else:
            rep.verdict("condition (i) agrees with (ii)-(v)",
                        lift_rep.ok == truth["ii"],
                        witness=(lift_rep.ok, truth))
    if not any(truth.values()):
        rep.data["exhausted"] = True
        rep.note("conditions (ii)-(v) fail: no dividing idempotent witness "
                 "(not a projectivity verdict unless lifting also ran)")
    return rep


# -- module homomorphisms ------------------------------------------------------


def enumerate_module_homs(src, dst):
    """All module homomorphisms between finite modules over one AQM, as
    label dicts, in the order of their value tuples."""
    els, dels = src.space.elements, dst.space.elements
    return [dict(zip(els, map(dels.__getitem__, h)))
            for h in map(bytes, product(range(len(dels)), repeat=len(els)))
            if hom_on_positions(h, src, dst)]


def find_lift(h, g, p, q):
    """The first module homomorphism k: p -> q, in the order of
    enumerate_module_homs, with g(k(x)) = h(x) for every x of p's carrier,
    or None when there is none."""
    for k in enumerate_module_homs(p, q):
        if all(g[k[x]] == h[x] for x in p.space.elements):
            return k
    return None


def lifting_check(p, family):
    """For each (g, h) with g: q ->> r surjective and h: p -> r, search all
    module homomorphisms p -> q for a lift through g.

    `family` is a list of at most 64 (g, q_module, r_module, h) tuples; use
    `exhaustive_family` to build one from a module list. The report records,
    per pair, the first lift found (deterministic enumeration order) or a
    NoLift verdict.
    """
    rep = Report(f"lifting {p.name or 'module'}")
    if len(family) > 64:
        raise TooLarge(f"{len(family)} lifting pairs > guard 64")
    for idx, (g, q_mod, r_mod, h) in enumerate(family):
        if not is_module_hom(g, q_mod, r_mod):
            raise NotAHomomorphism("surjection is not a module homomorphism",
                                   witness=sorted(g.items()))
        if set(g.values()) != set(r_mod.space.elements):
            raise NotAHomomorphism("map is not onto its codomain",
                                   witness=sorted(g.items()))
        if not is_module_hom(h, p, r_mod):
            raise NotAHomomorphism("candidate is not a module homomorphism",
                                   witness=sorted(h.items()))
        lift = find_lift(h, g, p, q_mod)
        label = f"pair {idx} ({q_mod.name}->>{r_mod.name})"
        if lift is None:
            rep.failed(label, witness=NoLift("no lift exists").args[0])
        else:
            rep.passed(label, f"lift {sorted(lift.items())}")
    rep.data["pairs"] = len(family)
    return rep


def exhaustive_family(p, modules, max_size=3):
    """Every surjection/hom pair among the given modules with carriers up to
    max_size, targeting lifts of p."""
    small = [m for m in modules if len(m.space.elements) <= max_size]
    to_r = [enumerate_module_homs(p, r_mod) for r_mod in small]
    return [(g, q_mod, r_mod, h) for q_mod in small
            for r_mod, homs in zip(small, to_r)
            for g in enumerate_module_homs(q_mod, r_mod)
            if set(g.values()) == set(r_mod.space.elements) for h in homs]
