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
from .modact import (ACT, MODULE, POSET, ActionMap, check_action,
                     generator_image, is_module_hom)
from .nucleus import nucleus, quotient
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
    "enumerate_surjective_homs",
    "exhaustive_family",
]


@dataclass
class ResidualResult:
    value: object
    certificate: tuple
    fragment_limited: bool = False


def residual(y, x, ma):
    """Largest scalar sending x below y; exact on finite scalar carriers,
    best-within-fragment otherwise."""
    if ma.on_tables:
        index_of = ma.space.pomonoid.poset.index_of
        value, certificate = _residual_index(ma, index_of(y), index_of(x))
        els = ma.scalars.quant.elements
        return ResidualResult(els[value], tuple(els[b] for b in certificate))
    certificate = []  # fragment scalars: the best value within the scan
    for b in ma.scalar_universe():
        try:
            if ma.space.leq(ma.star(b, x), y):
                certificate.append(b)
        except FragmentExceeded:
            pass
    if not certificate:
        raise NoResidual("no scalar sends x below y", witness=(y, x))
    return ResidualResult(ma.scalars.quant.join(certificate),
                          tuple(certificate), True)


def _residual_index(ma, y, x):
    """y/x over element positions on a module on tables (see
    ActionMap.star_table): the position of the residual among the scalars
    and the positions of the scalars b with b * x <= y. Raises NoResidual
    as `residual` does."""
    q, pels = ma.scalars.quant, ma.space.elements
    up = ma.space.pomonoid.poset.up_rows
    below = [up[z] >> y & 1 for z in ma.star_table()[x::len(pels)]]
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


def _gamma_index(ma, u):
    """a -> (a * u)/u over element positions, for the point at position u
    of a module on tables; None when u is not dividing."""
    n = len(ma.space.elements)
    try:
        divided = [_residual_index(ma, y, u)[0] for y in range(n)]
    except NoResidual:
        return None
    return [divided[z] for z in ma.star_table()[u::n]]


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
    if not ma.on_tables:
        raise TooLarge("orbit submodules need finite scalars on a finite "
                       "quantale", witness=ma.name)
    q = ma.space
    poset = q.pomonoid.poset
    n, star, plus = len(q.elements), ma.star_table(), q.plus_table
    orbit = tuple(sorted(set(star[poset.index_of(u)::n])))
    quant = q.derive(("orbit", orbit), lambda: q.restrict(
        orbit, lambda i, j: plus[i * n + j], poset.index_of(q.zero),
        name=f"{q.name or 'quantale'}|orbit"
             f"({','.join(q.elements[p] for p in orbit)})"))
    local = {p: k for k, p in enumerate(orbit)}
    table = [row[x] for row in ma.star_op().rows for x in orbit]
    for z in table:
        if z not in local:  # outside the orbit: raises UnknownElement
            quant.pomonoid.poset.index_of(q.elements[z])
    sub = ActionMap(MODULE, ma.scalars, quant, ma.star,
                    name=name or f"{ma.name}*{u}",
                    table=tuple(map(local.__getitem__, table)))
    check_action(sub)
    return sub


def gamma_u(u, ma):
    """Dividing report for u and, when dividing over finite scalars, the
    induced structural nucleus a -> (a*u)/u on the scalar quantale together
    with the verified isomorphism between the orbit module and the quotient.
    """
    rep = Report(f"gamma_u(u={u})")
    aqm = ma.scalars
    results = {}
    for x in ma.space_universe():
        try:
            results[x] = residual(x, u, ma)
        except NoResidual as exc:
            raise NotDividing(f"residual missing at {x!r}", witness=x) from exc
    limited = any(r.fragment_limited for r in results.values())
    rep.data["dividing"] = True
    rep.data["fragment_limited"] = limited
    rep.note("u is dividing" + (" (fragment scope)" if limited else ""))
    if limited:
        return None, rep

    q = aqm.quant
    table = {a: residual(ma.star(a, u), u, ma).value for a in q.elements}
    nuc = nucleus(q, table)
    try:
        qm = quotient(self_module(aqm), nuc)
    except NotStructural:
        rep.failed("gamma_u structural on the scalar quantale")
        return nuc, rep
    rep.passed("gamma_u is a structural nucleus on the scalar quantale")

    # orbit module A*u is isomorphic to the quotient by gamma_u
    orbit_mod = submodule_on_orbit(ma, u)
    fwd = {x: results[x].value for x in orbit_mod.space.elements}  # x -> x/u
    bwd = {a: ma.star(a, u) for a in qm.module.space.elements}     # a -> a*u
    iso_ok = all(bwd[fwd[x]] == x for x in orbit_mod.space.elements) and all(
        fwd[bwd[a]] == a for a in qm.module.space.elements
    )
    iso_ok = iso_ok and is_module_hom(fwd, orbit_mod, qm.module)
    iso_ok = iso_ok and is_module_hom(bwd, qm.module, orbit_mod)
    rep.verdict("orbit module isomorphic to scalar quotient", iso_ok,
                "via x->x/u and a->a*u")
    rep.data["nucleus"] = nuc
    return nuc, rep


def cyclic_check(am, u):
    """Is the action generated by the scalar orbit of u, at its level?

    Returns (bool, witness): the witness is an element outside the generated
    part when the answer is no. At module level over finite scalars the
    residual characterization (x/u)*u = x is cross-checked when u divides.
    """
    if am.level == ACT:
        closed = term_closure(am.space, ((am.star(a, u), f"{a}*u")
                                         for a in am.scalars.elements))
        missing = [x for x in am.space_universe() if x not in closed]
    elif am.on_tables:
        n = len(am.space.elements)
        ui = am.space.pomonoid.poset.index_of(u)
        times_u = am.star_table()[ui::n]  # a * u for every scalar a
        missing = [x for i, x in enumerate(am.space.elements)
                   if i not in times_u]
        try:
            ok = all(times_u[_residual_index(am, x, ui)[0]] == x
                     for x in range(n))
        except NoResidual:
            ok = False
        # the orbit against the residual characterization (x/u)*u = x
        if ok != (not missing):
            raise ArithmeticError(
                f"orbit and residual characterizations of cyclicity "
                f"disagree at u={u!r}"
            )
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
    aqm = ma.scalars
    if not aqm.is_finite:
        raise TooLarge("characterization check needs finite scalars")
    q = aqm.quant
    rep = Report(f"cyclic-projective {ma.name or 'module'}")
    selfm = self_module(aqm)  # a view on aqm.mult_op: nothing is compiled
    els, pels = q.elements, ma.space.elements
    m, n = len(els), len(pels)
    mult, star = aqm.mult_op.rows, ma.star_table()
    one = q.pomonoid.poset.index_of(aqm.one)

    idempotents = [u for u in range(m) if mult[u][u] == u]
    gens = [w for w in range(n) if cyclic_check(ma, pels[w])[0]]
    rep.note(f"idempotent scalars: {[els[u] for u in idempotents]}")
    rep.note(f"cyclic generators: {[pels[w] for w in gens]}")
    # (v, its position, gamma_v) for every dividing cyclic v
    gammas = [(pels[vi], vi, gv) for vi in gens
              if (gv := _gamma_index(ma, vi)) is not None]

    # the self-module's gammas depend on the AQM alone, so the AQM keeps them
    self_gammas = aqm.derive("self-gammas", lambda: [
        _gamma_index(selfm, u) for u in range(m)])
    w2, w3, w4, w5 = [], [], [], []
    for u in range(m):  # ascending carrier order: minimal witnesses first
        gu = self_gammas[u]
        if gu is None:  # every condition needs u dividing in the self-module
            continue
        for w in gens if u in idempotents else ():
            # (ii): a * w -> a * u is an isomorphism onto A*u (see README)
            h = generator_image(ma, w, selfm, u)
            if h is not None and len(set(h)) == n and is_module_hom(
                    dict(zip(pels, map(els.__getitem__, h))), ma, selfm):
                w2.append(els[u])
                break
        times_u = [row[u] for row in mult]  # a * u for every scalar a
        for v, vi, gv in gammas:
            if u in idempotents and gu == gv:
                w3.append((els[u], v))
            # (iv) and (v) share (a/v) * u = a * u for every scalar a:
            # gamma_v(a) is (a * v)/v
            if [mult[g][u] for g in gv] == times_u:
                if gv[u] == gv[one]:
                    w4.append((els[u], v))
                if star[u * n + vi] == vi:
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
    """All module homomorphisms between finite modules over one AQM."""
    els = src.space.elements
    out = []
    for values in product(dst.space.elements, repeat=len(els)):
        h = dict(zip(els, values))
        if is_module_hom(h, src, dst):
            out.append(h)
    return out


def enumerate_surjective_homs(src, dst):
    return [
        h
        for h in enumerate_module_homs(src, dst)
        if set(h.values()) == set(dst.space.elements)
    ]


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
    family = []
    small = [m for m in modules if len(m.space.elements) <= max_size]
    for q_mod in small:
        for r_mod in small:
            for g in enumerate_surjective_homs(q_mod, r_mod):
                for h in enumerate_module_homs(p, r_mod):
                    family.append((g, q_mod, r_mod, h))
    return family
