"""Actions at the three levels of the hierarchy: pomonoids on posets,
pomonoids on quantales (acts), and additive quantales with multiplication on
quantales (modules), together with the extension and restriction functors
between them, module homomorphisms and those that generator images induce.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import product

from .aqm import (MODULE_LAWS, DmFragment, FinGenQuantale, free_aqm,
                  lift_to_downsets, scan_module_laws)
from .downset import MultiBase
from .errors import (FragmentExceeded, IllDefined, TooLarge, UnitNotEmbedding,
                     UnknownElement)
from .multiupset import generator_embed, mleq
from .order import ByteTable
from .reporting import LawScan

__all__ = [
    "ActionMap",
    "check_action",
    "extend_poset_action_to_dm",
    "extend_act_to_module",
    "restrict_module_to_act",
    "is_module_hom",
    "generator_image",
    "hom_from_generator_image",
]

POSET, ACT, MODULE = "poset", "act", "module"


@dataclass
class ActionMap:
    """An action star(scalar, point) at a declared level of structure.

    scalars: Pomonoid (poset/act level) or AQM (module level).
    space:   FinPoset (poset level) or FinGenQuantale / DmFragment.
    Universes for law scans default to full carriers; fragment spaces use
    their bounded enumerations. `table`, when given, is the star table (see
    `star_op`) of `star`, as a structure derived from tables passes it.
    """

    level: str
    scalars: object
    space: object
    star: object
    name: str = ""
    table: object = field(default=None, compare=False, repr=False)

    @property
    def on_tables(self):
        """Whether this is a module action with finite scalars on a finite
        quantale, the kind of action `star_op` compiles."""
        return (self.level == MODULE and self.scalars.is_finite
                and isinstance(self.space, FinGenQuantale))

    def star_op(self):
        """The action as a ByteTable: a * x = z when star_table()[i * n + j]
        = k for the positions i of a among the scalars and j, k of x, z among
        the n points. Compiled on first use, from `table` when given."""
        if self.table is None:
            index_of = self.space.pomonoid.poset.index_of
            self.table = [index_of(self.star(a, x))
                          for a in self.scalars.quant.elements
                          for x in self.space.elements]
        if not isinstance(self.table, ByteTable):
            self.table = ByteTable(self.table, len(self.space.elements))
        return self.table

    def star_table(self):  # the bytes of star_op
        return self.star_op().flat

    def scalar_universe(self):
        if self.level == MODULE:
            if self.scalars.is_finite:
                return list(self.scalars.quant.elements)
            return self.scalars.quant.enumerate(
                self.scalars.quant.scan_bounds())
        return list(self.scalars.elements)

    def space_universe(self):
        if isinstance(self.space, DmFragment):
            return self.space.enumerate(self.space.scan_bounds())
        return list(self.space.elements)

    def iota_scalars(self):
        """The distributive scalars, as quantale-sort elements."""
        return [self.scalars.iota(d) for d in self.scalars.dist.elements]


def check_action(am, strict=True):
    """Verify the law set appropriate to the action's level, exhaustively on
    finite carriers and over the bounded fragment otherwise. Poset actions
    and acts scan the laws they share first, then each level's own."""
    rep = LawScan(f"action {am.name or am.level}".strip(), strict=strict)
    check, leq = rep.check, am.space.leq
    scalars = am.scalar_universe()
    points = am.space_universe()
    star = am.star

    if am.level == MODULE:
        scan_module_laws(rep, am.scalars, am.space, star, scalars, points,
                         [(i, i) for i in am.iota_scalars()],
                         am.star_op() if am.on_tables else None,
                         MODULE_LAWS)
    elif am.level in (POSET, ACT):
        mon, sp = am.scalars, am.space
        for x in points:
            check("unit", x, lambda: (star(mon.unit, x), x))
        for a, b in product(scalars, repeat=2):
            for x in points:
                check("compose", (a, b, x),
                      lambda: (star(mon.apply(a, b), x), star(a, star(b, x))))
        for a, b in product(scalars, repeat=2):
            if mon.leq(a, b):
                for x in points:
                    check("scalar-monotone", (a, b, x),
                          lambda: (star(a, x), star(b, x)), leq)
        if am.level == POSET:
            for x, y in product(points, repeat=2):
                if leq(x, y):
                    for a in scalars:
                        check("point-monotone", (a, x, y),
                              lambda: (star(a, x), star(a, y)), leq)
        else:
            for a in scalars:
                for x in points:
                    check("zero", (a, x), lambda: (star(a, sp.zero), sp.zero))
                for x, y in product(points, repeat=2):
                    check("join-dist", (a, x, y),
                          lambda: (star(a, sp.join([x, y])),
                                   sp.join([star(a, x), star(a, y)])))
                    check("plus-dist", (a, x, y),
                          lambda: (star(a, sp.plus(x, y)),
                                   sp.plus(star(a, x), star(a, y))))
    else:
        raise ValueError(f"unknown action level {am.level!r}")

    scope = f"{len(scalars)} scalars x {len(points)} points"
    if isinstance(am.space, DmFragment):
        k, width = am.space.scan_bounds()
        scope += f"; fragment scope: multiplicity<={k}, antichain<={width}"
    if rep.skipped:
        scope += f", {rep.skipped} instances left the fragment"
    rep.note(f"scanned {rep.checked} instances ({scope}): "
             + ("all laws hold" if rep.ok else "violations found"))
    rep.data.update(checked=rep.checked, skipped=rep.skipped)
    return rep


def extend_poset_action_to_dm(pa, k=DmFragment.k):
    """Lift a poset-level action to the downset fragment over the space:
    scalars act elementwise on generator multisets, then on maximal
    generators of a downset, followed by normalization. Each lifted value is
    computed once per fragment."""
    check_action(pa)
    frag = DmFragment(MultiBase(pa.space), k)
    star = lift_to_downsets(frag.base, pa.star)
    return ActionMap(ACT, pa.scalars, frag, star, name=f"DM({pa.name})" if pa.name else "DM-act")


def extend_act_to_module(aa, k=DmFragment.k):
    """Expand an act of a pomonoid on a quantale-sort space to a module over
    the free additive quantale with multiplication on that pomonoid.

    Requires the unit map of the scalars into the free quantale sort to be an
    order-embedding. A multiset of scalars acts as the sum of its members'
    actions; a downset of multisets acts as the join over its maximal
    generators. Both are computed once per pair of arguments. A sum that
    leaves a fragment space is kept too, and raises FragmentExceeded again,
    through the space's bound check, on every later call.
    """
    mon = aa.scalars
    for a, b in product(mon.elements, repeat=2):
        emb_le = mleq(generator_embed(mon.poset, a), generator_embed(mon.poset, b))
        if mon.leq(a, b) != emb_le:
            raise UnitNotEmbedding(
                "unit map of scalars is not an order-embedding", witness=(a, b)
            )
    aqm = free_aqm(mon, k)
    sp = aa.space

    @cache
    def summed(sigma, x):
        acc = sp.zero
        try:
            for a in sigma.gens:
                acc = sp.plus(acc, aa.star(a, x))
        except FragmentExceeded as exc:
            return exc.witness, True  # the sum that left the fragment
        return acc, False

    def multiset_star(sigma, x):
        acc, left = summed(sigma, x)
        return sp.check_bound(acc) if left else acc

    @cache
    def star(scalar, x):
        return sp.join([multiset_star(sigma, x) for sigma in scalar.maxgens])

    ma = ActionMap(MODULE, aqm, sp, star,
                   name=f"Free({aa.name})" if aa.name else "free-module")
    ma.multiset_star = multiset_star
    return ma


def restrict_module_to_act(ma):
    """Forgetful restriction along iota: distributive scalars act directly."""
    aqm = ma.scalars

    def star(d, x):
        return ma.star(aqm.iota(d), x)

    return ActionMap(ACT, aqm.dist, ma.space, star,
                     name=f"restrict({ma.name})" if ma.name else "restricted-act")


def is_module_hom(h, src, dst):
    """h: dict mapping the src carrier into the dst carrier, for modules with
    finite scalars on finite quantales (ActionMap.on_tables); raises
    TooLarge for any other action. Modules over different scalar carriers,
    a map with a value outside the dst carrier and an action that leaves its
    own carrier give False: there is no homomorphism."""
    if not (src.on_tables and dst.on_tables):
        raise TooLarge("module homomorphisms need finite scalars on finite "
                       "quantales", witness=(src.name, dst.name))
    if src.scalars.quant.elements != dst.scalars.quant.elements:
        return False
    p, r = src.space, dst.space
    els = p.elements
    if sorted(h) != sorted(els):
        return False
    index_of = r.pomonoid.poset.index_of
    try:
        hv = bytes(index_of(h[x]) for x in els)
        src_star, dst_star = src.star_op(), dst.star_op()
    except UnknownElement:
        return False
    # h carries join, + and zero to those of dst, and a * x to a * h(x)
    return (p.join_op.after(hv) == r.join_op.pairs(hv)
            and p.plus_op.after(hv) == r.plus_op.pairs(hv)
            and hv[p.pomonoid.poset.index_of(p.zero)] == index_of(r.zero)
            and src_star.after(hv) == dst_star.each(hv))


def generator_image(src, u, dst, w):
    """The map a * u -> a * w from column u of src's star table to column w
    of dst's, for modules on tables over one scalar carrier: the position
    in dst of each point's image, as bytes. None when it is not well
    defined or a point of src is not a * u for any scalar a."""
    n = len(src.space.elements)
    pairs = set(zip(src.star_table()[u::n],
                    dst.star_table()[w::len(dst.space.elements)]))
    h = dict(pairs)
    return bytes(map(h.get, range(n))) if len(h) == len(pairs) == n else None


def hom_from_generator_image(p_mod, u, q_mod, w):
    """The module homomorphism a * u -> a * w (generator_image, on labels).
    IllDefined gives the first scalars (b, a) with b * u = a * u, b * w !=
    a * w, or the first point not a * u, or the map if it is no hom."""
    if not (p_mod.on_tables and q_mod.on_tables):
        raise TooLarge("module homomorphisms need finite scalars on finite "
                       "quantales", witness=(p_mod.name, q_mod.name))
    p, q, scalars = p_mod.space, q_mod.space, p_mod.scalars.quant.elements
    if scalars != q_mod.scalars.quant.elements:
        raise IllDefined("modules over different scalar carriers",
                         witness=(p_mod.name, q_mod.name))
    ui, wi = p.pomonoid.poset.index_of(u), q.pomonoid.poset.index_of(w)
    h = generator_image(p_mod, ui, q_mod, wi)
    if h is None:
        times_u = p_mod.star_table()[ui::len(p.elements)]
        times_w = q_mod.star_table()[wi::len(q.elements)]
        for a, x in enumerate(times_u):
            b = times_u.index(x)
            if times_w[b] != times_w[a]:
                raise IllDefined("generator image does not induce a map",
                                 witness=(scalars[b], scalars[a]))
        raise IllDefined("module is not u-cyclic", witness=next(
            x for i, x in enumerate(p.elements) if i not in times_u))
    images = dict(zip(p.elements, map(q.elements.__getitem__, h)))
    if not is_module_hom(images, p_mod, q_mod):
        raise IllDefined("induced map is not a module homomorphism",
                         witness=sorted(images.items()))
    return images
