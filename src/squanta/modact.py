"""Actions at the three levels of the hierarchy: pomonoids on posets,
pomonoids on quantales (acts), and additive quantales with multiplication on
quantales (modules), together with the extension and restriction functors
between them, module homomorphisms and those that generator images induce.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .aqm import (MODULE_LAWS, DmFragment, FinGenQuantale, free_action,
                  free_aqm, lift_to_downsets, scan_module_laws)
from .errors import IllDefined, TooLarge, UnitNotEmbedding, UnknownElement
from .multiupset import generator_embed, mleq
from .order import ByteTable, restrict_pomonoid
from .reporting import LawScan

__all__ = [
    "ActionMap",
    "check_action",
    "extend_poset_action_to_dm",
    "extend_act_to_module",
    "restrict_module_to_act",
    "is_module_hom",
    "hom_on_positions",
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

    def column(self, u):
        """a * x for every scalar a, as bytes: the positions of the products
        of the point x at position u, in scalar order (see star_op), each
        sliced once."""
        return self._columns[u]

    @cached_property
    def _columns(self):
        t, n = self.star_table(), len(self.space.elements)
        return [t[u::n] for u in range(n)]

    def require_tables(self):
        """Raise TooLarge unless the action is on tables (on_tables)."""
        if not self.on_tables:
            raise TooLarge("the action needs finite scalars on a finite "
                           "quantale", witness=self.name)

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
    frag = DmFragment(pa.space, k)
    star = lift_to_downsets(pa.space, pa.star)
    return ActionMap(ACT, pa.scalars, frag, star, name=f"DM({pa.name})" if pa.name else "DM-act")


def extend_act_to_module(aa, k=DmFragment.k):
    """Expand an act of a pomonoid on a quantale-sort space to a module over
    the free additive quantale with multiplication on that pomonoid.

    Requires the unit map of the scalars into the free quantale sort to be an
    order-embedding. The action is the free action the act generates
    (aqm.free_action), by the rule free_aqm's product follows: a multiset of
    scalars acts as the sum of its members' actions, a downset as the join
    over its maximal generators, and an action leaves a fragment space as
    soon as one of its partial sums does.
    """
    mon = aa.scalars
    for a, b in product(mon.elements, repeat=2):
        emb_le = mleq(generator_embed(mon.poset, a), generator_embed(mon.poset, b))
        if mon.leq(a, b) != emb_le:
            raise UnitNotEmbedding(
                "unit map of scalars is not an order-embedding", witness=(a, b)
            )
    return ActionMap(MODULE, free_aqm(mon, k), aa.space,
                     free_action(aa.space, aa.star),
                     name=f"Free({aa.name})" if aa.name else "free-module")


def restrict_module_to_act(ma):
    """Forgetful restriction along iota: distributive scalars act directly."""
    aqm = ma.scalars

    def star(d, x):
        return ma.star(aqm.iota(d), x)

    return ActionMap(ACT, aqm.dist, ma.space, star,
                     name=f"restrict({ma.name})" if ma.name else "restricted-act")


def cut_module(ma, key, positions, through, names):
    """The module on the points at the ascending `positions` of a module on
    tables, with a * x = through[a * x] and x + y = through[x + y] for the
    bytes `through` over the points (the identity for a submodule). The
    space keeps the quantale under `key` (aqm.Derives); `names` are the
    quantale's and the module's. A value outside the positions raises
    UnknownElement, a sum or the zero as in order.restrict_pomonoid."""
    q = ma.space
    els, index_of = q.elements, q.pomonoid.poset.index_of
    quant = q.derive(key, lambda: FinGenQuantale(restrict_pomonoid(
        q.pomonoid.poset, positions, q.plus_op.after(through),
        through[index_of(q.zero)]), names[0]))
    table = bytes(row[x] for row in ma.star_op().rows
                  for x in positions).translate(through.ljust(256, b"\0"))
    local = {p: k for k, p in enumerate(positions)}
    for z in table:
        if z not in local:  # outside the positions: raises UnknownElement
            quant.pomonoid.poset.index_of(els[z])
    return ActionMap(MODULE, ma.scalars, quant,
                     lambda a, x: els[through[index_of(ma.star(a, x))]],
                     name=names[1], table=bytes(map(local.__getitem__, table)))


def is_module_hom(h, src, dst):
    """h: dict mapping the src carrier into the dst carrier (hom_on_positions
    on labels); a map with a value outside the dst carrier gives False."""
    src.require_tables()
    dst.require_tables()
    els = src.space.elements
    if sorted(h) != sorted(els):
        return False
    try:
        hv = bytes(map(dst.space.pomonoid.poset.index_of, map(h.get, els)))
    except UnknownElement:
        return False
    return hom_on_positions(hv, src, dst)


def hom_on_positions(hv, src, dst):
    """Whether the map sending the point at position i of src to the point
    at position hv[i] of dst (bytes) is a module homomorphism, for modules
    with finite scalars on finite quantales (ActionMap.on_tables); raises
    TooLarge for any other action. Modules over different scalar carriers
    and an action that leaves its own carrier give False: there is no
    homomorphism."""
    src.require_tables()
    dst.require_tables()
    if src.scalars.quant.elements != dst.scalars.quant.elements:
        return False
    p, r = src.space, dst.space
    try:
        src_star, dst_star = src.star_op(), dst.star_op()
    except UnknownElement:
        return False
    zero = p.pomonoid.poset.index[p.zero]
    # h carries join, + and zero to those of dst, and a * x to a * h(x)
    return (p.join_op.after(hv) == r.join_op.pairs(hv)
            and p.plus_op.after(hv) == r.plus_op.pairs(hv)
            and hv[zero] == r.pomonoid.poset.index[r.zero]
            and src_star.after(hv) == dst_star.each(hv))


def generator_image(src, u, dst, w):
    """The map a * u -> a * w from column u of src's star table to column w
    of dst's, for modules on tables over one scalar carrier: the position
    in dst of each point's image, as bytes. None when it is not well
    defined or a point of src is not a * u for any scalar a."""
    n = len(src.space.elements)
    pairs = set(zip(src.column(u), dst.column(w)))
    h = dict(pairs)
    return bytes(map(h.get, range(n))) if len(h) == len(pairs) == n else None


def hom_from_generator_image(p_mod, u, q_mod, w):
    """The module homomorphism a * u -> a * w (generator_image, on labels).
    IllDefined gives the first scalars (b, a) with b * u = a * u, b * w !=
    a * w, or the first point not a * u, or the map if it is no hom."""
    p_mod.require_tables()
    q_mod.require_tables()
    p, q, scalars = p_mod.space, q_mod.space, p_mod.scalars.quant.elements
    if scalars != q_mod.scalars.quant.elements:
        raise IllDefined("modules over different scalar carriers",
                         witness=(p_mod.name, q_mod.name))
    ui, wi = p.pomonoid.poset.index_of(u), q.pomonoid.poset.index_of(w)
    h = generator_image(p_mod, ui, q_mod, wi)
    if h is None:
        times_u, times_w = p_mod.column(ui), q_mod.column(wi)
        for a, x in enumerate(times_u):
            b = times_u.index(x)
            if times_w[b] != times_w[a]:
                raise IllDefined("generator image does not induce a map",
                                 witness=(scalars[b], scalars[a]))
        raise IllDefined("module is not u-cyclic", witness=next(
            x for i, x in enumerate(p.elements) if i not in times_u))
    images = dict(zip(p.elements, map(q.elements.__getitem__, h)))
    if not hom_on_positions(h, p_mod, q_mod):
        raise IllDefined("induced map is not a module homomorphism",
                         witness=sorted(images.items()))
    return images
