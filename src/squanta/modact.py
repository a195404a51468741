"""Actions at the three levels of the hierarchy: pomonoids on posets,
pomonoids on quantales (acts), and additive quantales with multiplication on
quantales (modules), together with the extension and restriction functors
between them.
"""

from dataclasses import dataclass, field
from functools import cache
from itertools import product

from .aqm import DmFragment, FinGenQuantale, free_aqm, lift_to_downsets
from .downset import MultiBase
from .errors import FragmentExceeded, UnitNotEmbedding
from .multiupset import generator_embed, mleq
from .order import ByteTable, FinPoset
from .reporting import LawScan

__all__ = [
    "ActionMap",
    "check_action",
    "extend_poset_action_to_dm",
    "extend_act_to_module",
    "restrict_module_to_act",
]

POSET, ACT, MODULE = "poset", "act", "module"


@dataclass
class ActionMap:
    """An action star(scalar, point) at a declared level of structure.

    scalars: Pomonoid (poset/act level) or AQM (module level).
    space:   FinPoset (poset level) or FinGenQuantale / DmFragment.
    Universes for law scans default to full carriers; fragment spaces use
    their bounded enumerations. `table`, when given, is the star table (see
    `star_table`) of `star`, as a structure derived from tables passes it.
    """

    level: str
    scalars: object
    space: object
    star: object
    name: str = ""
    table: tuple = field(default=None, compare=False, repr=False)

    @property
    def on_tables(self):
        """Whether this is a module action with finite scalars on a finite
        quantale, the kind of action `star_table` compiles."""
        return (self.level == MODULE and self.scalars.is_finite
                and isinstance(self.space, FinGenQuantale))

    def star_table(self):
        """The action as a flat table over element positions: a * x = z when
        table[i * n + j] = k for the positions i of a among the scalars and
        j, k of x, z among the n points. Built on the first call, unless
        given; module actions with finite scalars on a finite quantale
        only."""
        if self.table is None:
            index_of = self.space.pomonoid.poset.index_of
            self.table = tuple(index_of(self.star(a, x))
                               for a in self.scalars.quant.elements
                               for x in self.space.elements)
        return self.table

    def scalar_universe(self):
        if self.level == MODULE:
            if self.scalars.is_finite:
                return list(self.scalars.quant.elements)
            return self.scalars.quant.enumerate(
                self.scalars.quant.scan_bounds())
        return list(self.scalars.elements)

    def space_universe(self):
        if isinstance(self.space, FinPoset):
            return list(self.space.elements)
        if isinstance(self.space, DmFragment):
            return self.space.enumerate(self.space.scan_bounds())
        return list(self.space.elements)

    def iota_scalars(self):
        """The distributive scalars, as quantale-sort elements."""
        return [self.scalars.iota(d) for d in self.scalars.dist.elements]


def check_action(am, strict=True):
    """Verify the law set appropriate to the action's level, exhaustively on
    finite carriers and over the bounded fragment otherwise."""
    rep = LawScan(f"action {am.name or am.level}".strip(), strict=strict)
    check, leq = rep.check, am.space.leq
    scalars = am.scalar_universe()
    points = am.space_universe()
    star = am.star

    if am.on_tables:
        _scan_module_table(am, rep)
    elif am.level == POSET:
        mon = am.scalars
        for x in points:
            check("unit", x, lambda: (star(mon.unit, x), x))
        for a, b in product(mon.elements, repeat=2):
            for x in points:
                check("compose", (a, b, x),
                      lambda: (star(mon.apply(a, b), x), star(a, star(b, x))))
        for a, b in product(mon.elements, repeat=2):
            if mon.leq(a, b):
                for x in points:
                    check("scalar-monotone", (a, b, x),
                          lambda: (star(a, x), star(b, x)), leq)
        for x, y in product(points, repeat=2):
            if leq(x, y):
                for a in mon.elements:
                    check("point-monotone", (a, x, y),
                          lambda: (star(a, x), star(a, y)), leq)
    elif am.level == ACT:
        mon = am.scalars
        sp = am.space
        for x in points:
            check("unit", x, lambda: (star(mon.unit, x), x))
            for a in mon.elements:
                check("zero", (a, x), lambda: (star(a, sp.zero), sp.zero))
        for a, b in product(mon.elements, repeat=2):
            for x in points:
                check("compose", (a, b, x),
                      lambda: (star(mon.apply(a, b), x), star(a, star(b, x))))
        for a in mon.elements:
            for x, y in product(points, repeat=2):
                check("join-dist", (a, x, y),
                      lambda: (star(a, sp.join([x, y])),
                               sp.join([star(a, x), star(a, y)])))
                check("plus-dist", (a, x, y),
                      lambda: (star(a, sp.plus(x, y)),
                               sp.plus(star(a, x), star(a, y))))
        for a, b in product(mon.elements, repeat=2):
            if mon.leq(a, b):
                for x in points:
                    check("scalar-monotone", (a, b, x),
                          lambda: (star(a, x), star(b, x)), leq)
    elif am.level == MODULE:  # fragment scalars or space
        a_ = am.scalars
        sp = am.space
        q = a_.quant
        for x in points:
            check("unit", x, lambda: (star(a_.one, x), x))
            check("zero-scalar", x, lambda: (star(q.zero, x), sp.zero))
        for s, t in product(scalars, repeat=2):
            for x in points:
                check("compose", (s, t, x),
                      lambda: (star(a_.mult(s, t), x), star(s, star(t, x))))
                check("scalar-plus", (s, t, x),
                      lambda: (star(q.plus(s, t), x),
                               sp.plus(star(s, x), star(t, x))))
                check("scalar-join", (s, t, x),
                      lambda: (star(q.join([s, t]), x),
                               sp.join([star(s, x), star(t, x)])))
        for i in am.iota_scalars():
            for x, y in product(points, repeat=2):
                check("iota-join-dist", (i, x, y),
                      lambda: (star(i, sp.join([x, y])),
                               sp.join([star(i, x), star(i, y)])))
                check("iota-plus-dist", (i, x, y),
                      lambda: (star(i, sp.plus(x, y)),
                               sp.plus(star(i, x), star(i, y))))
            check("iota-zero", i, lambda: (star(i, sp.zero), sp.zero))
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


def _scan_module_table(am, rep):
    """The module laws of an action on tables (see ActionMap.star_table),
    into the report `rep` of check_action: each instance in the order, and
    with the witness, of a scan over the labels, and counted as checked by
    LawScan.rows.

    Each law is checked in blocks of instances, as two byte rows
    (order.ByteTable), so only a failing block is walked."""
    a_, sp = am.scalars, am.space
    q = a_.quant
    sels, pels = q.elements, sp.elements
    m, n = len(sels), len(pels)
    star = ByteTable(am.star_table(), n)
    st, by_x = star.rows, star.transposed()  # by_x[x, t] = t * x
    mult, splus, sjoin = (ByteTable(t, m).rows for t in (
        a_.mult_table(), q.plus_table, q.join_table))
    pplus, pjoin = (ByteTable(t, n) for t in (sp.plus_table, sp.join_table))
    s_index, p_index = q.pomonoid.poset.index_of, sp.pomonoid.poset.index_of
    zero = p_index(sp.zero)
    rep.rows([
        ("unit", st[s_index(a_.one)], bytes(range(n))),
        ("zero-scalar", st[s_index(q.zero)], bytes([zero]) * n),
    ], pels.__getitem__)
    for s in range(m):  # instance (s, t, x) at x * m + t
        rep.rows([
            ("compose", by_x.each(mult[s]), by_x.after(st[s])),
            ("scalar-plus", by_x.each(splus[s]), pplus.at(st[s], by_x.rows)),
            ("scalar-join", by_x.each(sjoin[s]), pjoin.at(st[s], by_x.rows)),
        ], lambda j: (sels[s], sels[j % m], pels[j // m]),
            lambda j: (j % m, j // m))
    for i in am.iota_scalars():
        si = st[s_index(i)]
        rep.rows([  # instance (i, x, y) at x * n + y
            ("iota-join-dist", pjoin.after(si), pjoin.pairs(si)),
            ("iota-plus-dist", pplus.after(si), pplus.pairs(si)),
        ], lambda j: (i, pels[j // n], pels[j % n]))
        rep.rows([("iota-zero", si[zero:zero + 1], bytes([zero]))],
                 lambda j: i)


def extend_poset_action_to_dm(pa, k=4, antichain_bound=3):
    """Lift a poset-level action to the downset fragment over the space:
    scalars act elementwise on generator multisets, then on maximal
    generators of a downset, followed by normalization. Each lifted value is
    computed once per fragment."""
    check_action(pa)
    frag = DmFragment(MultiBase(pa.space), k, antichain_bound)
    star = lift_to_downsets(frag.base, pa.star)
    return ActionMap(ACT, pa.scalars, frag, star, name=f"DM({pa.name})" if pa.name else "DM-act")


def extend_act_to_module(aa, k=4, antichain_bound=3):
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
    aqm = free_aqm(mon, k, antichain_bound)
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
