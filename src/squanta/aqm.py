"""Generalized quantales, additive quantales with multiplication, and the
two canonical ways of producing them: the endomorphism construction over a
finite quantale, and the free construction over the downset fragment of a
multiplicative pomonoid.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import and_

from .downset import djoin, dleq, dsum, dzero, normalize, unit_embed
from .errors import (
    FragmentExceeded,
    LawViolated,
    NotAssociative,
    NotMonotone,
    TooLarge,
    UnitNotNeutral,
    UnknownElement,
)
from .multiupset import Multiupset, enumerate_fragment, mleq
from .order import (
    ByteTable,
    FinPoset,
    Pomonoid,
    flat_from_triples,
    join_positions,
    pointwise_rows,
    pomonoid_from_flat,
    poset_from_rows,
    restrict_pomonoid,
    validate_structure,
)
from .reporting import LawScan

__all__ = [
    "FinGenQuantale",
    "make_quantale",
    "AQM",
    "table_aqm",
    "check_aqm",
    "scan_module_laws",
    "exp_end",
    "EXP_END_MAX_SIZE",
    "DmFragment",
    "free_aqm",
    "free_action",
    "lift_to_downsets",
    "term_closure",
]


class Derives:
    """A structure that keeps what is derived from it alone in `derived`,
    for its lifetime (see `derive`)."""

    def derive(self, key, build):
        """The structure `key` derived from this one alone: build() on the
        first call, and the same object on every later one. Nothing is kept
        when build() raises."""
        if key not in self.derived:
            self.derived[key] = build()
        return self.derived[key]


class FinGenQuantale(Derives):
    """Finite-carrier generalized quantale: an additive pomonoid in which all
    non-empty joins exist and distribute over the sum on both sides.

    `plus_op` (the pomonoid's table) and `join_op` hold + and join as
    ByteTables, `plus_table` and `join_table` their bytes (Pomonoid.flat);
    its quotient and orbit quantales are kept in `derived` (Derives.derive)."""

    def __init__(self, pomonoid: Pomonoid, name=""):
        self.pomonoid = pomonoid
        self.name = name
        self.derived = {}
        poset = pomonoid.poset
        self.elements = els = poset.elements
        up = poset.up_rows
        n = len(els)
        join = join_positions(up)
        if None in join:
            x, y = divmod(join.index(None), n)
            raise LawViolated("join-exists", witness=(els[x], els[y]))
        self.plus_op, self.join_op = p, j = pomonoid.table, ByteTable(join, n)
        self.plus_table, self.join_table = p.flat, j.flat
        left, right = p.rows, p.transposed().rows
        LawScan("quantale").rows([  # instance (x, y, z) at (x * n + y) * n + z
            ("join-dist-left", b"".join(map(j.after, left)),
             b"".join(map(j.pairs, left))),
            ("join-dist-right", b"".join(map(j.after, right)),
             b"".join(map(j.pairs, right))),
        ], lambda i: (els[i // n // n], els[i // n % n], els[i % n]))
        full = (1 << n) - 1  # the bottom's up-set
        self.bottom = els[up.index(full)] if full in up else None
        self.complete = self.bottom is not None

    @property
    def zero(self):
        return self.pomonoid.unit

    def leq(self, x, y):
        return self.pomonoid.leq(x, y)

    def plus(self, x, y):
        return self.pomonoid.apply(x, y)

    def join(self, xs):
        return self.elements[self.join_of(map(self.pomonoid.poset.index_of, xs))]

    def join_of(self, positions):
        """The position of the join of the elements at `positions`, folded
        through join_table; the bottom's for none, which raises
        LawViolated("empty-join") when there is no bottom."""
        join, n, z = self.join_table, len(self.elements), None
        for y in positions:
            z = y if z is None else join[z * n + y]
        if z is not None:
            return z
        if not self.complete:
            raise LawViolated("empty-join", witness=())
        return self.pomonoid.poset.index[self.bottom]

    def __eq__(self, other):
        return isinstance(other, FinGenQuantale) and self.pomonoid == other.pomonoid

    def __hash__(self):
        return hash(self.pomonoid)

    def __repr__(self):
        return f"FinGenQuantale({self.name or ','.join(self.elements)})"


def make_quantale(raw_or_pomonoid, name=""):
    """Build a FinGenQuantale from a pomonoid or a raw structure description."""
    if isinstance(raw_or_pomonoid, Pomonoid):
        return FinGenQuantale(raw_or_pomonoid, name)
    pom = validate_structure(raw_or_pomonoid)
    if not isinstance(pom, Pomonoid):
        raise LawViolated("quantale-needs-monoid", witness=raw_or_pomonoid)
    return FinGenQuantale(pom, name)


class AQM(Derives):
    """Two-sorted additive quantale with multiplication <A_d, A, iota>.

    `dist` is the multiplicative pomonoid of distributive elements, `quant`
    the additive quantale sort (a FinGenQuantale or a DmFragment), `mult`
    and `one` the monoid structure on the quantale sort, and `iota` the
    linking map. On a fragment sort the product is a function (anything
    else raises TooLarge); on a finite sort it is a flat table over element
    positions (see Pomonoid.flat) or a ByteTable, held as `mult_op` (a
    label dict is compiled by table_aqm). The linking map is a function or
    a dict.

    The gammas of its self-module, computed from the AQM alone, are kept in
    `derived` (see `Derives.derive`), which refers to no module.
    """

    def __init__(self, dist, quant, mult, one, iota, name=""):
        self.dist = dist
        self.quant = quant
        self.one = one
        self.name = name
        self.distributively_generated = None
        self.dg_witness = None
        if isinstance(quant, FinGenQuantale):
            # compiled once: every product on a finite sort reads this table
            els, index_of = quant.elements, quant.pomonoid.poset.index_of
            n = len(els)
            self.mult_op = op = mult if isinstance(mult, ByteTable) else ByteTable(mult, n)
            self.mult = lambda x, y: els[op.flat[index_of(x) * n + index_of(y)]]
        elif callable(mult):
            self.mult = mult
        else:  # a finite table cannot cover a fragment
            raise TooLarge(f"AQM {name!r}: a product on a fragment sort must "
                           "be a function", witness=name)
        self.iota = iota if callable(iota) else iota.__getitem__
        self.derived = {}

    @property
    def is_finite(self):
        return isinstance(self.quant, FinGenQuantale)

    def __repr__(self):
        return f"AQM({self.name})"


def table_aqm(quant, mult, one, name=""):
    """AQM whose distributive sort is the whole multiplicative monoid
    (iota the identity), as in the self-acting fixtures. `mult` is the
    product as a flat tuple over element positions (see Pomonoid.flat), or
    as a dict {(x, y): x * y} over labels, which is compiled to one.

    The monoid laws are scanned by order.pomonoid_from_flat and fail as the
    AQM laws "unit", "assoc" (also for a dict without every pair) and
    "mult-monotone"."""
    poset = quant.pomonoid.poset
    try:
        if isinstance(mult, dict):
            mult = flat_from_triples(
                poset, [(x, y, z) for (x, y), z in mult.items()])
        dist = pomonoid_from_flat(poset, mult, poset.index_of(one))
    except UnitNotNeutral as exc:
        raise LawViolated("unit", witness=exc.witness) from exc
    except NotAssociative as exc:
        raise LawViolated("assoc", witness=exc.witness) from exc
    except NotMonotone as exc:
        raise LawViolated("mult-monotone", witness=exc.witness) from exc
    return AQM(dist, quant, dist.table, one, {d: d for d in quant.elements},
               name)


def term_closure(q, seed):
    """The closure of the elements of `seed`, (element, term) pairs, under
    0, + and binary joins in q, round by round: a dict from each element
    reached to the first term that reaches it. A pair whose sum leaves a
    fragment is skipped. A finite q is closed on element positions, through
    its tables, and the result mapped to labels once."""
    if not isinstance(q, FinGenQuantale):
        return _closure(q.zero, seed, lambda xs: sorted(xs, key=q.sort_key),
                        lambda x, y: (q.plus(x, y), q.join([x, y])))
    at, plus, join = q.pomonoid.poset.index_of, q.plus_op.rows, q.join_op.rows
    closed = _closure(at(q.zero), ((at(x), how) for x, how in seed), sorted,
                      lambda x, y: (plus[x][y], join[x][y]))
    return {q.elements[x]: how for x, how in closed.items()}


def _closure(zero, seed, order, plus_join):
    witness = {zero: "0"}
    for x, how in seed:
        witness.setdefault(x, how)
    frontier = True
    while frontier:
        frontier = False
        for x, y in product(order(witness), repeat=2):
            try:
                new = plus_join(x, y)
            except FragmentExceeded:
                continue
            for z, op in zip(new, "+v"):
                if z not in witness:
                    witness[z] = f"({witness[x]}{op}{witness[y]})"
                    frontier = True
    return witness


# the eight module laws, and their names as laws of an AQM acting on itself
MODULE_LAWS = ("unit", "zero-scalar", "compose", "scalar-plus", "scalar-join",
               "iota-join-dist", "iota-plus-dist", "iota-zero")
AQM_MODULE_LAWS = ("unit", "zero-annihilates", "assoc", "right-plus-dist",
                   "right-join-dist", "left-join-dist-iota",
                   "left-plus-dist-iota", "left-zero-iota")


def scan_module_laws(rep, a, space, star, scalars, points, dist, table, laws):
    """The module laws of the action star(s, x) of the AQM a's quantale sort
    on `space`, over the universes `scalars` and `points`, into the LawScan
    `rep` under the names `laws` (in the order of MODULE_LAWS): unit and
    zero-scalar per x; compose, scalar-plus and scalar-join per (s, t, x);
    then, per distributive scalar i given as (witness label, i) in `dist`,
    iota-join-dist and iota-plus-dist per (x, y), and iota-zero.

    `table` is the held star table (see modact.ActionMap.star_op) of an
    action between finite carriers, or None. On a table each law is checked
    in blocks of instances, as two byte rows (order.ByteTable), so only a
    failing block is walked, in the order above."""
    unit, zero, compose, plus, join, iota_join, iota_plus, iota_zero = laws
    q = a.quant
    if table is None:
        check = rep.check
        for x in points:
            check(unit, x, lambda: (star(a.one, x), x))
            check(zero, x, lambda: (star(q.zero, x), space.zero))
        for s, t in product(scalars, repeat=2):
            for x in points:
                check(compose, (s, t, x),
                      lambda: (star(a.mult(s, t), x), star(s, star(t, x))))
                check(plus, (s, t, x),
                      lambda: (star(q.plus(s, t), x),
                               space.plus(star(s, x), star(t, x))))
                check(join, (s, t, x),
                      lambda: (star(q.join([s, t]), x),
                               space.join([star(s, x), star(t, x)])))
        for label, i in dist:
            for x, y in product(points, repeat=2):
                check(iota_join, (label, x, y),
                      lambda: (star(i, space.join([x, y])),
                               space.join([star(i, x), star(i, y)])))
                check(iota_plus, (label, x, y),
                      lambda: (star(i, space.plus(x, y)),
                               space.plus(star(i, x), star(i, y))))
            check(iota_zero, label, lambda: (star(i, space.zero), space.zero))
        return
    m, n = len(scalars), len(points)
    st, by_x = table.rows, table.transposed()  # by_x[x, t] = t * x
    mult, splus, sjoin = a.mult_op.rows, q.plus_op.rows, q.join_op.rows
    pplus, pjoin = space.plus_op, space.join_op
    s_index = q.pomonoid.poset.index_of
    pzero = space.pomonoid.poset.index_of(space.zero)
    # an iota value outside the carrier raises before any law is scanned
    iota_rows = [(label, st[s_index(i)]) for label, i in dist]
    rep.rows([
        (unit, st[s_index(a.one)], bytes(range(n))),
        (zero, st[s_index(q.zero)], bytes([pzero]) * n),
    ], points.__getitem__)
    for s in range(m):  # instance (s, t, x) at x * m + t
        rep.rows([
            (compose, by_x.each(mult[s]), by_x.after(st[s])),
            (plus, by_x.each(splus[s]), pplus.at(st[s], by_x.rows)),
            (join, by_x.each(sjoin[s]), pjoin.at(st[s], by_x.rows)),
        ], lambda j: (scalars[s], scalars[j % m], points[j // m]),
            lambda j: (j % m, j // m))
    for label, si in iota_rows:
        rep.rows([  # instance (label, x, y) at x * n + y
            (iota_join, pjoin.after(si), pjoin.pairs(si)),
            (iota_plus, pplus.after(si), pplus.pairs(si)),
        ], lambda j: (label, points[j // n], points[j % n]))
        rep.rows([(iota_zero, si[pzero:pzero + 1], bytes([pzero]))],
                 lambda j: label)


def check_aqm(a, strict=True):
    """Exhaustively verify the AQM laws; on a fragment sort, scan the bounded
    fragment instead and count instances that leave it. The laws are the
    module laws of the AQM acting on its quantale sort by its product
    (scan_module_laws), then four link laws: right-unit, iota-hom,
    iota-monotone (finite sort only) and iota-unit, in one order on both
    kinds of sort; on a finite sort all but iota-unit run on byte rows
    (LawScan.rows). The report's data holds the checked and skipped counts.

    With strict=True the first violated law raises LawViolated; otherwise all
    violations are collected into the returned report.
    """
    rep = LawScan(f"aqm {a.name or ''}".strip(), strict=strict)
    q, mult, dist, check = a.quant, a.mult, a.dist, rep.check
    finite, dels = a.is_finite, dist.elements
    at = [a.iota(d) for d in dels]  # the iota of each distributive element
    if finite:
        els, table = list(q.elements), a.mult_op
    else:
        k, width = q.scan_bounds()
        els, table = q.enumerate((k, width)), None
    scan_module_laws(rep, a, q, mult, els, els, list(zip(dels, at)), table,
                     AQM_MODULE_LAWS)
    m, flat = len(dels), dist.flat
    if finite:  # instance (d, e) at i * m + j; iota-monotone where d <= e
        poset, below = q.pomonoid.poset, dist.poset.leq_table.flat
        ai, n = bytes(map(poset.index_of, at)), len(els)
        rep.rows([("right-unit", table.flat[poset.index_of(a.one)::n],
                   bytes(range(n)))], els.__getitem__)
        rep.rows([("iota-hom", dist.table.after(ai), table.pairs(ai)),
                  ("iota-monotone", bytes(map(and_, poset.leq_table.pairs(ai),
                                              below)), below)],
                 lambda j: (dels[j // m], dels[j % m]))
        rep.checked -= below.count(0)  # only comparable pairs are instances
    else:
        for x in els:
            check("right-unit", x, lambda: (mult(x, a.one), x))
        for (i, d), (j, e) in product(enumerate(dels), repeat=2):
            check("iota-hom", (d, e),
                  lambda: (at[flat[i * m + j]], mult(at[i], at[j])))
    if a.iota(dist.unit) != a.one:
        rep.fail("iota-unit", dist.unit)
    rep.data.update(checked=rep.checked, skipped=rep.skipped)
    if not finite:
        a.distributively_generated = True  # by construction of the free product
        rep.note(f"fragment scan (multiplicity<={k}, antichain<={width}): "
                 f"{rep.checked} instances checked, "
                 f"{rep.skipped} left the fragment")
        return rep
    witness = term_closure(q, ((x, f"i({d})")
                               for d, x in sorted(zip(dels, at))))
    a.distributively_generated = set(witness) == set(els)
    a.dg_witness = witness
    rep.note(f"laws scanned over {len(els)} elements: all hold"
             if rep.ok else "violations found")
    rep.note(f"distributively generated: {a.distributively_generated}")
    rep.data["distributively_generated"] = a.distributively_generated
    rep.data["dg_witness"] = dict(sorted(witness.items()))
    return rep


# -- the endomorphism construction --------------------------------------------

EXP_END_MAX_SIZE = 5  # exp_end's guard, which `search --suite leftdist` reads


def exp_end(q):
    """The two-sorted endomorphism object of a finite generalized quantale:
    endomorphisms as the distributive sort, their closure under pointwise
    sums and joins as the quantale sort, composition as the product; on at
    most EXP_END_MAX_SIZE elements (more raise TooLarge). Every map of the
    closure fixes the bottom, so when the zero is not the bottom, Gen has no
    zero (the constant zero map), and UnknownElement names that map.

    Maps are bytes over element positions, byte x the value at x, until the
    structures are built; a map's name lists its values in element order,
    as in "(0,1,2)"."""
    els = q.elements
    n = len(els)
    if n > EXP_END_MAX_SIZE:
        raise TooLarge(f"quantale has {n} > {EXP_END_MAX_SIZE} elements",
                       witness=n)
    poset = q.pomonoid.poset
    zero, pts = poset.index[q.zero], range(n)
    zero_map = bytes([zero]) * n
    join, plus = q.join_op, q.plus_op

    def name(f):
        return "(" + ",".join(els[v] for v in f) + ")"

    def split(block):  # the maps of a block, in its order
        return [block[i:i + n] for i in range(0, len(block), n)]

    def pointwise(block, f, maps):
        """The maps x -> maps[f[x]][g[x]], for the maps g of the block."""
        out = bytearray(len(block))
        for x in pts:
            out[x::n] = block[x::n].translate(maps[f[x]])
        return split(bytes(out))

    # an endomorphism fixes the zero and the bottom (and, as it preserves
    # joins, is monotone)
    fixed = {zero} | ({poset.index[q.bottom]} if q.complete else set())
    endos = [f for f in map(bytes, product(*([x] if x in fixed else pts
                                             for x in pts)))
             if join.after(f) == join.pairs(f)
             and plus.after(f) == plus.pairs(f)]

    # close under f+g and f v g for f found in the last round and every g
    # found so far. This reaches g+f too: Gen's maps are the joins of sums
    # e1+...+ek of endomorphisms (+ is associative and distributes over v),
    # and each such sum is a map found earlier plus an endomorphism.
    seen, fresh = set(endos), endos
    while fresh:
        known = b"".join(seen)
        fresh = {h for f in fresh for maps in (plus.maps, join.maps)
                 for h in pointwise(known, f, maps)} - seen
        seen |= fresh
    if zero_map not in seen:
        raise UnknownElement("Gen has no zero map", witness=name(zero_map))

    # Gen's elements in label order, each map at its position, ordered pointwise
    gen = sorted(seen, key=name)
    names = tuple(map(name, gen))
    pos = {f: i for i, f in enumerate(gen)}
    block = b"".join(gen)
    plus_flat = [pos[h] for f in gen for h in pointwise(block, f, plus.maps)]
    quant = FinGenQuantale(
        pomonoid_from_flat(poset_from_rows(names, pointwise_rows(poset, gen)),
                           plus_flat, pos[zero_map]),
        name=f"Gen({q.name})" if q.name else "Gen",
    )
    mult = bytes(pos[h] for f in gen  # f after g is g's block through f
                 for h in split(block.translate(f.ljust(256, b"\0"))))
    dist = restrict_pomonoid(quant.pomonoid.poset, sorted(pos[f] for f in endos),
                             mult, pos[bytes(pts)])
    a = AQM(dist, quant, mult, dist.unit, {e: e for e in dist.elements},
            name=f"ExpEnd({q.name})" if q.name else "ExpEnd")
    check_aqm(a)
    a.gen_tables = {name(f): dict(zip(els, (els[v] for v in f)))
                    for f in sorted(seen)}
    a.endo_tables = {e: dict(a.gen_tables[e]) for e in dist.elements}
    return a


# -- the free construction over a pomonoid ------------------------------------


@dataclass(frozen=True)
class DmFragment:
    """Bounded window into the downsets of the multiupset pomonoid over a
    poset: total generator multiplicity <= k. Operations compute exact
    results and raise FragmentExceeded instead of truncating when a result
    leaves it. The law scans range over downsets with at most two maximal
    generators (see scan_bounds); no operation bounds the width.

    Sums, joins and comparisons are computed once per argument tuple and
    kept in caches that live as long as the fragment. A sum is kept as
    computed, and its bound is checked on every call."""

    base: FinPoset
    k: int = 4

    def __post_init__(self):
        for name, op in (("leq", dleq), ("_sum", dsum), ("_join", djoin)):
            object.__setattr__(self, name, cache(op))

    def check_bound(self, p):
        for g in p.maxgens:
            if g.total_multiplicity > self.k:
                raise FragmentExceeded(
                    f"generator multiplicity {g.total_multiplicity} > {self.k}",
                    witness=p,
                )
        return p

    @property
    def zero(self):
        return dzero(self.base)

    def plus(self, p, q):
        return self.check_bound(self._sum(p, q))

    def join(self, ps):
        return self._join(tuple(ps))

    def sort_key(self, p):
        return p.sort_key()

    def scan_bounds(self):
        return (min(self.k, 2), 2)

    def enumerate(self, bounds):  # bounds as from scan_bounds
        k, width = bounds
        mus = enumerate_fragment(self.base, k)
        out = []
        for size in range(1, width + 1):
            for combo in combinations(mus, size):
                ok = all(
                    not (mleq(a, b) or mleq(b, a))
                    for a, b in combinations(combo, 2)
                )
                if ok:
                    out.append(normalize(self.base, list(combo)))
        return sorted(out, key=self.sort_key)


def lift_to_downsets(base, act):
    """The action act(a, x) of scalars on the points of the poset `base`,
    lifted to the downsets of its multiupsets: a scalar acts elementwise on
    each maximal generator multiset, and the results are normalized. Each
    value is computed once per returned callable."""

    @cache
    def lifted(a, p):
        return normalize(base, [
            Multiupset(base, tuple(act(a, x) for x in g.gens))
            for g in p.maxgens
        ])

    return lifted


def free_action(space, act):
    """The action on `space` that act(a, x) generates for the downsets of
    scalar multisets: a multiset acts as the sum of its members' actions,
    and a downset as the join over its maximal generators. Every partial
    sum goes through the space's bounded +, so an action leaves a fragment
    as soon as a partial sum does (a finite space never raises). Sums and
    actions are computed once per returned callable; a sum that left the
    fragment is kept too, and raises again through space.check_bound."""

    @cache
    def summed(sigma, x):  # (the sum, whether it left the fragment)
        acc = space.zero
        try:
            for a in sigma.gens:
                acc = space.plus(acc, act(a, x))
        except FragmentExceeded as exc:
            return exc.witness, True
        return acc, False

    @cache
    def star(scalar, x):
        sums = [summed(sigma, x) for sigma in scalar.maxgens]
        return space.join([space.check_bound(p) if left else p
                           for p, left in sums])

    return star


def free_aqm(m, k=DmFragment.k):
    """The free additive quantale with multiplication over a multiplicative
    pomonoid, realized on the bounded downset fragment.

    The quantale sort is the downset fragment over the multiupsets of m's
    carrier; the distributive sort is m itself, linked by the principal
    downset of a one-element multiset. The product P * Q is the free action
    (free_action) of P on Q that m's product generates, acting elementwise
    on Q's maximal generators (lift_to_downsets): it leaves the fragment as
    soon as one of its partial sums does.
    """
    frag = DmFragment(m.poset, k)
    mult = free_action(frag, lift_to_downsets(m.poset, m.apply))

    def iota(a):
        return unit_embed(m.poset, Multiupset(m.poset, (a,)))

    one = iota(m.unit)
    a = AQM(m, frag, mult, one, iota, name=f"Free({','.join(m.elements)})")
    a.distributively_generated = True
    return a
