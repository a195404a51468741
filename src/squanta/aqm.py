"""Generalized quantales, additive quantales with multiplication, and the
two canonical ways of producing them: the endomorphism construction over a
finite quantale, and the free construction over the downset fragment of a
multiplicative pomonoid.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product

from .downset import (
    MultiBase,
    djoin,
    dleq,
    dsum,
    dzero,
    normalize,
    unit_embed,
)
from .errors import (
    FragmentExceeded,
    LawViolated,
    NotAssociative,
    NotMonotone,
    TooLarge,
    UnboundVariable,
    UnitNotNeutral,
)
from .multiupset import Multiupset, enumerate_fragment
from .order import (
    ByteTable,
    Pomonoid,
    flat_from_triples,
    pomonoid_from_flat,
    poset_from_rows,
    restrict_pomonoid,
    row_mismatches,
    validate_structure,
)
from .reporting import LawScan

__all__ = [
    "QuantaleTerm",
    "term",
    "FinGenQuantale",
    "make_quantale",
    "AQM",
    "table_aqm",
    "eval_term",
    "check_aqm",
    "exp_end",
    "DmFragment",
    "free_aqm",
    "lift_to_downsets",
    "term_closure",
]


@dataclass(frozen=True)
class QuantaleTerm:
    """Formal finite join of additive monoid terms (sums of variables)."""

    joinands: frozenset  # each joinand: tuple of variable names; () is the constant 0

    def __post_init__(self):
        if not self.joinands:
            raise LawViolated("term-nonempty", witness=self)

    @property
    def variables(self):
        return {v for j in self.joinands for v in j}


def term(*joinands):
    return QuantaleTerm(frozenset(tuple(j) for j in joinands))


def eval_term(t, env, q):
    """Interpret a quantale term in `q` under the variable assignment `env`."""
    missing = t.variables - set(env)
    if missing:
        raise UnboundVariable("unbound variables", witness=sorted(missing))
    values = [q.fold_plus([env[v] for v in j]) for j in sorted(t.joinands)]
    return q.join(values)


class FinGenQuantale:
    """Finite-carrier generalized quantale: an additive pomonoid in which all
    non-empty joins exist and distribute over the sum on both sides.

    `plus_table` and `join_table` are the flat tables over element positions
    (see Pomonoid.flat)."""

    def __init__(self, pomonoid: Pomonoid, name=""):
        self.pomonoid = pomonoid
        self.name = name
        poset = pomonoid.poset
        self.elements = els = poset.elements
        up = poset.up_rows
        n = len(els)
        p = ByteTable(pomonoid.flat, n)
        # the join of x and y is the element whose up-set is up[x] & up[y]
        by_up = {row: i for i, row in enumerate(up)}
        join = [by_up.get(up[x] & up[y]) for x in range(n) for y in range(n)]
        if None in join:
            x, y = divmod(join.index(None), n)
            raise LawViolated("join-exists", witness=(els[x], els[y]))
        self.plus_table, self.join_table = pomonoid.flat, tuple(join)
        j = ByteTable(join, n)
        for x, (px, cx) in enumerate(zip(p.rows, p.transposed().rows)):
            bad = row_mismatches([  # instance (x, y, z) at y * n + z
                ("join-dist-left", j.after(px), j.pairs(px)),
                ("join-dist-right", j.after(cx), j.pairs(cx)),
            ])
            if bad:
                (y, z), law = divmod(bad[0][0], n), bad[0][1]
                raise LawViolated(law, witness=(els[x], els[y], els[z]))
        bottom = by_up.get((1 << n) - 1)
        self.bottom = None if bottom is None else els[bottom]
        self.complete = self.bottom is not None

    @property
    def zero(self):
        return self.pomonoid.unit

    def leq(self, x, y):
        return self.pomonoid.leq(x, y)

    def plus(self, x, y):
        return self.pomonoid.apply(x, y)

    def fold_plus(self, xs):
        return self.pomonoid.fold(xs)

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

    def restrict(self, positions, plus_of, zero, name=""):
        """The quantale on the elements at the ascending `positions`, ordered
        as here, whose sum of the elements at positions i and j is the
        element at position plus_of(i, j) and whose zero is at position
        `zero` (positions here). A sum or zero outside the positions raises
        UnknownElement (see order.restrict_pomonoid)."""
        return FinGenQuantale(
            restrict_pomonoid(self.pomonoid.poset, positions, plus_of, zero),
            name)

    @property
    def is_cdi(self):
        return self.pomonoid.is_cdi

    @property
    def idempotent(self):
        return self.pomonoid.idempotent

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


class AQM:
    """Two-sorted additive quantale with multiplication <A_d, A, iota>.

    `dist` is the multiplicative pomonoid of distributive elements, `quant`
    the additive quantale sort (a FinGenQuantale or a DmFragment), `mult`
    and `one` the monoid structure on the quantale sort, and `iota` the
    linking map. The product is a function, a dict {(x, y): x * y}, or,
    on a finite quantale sort, a flat tuple over element positions (see
    Pomonoid.flat); on a finite sort it is compiled to that tuple when the
    AQM is built. The linking map is a function or a dict.

    Structures derived from the AQM alone (its self-module and what is
    computed from that) are kept in `derived` (see `derive`).
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
            if not isinstance(mult, tuple):
                mult = tuple(index_of(mult(x, y) if callable(mult) else mult[x, y])
                             for x in els for y in els)
            self._mult_table, n = mult, len(els)
            self.mult = lambda x, y: els[mult[index_of(x) * n + index_of(y)]]
        else:
            self.mult = mult if callable(mult) else lambda x, y: mult[(x, y)]
        self.iota = iota if callable(iota) else iota.__getitem__
        self.derived = {}

    def derive(self, key, build):
        """The structure `key` derived from this AQM alone: build() on the
        first call, and the same object on every later one."""
        if key not in self.derived:
            self.derived[key] = build()
        return self.derived[key]

    def mult_table(self):
        """The product as a flat table over element positions (see
        Pomonoid.flat); finite quantale sort only."""
        return self._mult_table

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
        dist = pomonoid_from_flat(poset, mult, poset.index_of(one),
                                  "multiplicative")
    except UnitNotNeutral as exc:
        raise LawViolated("unit", witness=exc.witness) from exc
    except NotAssociative as exc:
        raise LawViolated("assoc", witness=exc.witness) from exc
    except NotMonotone as exc:
        raise LawViolated("mult-monotone", witness=exc.witness) from exc
    return AQM(dist, quant, dist.flat, one, {d: d for d in quant.elements},
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
    n, at = len(q.elements), q.pomonoid.poset.index_of
    plus, join = q.plus_table, q.join_table
    closed = _closure(at(q.zero), ((at(x), how) for x, how in seed), sorted,
                      lambda x, y: (plus[x * n + y], join[x * n + y]))
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


def check_aqm(a, strict=True):
    """Exhaustively verify the AQM laws; on a fragment sort, scan the bounded
    fragment instead and count instances that leave it.

    With strict=True the first violated law raises LawViolated; otherwise all
    violations are collected into the returned report.
    """
    rep = LawScan(f"aqm {a.name or ''}".strip(), strict=strict)

    if a.is_finite:
        q = a.quant
        els = list(q.elements)
        n = len(els)
        poset = q.pomonoid.poset
        m, p, j = (ByteTable(t, n) for t in (a.mult_table(), q.plus_table,
                                             q.join_table))
        mr, by_z = m.rows, m.transposed()  # by_z[z, w] = w * z
        one, zero = poset.index_of(a.one), poset.index_of(q.zero)
        iota = {d: poset.index_of(a.iota(d)) for d in a.dist.elements}
        for x in range(n):
            if mr[one][x] != x or mr[x][one] != x:
                rep.fail("unit", (a.one, els[x]))
        for x in range(n):  # instance (x, y, z) at y * n + z
            rep.rows([("assoc", b"".join(map(mr.__getitem__, mr[x])),
                       m.after(mr[x]))],
                     lambda k: (els[x], els[k // n], els[k % n]))
        for x in range(n):  # instance (x, y, z) at z * n + y
            rep.rows([
                ("right-join-dist", by_z.each(j.rows[x]), j.at(mr[x], by_z.rows)),
                ("right-plus-dist", by_z.each(p.rows[x]), p.at(mr[x], by_z.rows)),
            ], lambda k: (els[x], els[k % n], els[k // n]),
                lambda k: (k % n, k // n))
        for x in range(n):
            if mr[zero][x] != zero:
                rep.fail("zero-annihilates", els[x])
        for d, i in iota.items():
            mi = mr[i]
            rep.rows([  # instance (d, x, y) at x * n + y
                ("left-join-dist-iota", j.after(mi), j.pairs(mi)),
                ("left-plus-dist-iota", p.after(mi), p.pairs(mi)),
            ], lambda k: (d, els[k // n], els[k % n]))
            if mi[zero] != zero:
                rep.fail("left-zero-iota", d)
        for d, e in product(a.dist.elements, repeat=2):
            if iota[a.dist.apply(d, e)] != mr[iota[d]][iota[e]]:
                rep.fail("iota-hom", (d, e))
            if a.dist.leq(d, e) and not poset.up_rows[iota[d]] >> iota[e] & 1:
                rep.fail("iota-monotone", (d, e))
        if a.iota(a.dist.unit) != a.one:
            rep.fail("iota-unit", a.dist.unit)
        witness = term_closure(q, ((a.iota(d), f"i({d})")
                                   for d in sorted(a.dist.elements)))
        a.distributively_generated = set(witness) == set(els)
        a.dg_witness = witness
        rep.note(f"laws scanned over {len(els)} elements: all hold"
                 if rep.ok else "violations found")
        rep.note(f"distributively generated: {a.distributively_generated}")
        rep.data["distributively_generated"] = a.distributively_generated
        rep.data["dg_witness"] = dict(sorted(witness.items()))
        return rep

    # fragment sort: bounded scan
    frag = a.quant
    b = frag.scan_bounds()
    els = frag.enumerate(b)
    check, mult = rep.check, a.mult
    for x in els:
        check("unit", x, lambda: (mult(a.one, x), x))
        check("unit", x, lambda: (mult(x, a.one), x))
        check("zero-annihilates", x, lambda: (mult(frag.zero, x), frag.zero))
    for x, y, z in product(els, repeat=3):
        check("assoc", (x, y, z),
              lambda: (mult(mult(x, y), z), mult(x, mult(y, z))))
        check("right-join-dist", (x, y, z),
              lambda: (mult(frag.join([x, y]), z),
                       frag.join([mult(x, z), mult(y, z)])))
        check("right-plus-dist", (x, y, z),
              lambda: (mult(frag.plus(x, y), z),
                       frag.plus(mult(x, z), mult(y, z))))
    for d in a.dist.elements:
        i = a.iota(d)
        for x, y in product(els, repeat=2):
            check("left-join-dist-iota", (d, x, y),
                  lambda: (mult(i, frag.join([x, y])),
                           frag.join([mult(i, x), mult(i, y)])))
            check("left-plus-dist-iota", (d, x, y),
                  lambda: (mult(i, frag.plus(x, y)),
                           frag.plus(mult(i, x), mult(i, y))))
        check("left-zero-iota", d, lambda: (mult(i, frag.zero), frag.zero))
    for d, e in product(a.dist.elements, repeat=2):
        check("iota-hom", (d, e),
              lambda: (a.iota(a.dist.apply(d, e)), mult(a.iota(d), a.iota(e))))
    if a.iota(a.dist.unit) != a.one:
        rep.fail("iota-unit", a.dist.unit)
    a.distributively_generated = True  # by construction of the free product
    rep.note(f"fragment scan (multiplicity<={b[0]}, antichain<={b[1]}): "
             f"{rep.checked} instances checked, {rep.skipped} left the fragment")
    rep.data.update(checked=rep.checked, skipped=rep.skipped)
    return rep


# -- the endomorphism construction --------------------------------------------


def exp_end(q, limit=5):
    """The two-sorted endomorphism object of a finite generalized quantale:
    endomorphisms as the distributive sort, their closure under pointwise
    sums and joins as the quantale sort, composition as the product.

    Maps are tuples over element positions until the structures are built;
    a map's name lists its values in element order, as in "(0,1,2)"."""
    els = q.elements
    n = len(els)
    if n > limit:
        raise TooLarge(f"quantale has {n} > {limit} elements", witness=n)
    poset, plus, join = q.pomonoid.poset, q.plus_table, q.join_table
    up, zero = poset.up_rows, poset.index[q.zero]
    pts = range(n)
    pairs = list(product(pts, repeat=2))
    order = [(x, y) for x, y in pairs if up[x] >> y & 1]
    # an endomorphism fixes the zero and the bottom
    fixed = {zero} | ({poset.index[q.bottom]} if q.complete else set())
    endos = [
        f for f in product(*([x] if x in fixed else pts for x in pts))
        if all(up[f[x]] >> f[y] & 1 for x, y in order)
        and all(f[join[x * n + y]] == join[f[x] * n + f[y]] for x, y in pairs)
        and all(f[plus[x * n + y]] == plus[f[x] * n + f[y]] for x, y in pairs)
    ]

    # close under pointwise + and binary join, combining only the maps found
    # in the last round with all maps found so far
    known, seen, fresh = list(endos), set(endos), endos
    while fresh:
        found = []
        for f in fresh:
            for g in known:
                for h in (tuple(plus[f[x] * n + g[x]] for x in pts),
                          tuple(plus[g[x] * n + f[x]] for x in pts),
                          tuple(join[f[x] * n + g[x]] for x in pts)):
                    if h not in seen:
                        seen.add(h)
                        found.append(h)
        known.extend(found)
        fresh = found

    # Gen's elements in label order, each map at its position
    name_of = {f: "(" + ",".join(els[v] for v in f) + ")" for f in seen}
    gen = sorted(seen, key=name_of.__getitem__)
    names = tuple(name_of[f] for f in gen)
    pos = {f: i for i, f in enumerate(gen)}
    rows = [sum(1 << j for j, g in enumerate(gen)
                if all(up[f[x]] >> g[x] & 1 for x in pts)) for f in gen]
    plus_flat = [pos[tuple(plus[f[x] * n + g[x]] for x in pts)]
                 for f in gen for g in gen]
    quant = FinGenQuantale(
        pomonoid_from_flat(poset_from_rows(names, rows), plus_flat,
                           pos[(zero,) * n]),
        name=f"Gen({q.name})" if q.name else "Gen",
    )
    size = len(gen)
    mult = tuple(pos[tuple(f[g[x]] for x in pts)] for f in gen for g in gen)
    dist = restrict_pomonoid(quant.pomonoid.poset, sorted(pos[f] for f in endos),
                             lambda i, j: mult[i * size + j], pos[tuple(pts)],
                             "multiplicative")
    a = AQM(dist, quant, mult, dist.unit, {e: e for e in dist.elements},
            name=f"ExpEnd({q.name})" if q.name else "ExpEnd")
    check_aqm(a)
    a.gen_tables = {name_of[f]: dict(zip(els, (els[v] for v in f)))
                    for f in sorted(seen)}
    a.endo_tables = {e: dict(a.gen_tables[e]) for e in dist.elements}
    return a


# -- the free construction over a pomonoid ------------------------------------


@dataclass(frozen=True)
class DmFragment:
    """Bounded window into the downsets of the multiupset pomonoid over a
    poset: total generator multiplicity <= k, antichains of size <= 3 by
    default. Operations compute exact results and raise FragmentExceeded
    instead of truncating when a result leaves the multiplicity bound.

    Sums, joins and comparisons are computed once per argument tuple and
    kept in caches that live as long as the fragment. A sum is kept as
    computed, and its bound is checked on every call."""

    base: MultiBase
    k: int = 4
    antichain_bound: int = 3

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
        return (min(self.k, 2), min(self.antichain_bound, 2))

    def enumerate(self, bounds=None):
        k, width = bounds if bounds else (self.k, self.antichain_bound)
        mus = enumerate_fragment(self.base.poset, k)
        out = []
        for size in range(1, width + 1):
            for combo in combinations(mus, size):
                ok = all(
                    not (self.base.leq(a, b) or self.base.leq(b, a))
                    for a, b in combinations(combo, 2)
                )
                if ok:
                    out.append(normalize(self.base, list(combo)))
        return sorted(out, key=self.sort_key)


def lift_to_downsets(base, act):
    """The action act(a, x) of scalars on the points of a MultiBase's poset,
    lifted to its downsets: a scalar acts elementwise on each maximal
    generator multiset, and the results are normalized. Each value is
    computed once per returned callable."""

    @cache
    def lifted(a, p):
        return normalize(base, [
            Multiupset(base.poset, tuple(act(a, x) for x in g.gens))
            for g in p.maxgens
        ])

    return lifted


def free_aqm(m, k=4, antichain_bound=3):
    """The free additive quantale with multiplication over a multiplicative
    pomonoid, realized on the bounded downset fragment.

    The quantale sort is the downset fragment over the multiupsets of m's
    carrier; the distributive sort is m itself, linked by the principal
    downset of a one-element multiset. The product of P and Q reduces to
    per-generator scalar actions: a multiset of scalars acts as the sum of
    its members' elementwise actions, and P acts as the join over its
    maximal generator multisets. Each action and each product is computed
    once per AQM; a product's bound is checked on every call.
    """
    frag = DmFragment(MultiBase(m.poset), k, antichain_bound)
    base = frag.base
    scalar_act = lift_to_downsets(base, m.apply)

    @cache
    def multiset_act(sigma, q):
        r = frag.zero
        for a in sigma.gens:
            r = dsum(r, scalar_act(a, q))
        return r

    @cache
    def product_of(p, q):
        return djoin([multiset_act(sigma, q) for sigma in p.maxgens])

    def mult(p, q):
        return frag.check_bound(product_of(p, q))

    def iota(a):
        m.poset.check_element(a)
        return unit_embed(base, Multiupset(m.poset, (a,)))

    one = unit_embed(base, Multiupset(m.poset, (m.unit,)))
    a = AQM(m, frag, mult, one, iota, name=f"Free({','.join(m.elements)})")
    a.distributively_generated = True
    return a
