"""Finite posets, pomonoids, monotone maps, and antichain utilities.

All values are immutable after validation. Element identifiers are opaque
strings kept in sorted order, and a poset or pomonoid holds only tables over
the positions of its elements, so equality of validated structures is
equality of tables; label operations look their arguments up by position.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import (
    NotAPartialOrder,
    NotAssociative,
    NotMonotone,
    TooLarge,
    UnitNotNeutral,
    UnknownElement,
)

__all__ = [
    "FinPoset",
    "Pomonoid",
    "MonotoneMap",
    "validate_structure",
    "poset_from_rows",
    "pomonoid_from_flat",
    "restrict_pomonoid",
    "flat_from_triples",
    "ByteTable",
    "antichain_ops",
    "enumerate_monotone_selfmaps",
]


@dataclass(frozen=True)
class FinPoset:
    """Finite partial order on the sorted tuple `elements`: bit j of
    `up_rows[i]` is set when elements[i] <= elements[j], and `index` maps
    each element to its position. Equality compares the up-set rows."""

    elements: tuple
    up_rows: tuple
    index: dict = field(compare=False, repr=False)

    @property
    def pairs(self):  # the <= relation as a set of (x, y) label pairs
        els = self.elements
        return frozenset((x, els[j]) for x, row in zip(els, self.up_rows)
                         for j in _bits(row))

    def leq(self, x, y):
        try:
            return bool(self.up_rows[self.index[x]] >> self.index[y] & 1)
        except KeyError:  # an unknown label is below and above nothing
            return False

    def index_of(self, x):
        try:
            return self.index[x]
        except (KeyError, TypeError):
            raise UnknownElement(f"element {x!r} not in poset", witness=x) from None

    def check_element(self, x):
        self.index_of(x)

    def up(self, subset):
        return {y for y in self.elements for x in subset if self.leq(x, y)}

    def down(self, subset):
        return {y for y in self.elements for x in subset if self.leq(y, x)}

    def minimal(self, subset):
        s = set(subset)
        return {x for x in s if not any(self.leq(y, x) and y != x for y in s)}

    def maximal(self, subset):
        s = set(subset)
        return {x for x in s if not any(self.leq(x, y) and y != x for y in s)}


def _bits(mask):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_carrier_size(n):  # a ByteTable's carrier: at most 256 elements
    if n > 256:
        raise TooLarge(f"carrier has {n} > 256 elements", witness=n)


class ByteTable:
    """A flat table over element positions, n columns wide, held as bytes:
    `flat`, its `rows` (t[i, j] = rows[i][j] = flat[i * n + j]) and `maps`,
    each row as a bytes.translate table. The methods build one side of a
    law as one byte row over a block of instances. A table on more than 256
    elements raises TooLarge, with its size as witness."""

    def __init__(self, flat, n):
        _check_carrier_size(n)
        self.flat = t = bytes(flat)
        self.rows = [t[i:i + n] for i in range(0, len(t), n or 1)]
        self.maps = [r.ljust(256, b"\0") for r in self.rows]

    def transposed(self):
        """The table t' with t'[j, i] = t[i, j]."""
        n = len(self.rows[0])
        return ByteTable(b"".join(self.flat[j::n] for j in range(n)),
                         len(self.rows))

    def after(self, r):
        """r[t[i, j]] over (i, j): the table mapped through the row r."""
        return self.flat.translate(r.ljust(256, b"\0"))

    def pairs(self, r):
        """t[r[i], r[j]] over (i, j)."""
        return b"".join(map(r.translate, map(self.maps.__getitem__, r)))

    def each(self, r):
        """t[i, r[j]] over (i, j)."""
        return b"".join(map(r.translate, self.maps))

    def at(self, r, rows):
        """t[r[i], rows[i][j]] over (i, j)."""
        return b"".join(map(bytes.translate, rows,
                            map(self.maps.__getitem__, r)))


def row_mismatches(checks):
    """(j, label) for every position j and every (label, lhs, rhs) in
    `checks` with lhs[j] != rhs[j], ordered by j and then by `checks`.

    A law scan runs one check per block of instances, with the two sides of
    the law as byte rows over the block (see ByteTable), so one comparison
    decides a block that holds, and only a failing block is walked."""
    for _, lhs, rhs in checks:
        if lhs != rhs:
            break
    else:
        return []
    return [(j, label) for j in range(len(checks[0][1]))
            for label, lhs, rhs in checks if lhs[j] != rhs[j]]


def poset_from_rows(elements, up_rows):
    """The FinPoset on the sorted tuple `elements` in which elements[i] <=
    elements[j] when bit j of up_rows[i] is set (reflexivity is added).

    Antisymmetry is scanned first, then transitivity as "the up-set of every
    y >= x lies inside the up-set of x"; both scan x, then y, in element
    order, and raise NotAPartialOrder with the first failing instance."""
    up = [row | 1 << i for i, row in enumerate(up_rows)]
    for i, row in enumerate(up):
        for j in _bits(row & ~(1 << i)):
            if up[j] >> i & 1:
                raise NotAPartialOrder("antisymmetry fails",
                                       witness=(elements[i], elements[j]))
    for i, row in enumerate(up):
        for j in _bits(row):
            outside = up[j] & ~row
            if outside:
                k = next(_bits(outside))
                raise NotAPartialOrder(
                    "transitivity fails",
                    witness=(elements[i], elements[j], elements[k]))
    return FinPoset(elements, tuple(up), {x: i for i, x in enumerate(elements)})


def _parse_poset(elements, leq_pairs):
    elements = tuple(sorted(elements))
    if len(set(elements)) != len(elements):
        raise NotAPartialOrder("duplicate elements", witness=elements)
    index = {x: i for i, x in enumerate(elements)}
    up = [0] * len(elements)
    for x, y in leq_pairs:
        try:
            up[index[x]] |= 1 << index[y]
        except (KeyError, TypeError):
            raise UnknownElement(f"leq mentions unknown element",
                                 witness=(x, y)) from None
    return poset_from_rows(elements, up)


@dataclass(frozen=True, eq=True)
class Pomonoid:
    """Monoid table over a finite poset, monotone in each coordinate.

    `notation` records whether the structure is being read additively (+ / 0)
    or multiplicatively (* / 1); it is presentation-only. The three flags are
    always derived from the table, never taken from input. `flat` is the
    table over element positions: x.y = z when flat[i * n + j] = k for the
    positions i, j, k of x, y, z in the poset's elements.
    """

    poset: FinPoset
    flat: tuple
    unit: str
    notation: str = "additive"
    commutative: bool = field(default=False, compare=False)
    dually_integral: bool = field(default=False, compare=False)
    idempotent: bool = field(default=False, compare=False)

    @property
    def elements(self):
        return self.poset.elements

    def apply(self, x, y):
        els, index_of = self.poset.elements, self.poset.index_of
        return els[self.flat[index_of(x) * len(els) + index_of(y)]]

    def leq(self, x, y):
        return self.poset.leq(x, y)

    def fold(self, xs):
        acc = self.unit
        for x in xs:
            acc = self.apply(acc, x)
        return acc

    @property
    def is_cdi(self):
        return self.commutative and self.dually_integral


def pomonoid_from_flat(poset, flat, unit, notation="additive"):
    """The Pomonoid on `poset` whose table is the complete flat tuple `flat`
    over element positions (see Pomonoid.flat), with the element at position
    `unit` as its unit.

    The laws are scanned in this order, each raising with its first failing
    instance: the unit is two-sided neutral, associativity, then the right
    and left translations are monotone."""
    els, up = poset.elements, poset.up_rows
    n = len(els)
    tab = ByteTable(flat, n)
    t, rows, cols = tab.flat, tab.rows, tab.transposed()
    for x in range(n):
        if t[unit * n + x] != x or t[x * n + unit] != x:
            raise UnitNotNeutral("unit is not two-sided neutral",
                                 witness=(els[unit], els[x]))
    for x in range(n):  # (x.y).z against x.(y.z) at position y * n + z
        bad = row_mismatches([(None, b"".join(map(rows.__getitem__, rows[x])),
                               t.translate(tab.maps[x]))])
        if bad:
            y, z = divmod(bad[0][0], n)
            raise NotAssociative("associativity fails",
                                 witness=(els[x], els[y], els[z]))
    # byte z * n + y of by_z is 1 when x.z <= y.z (right translation) or
    # z.x <= z.y (left), and must be wherever that byte of `above` (x <= y) is
    leq = ByteTable(b"".join(bytes(map(int, f"{row:0{n}b}"[::-1]))
                             for row in up), n)
    for x in range(n):
        above, bad = int.from_bytes(leq.rows[x] * n, "little"), []
        for law, by_z in (("right", leq.at(rows[x], cols.rows)),
                          ("left", leq.at(cols.rows[x], rows))):
            bad += [divmod(b >> 3, n)[::-1] + (law,)
                    for b in _bits(above & ~int.from_bytes(by_z, "little"))]
        if bad:  # the first (y, z), and right before left at one (y, z)
            y, z, law = min(bad, key=lambda b: b[:2])
            raise NotMonotone(law + " translation not monotone",
                              witness=(els[x], els[y], els[z]))
    return Pomonoid(
        poset,
        tuple(t),
        els[unit],
        notation,
        commutative=t == cols.flat,
        dually_integral=up[unit] == (1 << n) - 1,
        idempotent=t[::n + 1] == bytes(range(n)),
    )


def restrict_pomonoid(poset, positions, op_of, unit, notation="additive"):
    """The pomonoid on the elements of `poset` at the ascending `positions`,
    ordered as in `poset`, in which the product of the elements at positions
    i and j is the element at position op_of(i, j), and whose unit is at
    position `unit` (all positions in `poset`).

    A product, and then the unit, outside the positions raises the
    UnknownElement that the label parser raises for it."""
    els, up = poset.elements, poset.up_rows
    local = {p: k for k, p in enumerate(positions)}
    rows = [sum(1 << local[j] for j in _bits(up[p]) if j in local)
            for p in positions]
    sub = poset_from_rows(tuple(els[p] for p in positions), rows)
    flat = []
    for i in positions:
        for j in positions:
            k = op_of(i, j)
            if k not in local:
                sub.index_of(els[k])  # not in sub: raises UnknownElement
            flat.append(local[k])
    if unit not in local:
        sub.index_of(els[unit])
    return pomonoid_from_flat(sub, flat, local[unit], notation)


def flat_from_triples(poset, op_triples):
    """The flat table over element positions (see Pomonoid.flat) of the
    (x, y, x.y) label triples: an unknown element raises UnknownElement in
    the triples' order, then the first missing pair in element order raises
    NotAssociative("operation table incomplete")."""
    els = poset.elements
    n = len(els)
    t = [-1] * (n * n)
    for x, y, z in op_triples:
        i, j, k = (poset.index_of(e) for e in (x, y, z))
        t[i * n + j] = k
    for i, j in product(range(n), repeat=2):
        if t[i * n + j] < 0:
            raise NotAssociative("operation table incomplete",
                                 witness=(els[i], els[j]))
    return tuple(t)


@dataclass(frozen=True)
class MonotoneMap:
    domain: FinPoset
    codomain: FinPoset
    table: tuple  # canonical tuple of (x, f(x))

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.table))

    def apply(self, x):
        return self._table[x]

    def compose(self, other):
        """self after other (as functions)."""
        tab = tuple((x, self.apply(other.apply(x))) for x in other.domain.elements)
        return MonotoneMap(other.domain, self.codomain, tab)


def _build_monotone_map(domain, codomain, mapping):
    table = {}
    for x, y in mapping:
        domain.check_element(x)
        codomain.check_element(y)
        table[x] = y
    for x in domain.elements:
        if x not in table:
            raise NotMonotone("map table incomplete", witness=x)
    for x, y in product(domain.elements, repeat=2):
        if domain.leq(x, y) and not codomain.leq(table[x], table[y]):
            raise NotMonotone("order not preserved", witness=(x, y))
    return MonotoneMap(domain, codomain, tuple(sorted(table.items())))


def validate_structure(raw):
    """Validate a raw structure description: the label front end of
    poset_from_rows and pomonoid_from_flat.

    Accepted shapes (JSON-compatible dicts):
      {"poset": {"elements": [...], "leq": [[x, y], ...]}}
      {"poset": {...}, "monoid": {"op": [[x, y, z], ...], "unit": u,
                                  "notation": "additive"|"multiplicative"}}
      {"map": {"domain": <poset desc>, "codomain": <poset desc>,
               "table": [[x, y], ...]}}
    """
    if "map" in raw:
        spec = raw["map"]
        dom = validate_structure({"poset": spec["domain"]})
        cod = validate_structure({"poset": spec["codomain"]})
        return _build_monotone_map(dom, cod, [tuple(p) for p in spec["table"]])
    poset = _parse_poset(
        raw["poset"]["elements"], [tuple(p) for p in raw["poset"].get("leq", [])]
    )
    if "monoid" not in raw:
        return poset
    mon = raw["monoid"]
    flat = flat_from_triples(poset, [tuple(t) for t in mon["op"]])
    return pomonoid_from_flat(poset, flat, poset.index_of(mon["unit"]),
                              mon.get("notation", "additive"))


def monotone_map(domain, codomain, mapping):
    """Validate an explicit table as a MonotoneMap between built posets."""
    return _build_monotone_map(domain, codomain, list(mapping.items()))


def antichain_ops(poset, subset, mode):
    """Closure/extremal-antichain operations: mode in up|down|min|max."""
    for x in subset:
        poset.check_element(x)
    if mode == "up":
        return poset.up(subset)
    if mode == "down":
        return poset.down(subset)
    if mode == "min":
        return poset.minimal(subset)
    if mode == "max":
        return poset.maximal(subset)
    raise ValueError(f"unknown mode {mode!r}")


def enumerate_monotone_selfmaps(poset, limit=6):
    """All order-preserving self-maps, plus their componentwise order.

    Returns (maps, order_pairs) where order_pairs contains (i, j) whenever
    maps[i] <= maps[j] pointwise. The list is closed under composition and
    contains the identity.
    """
    n = len(poset.elements)
    if n > limit:
        raise TooLarge(f"poset has {n} > {limit} elements", witness=n)
    maps = []
    for values in product(poset.elements, repeat=n):
        tab = dict(zip(poset.elements, values))
        if all(
            poset.leq(tab[x], tab[y])
            for x, y in product(poset.elements, repeat=2)
            if poset.leq(x, y)
        ):
            maps.append(MonotoneMap(poset, poset, tuple(sorted(tab.items()))))
    order = {
        (i, j)
        for i, f in enumerate(maps)
        for j, g in enumerate(maps)
        if all(poset.leq(f.apply(x), g.apply(x)) for x in poset.elements)
    }
    return maps, order


def selfmap_pomonoid(poset, limit=6):
    """The monotone self-maps as a multiplicative pomonoid under composition,
    the i-th map of enumerate_monotone_selfmaps named f<i>. A pomonoid has
    at most 256 elements (see ByteTable): the 6-chain, with 462 monotone
    self-maps, raises TooLarge."""
    maps, order = enumerate_monotone_selfmaps(poset, limit)
    _check_carrier_size(len(maps))
    names = [f"f{i}" for i in range(len(maps))]
    at = sorted(range(len(maps)), key=names.__getitem__)  # map at a position
    pos = {m: p for p, m in enumerate(at)}
    index = {m: i for i, m in enumerate(maps)}
    rows = [0] * len(maps)
    for i, j in order:
        rows[pos[i]] |= 1 << pos[j]
    flat = [pos[index[maps[i].compose(maps[j])]] for i in at for j in at]
    ident = next(i for i, m in enumerate(maps)
                 if all(m.apply(x) == x for x in poset.elements))
    base = poset_from_rows(tuple(names[i] for i in at), rows)
    return (pomonoid_from_flat(base, flat, pos[ident], "multiplicative"),
            dict(zip(names, maps)))
