"""Finite posets, pomonoids and monotone maps.

All values are immutable after validation. Element identifiers are opaque
strings kept in sorted order, and a poset or pomonoid holds only tables over
the positions of its elements, so equality of validated structures is
equality of tables; label operations look their arguments up by position.
"""

from dataclasses import dataclass, field
from functools import cached_property
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
    "join_positions",
    "flat_from_triples",
    "ByteTable",
    "enumerate_monotone_selfmaps",
]


@dataclass(frozen=True)
class FinPoset:
    """Finite partial order on the sorted tuple `elements`: bit j of
    `up_rows[i]` is set when elements[i] <= elements[j], and `index` maps
    each element to its position. Equality compares the up-set rows; the
    order's `down_rows` and `leq_table` are built on first use."""

    elements: tuple
    up_rows: tuple
    index: dict = field(compare=False, repr=False)

    @cached_property
    def down_rows(self):  # bit j of down_rows[i]: elements[j] <= elements[i]
        up = self.up_rows
        return tuple(sum(1 << y for y, row in enumerate(up) if row >> x & 1)
                     for x in range(len(up)))

    @cached_property
    def leq_table(self):  # 0/1: 1 at i, j when elements[i] <= elements[j]
        n = len(self.elements)  # a row's n binary digits, bit 0 first: the
        # set bit n keeps leading zeros, and the reversal drops it
        digits = "".join(format(row | 1 << n, "b")[:0:-1]
                         for row in self.up_rows).encode()
        return ByteTable(digits.translate(bytes.maketrans(b"01", b"\0\1")), n)

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
    each row as a bytes.translate table, from their first use. The methods
    build one side of a law as one byte row over a block of instances. A
    table on more than 256 elements raises TooLarge, with its size as
    witness. Tables compare by `flat`; a held table is compiled once, by
    the structure that holds it."""

    def __init__(self, flat, n):
        _check_carrier_size(n)
        self.flat = t = bytes(flat)
        self.rows = [t[i:i + n] for i in range(0, len(t), n or 1)]

    @cached_property
    def maps(self):  # 256 bytes a row: built only for tables that need them
        return [r.ljust(256, b"\0") for r in self.rows]

    def __eq__(self, other):
        return isinstance(other, ByteTable) and self.flat == other.flat

    def __hash__(self):
        return hash(self.flat)

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

    The three flags are always derived from the table, never taken from
    input. `flat` is the bytes of `table`, over element positions: x.y = z
    when flat[i * n + j] = k for the positions i, j, k of x, y, z in the
    poset's elements.
    """

    poset: FinPoset
    table: ByteTable = field(repr=False)
    unit: str
    commutative: bool = field(default=False, compare=False)
    dually_integral: bool = field(default=False, compare=False)
    idempotent: bool = field(default=False, compare=False)

    @property
    def elements(self):
        return self.poset.elements

    @property
    def flat(self):
        return self.table.flat

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


def pomonoid_from_flat(poset, flat, unit):
    """The Pomonoid on `poset` whose table is the complete flat tuple `flat`
    over element positions (see Pomonoid.flat), with the element at position
    `unit` as its unit.

    The laws are scanned in this order, each raising with its first failing
    instance: the unit is two-sided neutral, associativity, then the right
    and left translations are monotone. Associativity and monotonicity are
    decided over blocks of x, all (y, z) at once, each side of a block at
    most 64 KiB of byte rows: one block for n <= 40."""
    els, up = poset.elements, poset.up_rows
    n = len(els)
    tab = ByteTable(flat, n)
    t, rows, cols = tab.flat, tab.rows, tab.transposed()
    ident = bytes(range(n))
    bad = row_mismatches([(None, rows[unit], ident), (None, t[unit::n], ident)])
    if bad:
        raise UnitNotNeutral("unit is not two-sided neutral",
                             witness=(els[unit], els[bad[0][0]]))
    leq, step = poset.leq_table, max(1, min(n, 65536 // n // n))  # x per block
    for x0 in range(0, n, step):  # (x.y).z against x.(y.z), at (x, y, z)
        bad = row_mismatches([(None, b"".join(map(rows.__getitem__,
                                                  t[x0 * n:(x0 + step) * n])),
                               b"".join(map(tab.after, rows[x0:x0 + step])))])
        if bad:
            j = bad[0][0]
            raise NotAssociative("associativity fails", witness=(
                els[x0 + j // n // n], els[j // n % n], els[j % n]))
    # byte (x, z, y) of by_z is 1 when x.z <= y.z (right translation) or
    # z.x <= z.y (left), and must be wherever that byte of `above` (x <= y) is
    for x0 in range(0, n, step):
        xz = slice(x0 * n, (x0 + step) * n)
        above = int.from_bytes(b"".join(r * n for r in leq.rows[x0:x0 + step]),
                               "little")
        bad = [(j // n // n, j % n, j // n % n, law) for law, by_z in (
            ("right", leq.at(t[xz], cols.rows * step)),
            ("left", leq.at(cols.flat[xz], rows * step)),
        ) for j in (b >> 3 for b in _bits(
            above & ~int.from_bytes(by_z, "little")))]
        if bad:  # the first (x, y, z), and right before left at one (x, y, z)
            x, y, z, law = min(bad, key=lambda b: b[:3])
            raise NotMonotone(law + " translation not monotone",
                              witness=(els[x0 + x], els[y], els[z]))
    return Pomonoid(
        poset,
        tab,
        els[unit],
        commutative=t == cols.flat,
        dually_integral=up[unit] == (1 << n) - 1,
        idempotent=t[::n + 1] == ident,
    )


def restrict_pomonoid(poset, positions, table, unit):
    """The pomonoid on the elements of `poset` at the ascending `positions`,
    ordered as in `poset`, in which the product of the elements at positions
    i and j is at table[i * n + j], bytes over the n positions of `poset`,
    and whose unit is at position `unit`.

    A product, and then the unit, outside the positions raises the
    UnknownElement that the label parser raises for it."""
    els, up, n = poset.elements, poset.up_rows, len(poset.elements)
    local = {p: k for k, p in enumerate(positions)}
    rows = [sum(1 << local[j] for j in _bits(up[p]) if j in local)
            for p in positions]
    sub = poset_from_rows(tuple(els[p] for p in positions), rows)
    flat = [table[i * n + j] for i in positions for j in positions]
    for k in flat + [unit]:
        if k not in local:
            sub.index_of(els[k])  # not in sub: raises UnknownElement
    return pomonoid_from_flat(sub, [local[k] for k in flat], local[unit])


def join_positions(up_rows):
    """x v y at x * n + y for the order with these up-set rows (FinPoset),
    None where there is none: the element whose up-set is up[x] & up[y]."""
    by_up = {row: i for i, row in enumerate(up_rows)}
    return [by_up.get(x & y) for x in up_rows for y in up_rows]


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
      {"poset": {...}, "monoid": {"op": [[x, y, z], ...], "unit": u}}
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
    return pomonoid_from_flat(poset, flat, poset.index_of(mon["unit"]))


def monotone_map(domain, codomain, mapping):
    """Validate an explicit table as a MonotoneMap between built posets."""
    return _build_monotone_map(domain, codomain, list(mapping.items()))


def enumerate_monotone_selfmaps(poset):
    """All order-preserving self-maps, plus their componentwise order.

    Returns (maps, order_pairs) where order_pairs contains (i, j) whenever
    maps[i] <= maps[j] pointwise. The list is closed under composition and
    contains the identity. More than 6 elements raise TooLarge.
    """
    n = len(poset.elements)
    if n > 6:
        raise TooLarge(f"poset has {n} > 6 elements", witness=n)
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


def selfmap_pomonoid(poset):
    """The monotone self-maps as a multiplicative pomonoid under composition,
    the i-th map of enumerate_monotone_selfmaps named f<i>. A pomonoid has
    at most 256 elements (see ByteTable): the 6-chain, with 462 monotone
    self-maps, raises TooLarge."""
    maps, order = enumerate_monotone_selfmaps(poset)
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
    return (pomonoid_from_flat(base, flat, pos[ident]),
            dict(zip(names, maps)))
