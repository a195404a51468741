"""Finite posets, pomonoids and monotone maps.

All values are immutable after validation. Element identifiers are opaque
strings kept in sorted order, and a poset, pomonoid or monotone map holds
only tables over the positions of its elements (a map, the bytes of its
values), so equality of validated structures is equality of tables; label
operations look their arguments up by position.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import and_

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
    "monotone_map",
    "selfmap_pomonoid",
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

    @cached_property
    def down_maps(self):  # translate maps: byte z of the y-th is 1 at z <= y
        return self.leq_table.transposed().maps

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
    """Order-preserving map sending domain.elements[i] to
    codomain.elements[values[i]]; `table` and `apply` are label views."""

    domain: FinPoset
    codomain: FinPoset
    values: bytes

    @property
    def table(self):  # the (x, f(x)) label pairs in element order
        els = self.codomain.elements
        return tuple(zip(self.domain.elements, map(els.__getitem__, self.values)))

    def apply(self, x):
        return self.codomain.elements[self.values[self.domain.index_of(x)]]


def order_breaks(domain, codomain, f):
    """Bit 8 * (i * n + j) set for each i <= j of `domain` (n elements) with
    f[i] not <= f[j] in `codomain`, for a byte map f: 0 when f is monotone."""
    return (int.from_bytes(domain.leq_table.flat, "little")
            & ~int.from_bytes(codomain.leq_table.pairs(f), "little"))


def pointwise_rows(codomain, maps):
    """Up-set rows of the pointwise order on byte maps into `codomain`: the &
    over x of above[x][f[x]], the maps whose value at x is above f[x]."""
    up = codomain.up_rows
    above = [[sum(1 << j for j, g in enumerate(maps) if up[v] >> g[x] & 1)
              for v in range(len(up))] for x in range(len(maps[0]))]
    return [reduce(and_, map(list.__getitem__, above, f), (1 << len(maps)) - 1)
            for f in maps]


def monotone_map(domain, codomain, mapping):
    """The MonotoneMap of a label table, a dict or (x, y) pairs (the last
    pair for an x counts). An unknown element raises UnknownElement at its
    pair; then the first x without a value, or else the first x <= y in
    element order with f(x) not <= f(y), raises NotMonotone."""
    values = [None] * len(domain.elements)
    for x, y in mapping.items() if isinstance(mapping, dict) else mapping:
        i = domain.index_of(x)  # before y: of two unknown labels, x is named
        values[i] = codomain.index_of(y)
    if None in values:
        raise NotMonotone("map table incomplete",
                          witness=domain.elements[values.index(None)])
    els, n, f = domain.elements, len(values), bytes(values)
    if bad := order_breaks(domain, codomain, f):
        k = next(_bits(bad)) >> 3
        raise NotMonotone("order not preserved", witness=(els[k // n], els[k % n]))
    return MonotoneMap(domain, codomain, f)


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
        return monotone_map(dom, cod, map(tuple, spec["table"]))
    poset = _parse_poset(
        raw["poset"]["elements"], [tuple(p) for p in raw["poset"].get("leq", [])]
    )
    if "monoid" not in raw:
        return poset
    mon = raw["monoid"]
    flat = flat_from_triples(poset, [tuple(t) for t in mon["op"]])
    return pomonoid_from_flat(poset, flat, poset.index_of(mon["unit"]))


def selfmap_pomonoid(poset):
    """The monotone self-maps as a multiplicative pomonoid under composition
    (f.g is f after g), ordered pointwise, and {name: MonotoneMap}, the i-th
    monotone value tuple in product order named f<i>. More than 6 elements,
    or than 256 maps (see ByteTable: the 6-chain has 462), raise TooLarge
    before anything is composed."""
    n = len(poset.elements)
    if n > 6:
        raise TooLarge(f"poset has {n} > 6 elements", witness=n)
    found = [f for f in map(bytes, product(range(n), repeat=n))
             if not order_breaks(poset, poset, f)]
    _check_carrier_size(len(found))
    at = sorted(range(len(found)), key=str)  # f<i> at its name's position
    maps = [found[i] for i in at]
    pos = {f: p for p, f in enumerate(maps)}
    flat = [pos[g.translate(f.ljust(256, b"\0"))] for f in maps for g in maps]
    base = poset_from_rows(tuple(f"f{i}" for i in at), pointwise_rows(poset, maps))
    return (pomonoid_from_flat(base, flat, pos[bytes(range(n))]),
            {f"f{i}": MonotoneMap(poset, poset, f) for i, f in enumerate(found)})
