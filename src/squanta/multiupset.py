"""Finitely generated multiupsets over a finite poset.

A multiupset is represented canonically by its count vector: the number of
generators below each element, in element order. The vector is built from
the base's up-set bitmask rows, and sums and comparisons run on it; the
generator multiset is kept only as a presentation. Values are immutable and
all operations are pure.
"""

from itertools import combinations_with_replacement
from operator import add

from .errors import BaseMismatch, NotCDI, UnknownElement
from .order import FinPoset, _bits

__all__ = [
    "Multiupset",
    "generator_embed",
    "msum",
    "mleq",
    "decompose",
    "free_extend_pomonoid",
    "enumerate_fragment",
    "parse_multiupset",
]

MAX_COUNT = 10**6  # multiplicities stay tiny at desk scale; anything near this is a bug


class Multiupset:
    """Order-preserving map base -> N presented by a generator multiset.

    `_key` is the count vector: `_key[j]` is the number of generators below
    `base.elements[j]`. It determines the multiupset over its base."""

    __slots__ = ("base", "gens", "_key", "_counts")

    def __init__(self, base: FinPoset, gens):
        gens = tuple(sorted(gens))
        up = base.up_rows
        key = [0] * len(up)
        for a in gens:
            for j in _bits(up[base.index_of(a)]):
                key[j] += 1
        self._fill(base, gens, tuple(key))

    def _fill(self, base, gens, key):
        if max(key, default=0) > MAX_COUNT:
            raise OverflowError("multiupset multiplicity overflow")
        self.base = base
        self.gens = gens
        self._key = key
        self._counts = None

    @property
    def counts(self):
        """The evaluation table element -> N."""
        if self._counts is None:
            self._counts = dict(zip(self.base.elements, self._key))
        return self._counts

    @property
    def total_multiplicity(self):
        return len(self.gens)

    def __eq__(self, other):
        return (
            isinstance(other, Multiupset)
            and self._key == other._key
            and (self.base is other.base or self.base == other.base)
        )

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "[" + ",".join(self.gens) + "]"


def _check_same_base(f, g):
    if f.base is not g.base and f.base != g.base:
        raise BaseMismatch("multiupsets over different posets", witness=(f, g))


def generator_embed(base, a):
    """The principal multiupset of a single generator."""
    return Multiupset(base, (a,))


def msum(f, g):
    """Pointwise sum: the count vectors add."""
    _check_same_base(f, g)
    m = Multiupset.__new__(Multiupset)
    m._fill(f.base, tuple(sorted(f.gens + g.gens)),
            tuple(map(add, f._key, g._key)))
    return m


def mleq(f, g):
    """Componentwise order on count vectors."""
    _check_same_base(f, g)
    return all(map(int.__le__, f._key, g._key))


def _multiplicities(base, key):
    """Generator multiplicities of a count vector, by Moebius inversion over
    the poset (Rota 1964): key(x) is the sum of m(a) over a <= x, so
    m(x) = key(x) - sum of m(a) over a < x, taken in an order that lists
    every element after the elements below it."""
    up = base.up_rows
    below = [[a for a in range(len(up)) if a != x and up[a] >> x & 1]
             for x in range(len(up))]
    m = [0] * len(up)
    for x in sorted(range(len(up)), key=lambda x: len(below[x])):
        m[x] = key[x] - sum(m[a] for a in below[x])
    return m


def decompose(f):
    """Canonical generator multiset of a multiupset, read off its count
    vector by Moebius inversion; exact on every finite poset."""
    m = _multiplicities(f.base, f._key)
    return tuple(sorted(x for x, c in zip(f.base.elements, m) for _ in range(c)))


def free_extend_pomonoid(h, target):
    """Extend a map on generators to the additive evaluator on multiupsets.

    `h` is a MonotoneMap from the base poset into the poset of `target`,
    a commutative dually integral pomonoid. Returns a callable evaluator
    that folds h over the decomposition; it agrees with h on generators and
    is additive with unit 0.
    """
    if not target.is_cdi:
        raise NotCDI(
            "target pomonoid must be commutative and dually integral",
            witness=(target.commutative, target.dually_integral),
        )
    base = h.domain

    def evaluator(f):
        if f.base is not base and f.base != base:
            raise BaseMismatch("multiupset over a different poset", witness=f)
        return target.fold(h.apply(a) for a in decompose(f))

    return evaluator


def enumerate_fragment(base, k):
    """All multiupsets of total generator multiplicity <= k (duplicate-free)."""
    seen = {}
    for size in range(k + 1):
        for gens in combinations_with_replacement(base.elements, size):
            m = Multiupset(base, gens)
            seen.setdefault(m._key, m)
    return [m for _, m in sorted(seen.items())]


def parse_multiupset(base, text):
    """Parse the literal syntax used in configs and reports: "[a,a,b]"
    (order-insensitive, repetition is multiplicity); "[]" is empty."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise UnknownElement(f"bad multiupset literal {text!r}", witness=text)
    body = text[1:-1].strip()
    gens = [g.strip() for g in body.split(",")] if body else []
    return Multiupset(base, gens)
