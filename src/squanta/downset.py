"""Finitely generated non-empty downsets in antichain normal form.

The same representation covers downsets of a c.d.i. pomonoid (Down M) and
downsets of the multiupset pomonoid over a poset (the DM construction):
the difference is the base adapter, which supplies order, sum, and zero
for the underlying elements.
"""

from dataclasses import dataclass

from .errors import BaseMismatch, EmptyGeneratorSet, NotAHomomorphism, UnknownElement
from .multiupset import Multiupset, enumerate_fragment, mleq, msum, parse_multiupset
from .order import FinPoset, Pomonoid

__all__ = [
    "PomonoidBase",
    "MultiBase",
    "FGDownset",
    "normalize",
    "djoin",
    "dsum",
    "dleq",
    "dzero",
    "unit_embed",
    "parse_downset",
    "free_extend_quantale",
]


@dataclass(frozen=True)
class PomonoidBase:
    """Downsets of a c.d.i. pomonoid: elements are the pomonoid's own."""

    pomonoid: Pomonoid

    def leq(self, x, y):
        return self.pomonoid.leq(x, y)

    def add(self, x, y):
        return self.pomonoid.apply(x, y)

    @property
    def zero(self):
        return self.pomonoid.unit

    def sort_key(self, x):
        return x

    def contains(self, x):
        return x in self.pomonoid.elements


@dataclass(frozen=True)
class MultiBase:
    """Downsets of the multiupset pomonoid over a poset."""

    poset: FinPoset

    def leq(self, x, y):
        return mleq(x, y)

    def add(self, x, y):
        return msum(x, y)

    @property
    def zero(self):
        return Multiupset(self.poset, ())

    def sort_key(self, x):
        return x.sort_key()

    def contains(self, x):
        return isinstance(x, Multiupset) and (
            x.base is self.poset or x.base == self.poset)

    def enumerate(self, bound=4):
        return enumerate_fragment(self.poset, bound)


class FGDownset:
    """Non-empty downset denoted by its antichain of maximal generators.

    `key` holds the base's sort keys of the generators (their count vectors
    over a MultiBase), which determine them over one base. Equality compares
    keys and then bases, the base by identity first; the hash, computed
    once, is the key's, so hashing never visits the base."""

    __slots__ = ("base", "maxgens", "key", "_hash")

    def __init__(self, base, maxgens):
        self.base = base
        self.maxgens = tuple(maxgens)
        self.key = tuple(map(base.sort_key, self.maxgens))
        self._hash = hash(self.key)

    def __eq__(self, other):
        return (
            isinstance(other, FGDownset)
            and self.key == other.key
            and (self.base is other.base or self.base == other.base)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "v[" + ",".join(repr(g) for g in self.maxgens) + "]"

    def sort_key(self):
        return (len(self.key), self.key)

    def members(self, universe):
        """The denoted downset restricted to an explicit universe of elements."""
        return [
            x for x in universe if any(self.base.leq(x, g) for g in self.maxgens)
        ]


def normalize(base, gens):
    """Antichain normal form of a non-empty generator list."""
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("downsets are non-empty; no generators given")
    for g in gens:
        if not base.contains(g):
            raise UnknownElement("generator outside the base", witness=g)
    distinct = list({base.sort_key(g): g for g in reversed(gens)}.items())
    maximal = [
        (k, g) for k, g in distinct
        if not any(base.leq(g, h) for k2, h in distinct if k2 != k)
    ]
    maximal.sort(key=lambda kg: kg[0])
    return FGDownset(base, [g for _, g in maximal])


def _check_same_base(p, q):
    if p.base is not q.base and p.base != q.base:
        raise BaseMismatch("downsets over different bases", witness=(p, q))


def djoin(downsets):
    """Join (union) of a non-empty family."""
    downsets = list(downsets)
    if not downsets:
        raise EmptyGeneratorSet("join of an empty family is not representable")
    first = downsets[0]
    for other in downsets[1:]:
        _check_same_base(first, other)
    gens = [g for p in downsets for g in p.maxgens]
    return normalize(first.base, gens)


def dsum(p, q):
    """Sum: downset of pairwise sums, computed on maximal generators."""
    _check_same_base(p, q)
    return normalize(
        p.base, [p.base.add(g, h) for g in p.maxgens for h in q.maxgens]
    )


def dleq(p, q):
    """Inclusion order: every generator of p lies below some generator of q."""
    _check_same_base(p, q)
    return all(any(p.base.leq(g, h) for h in q.maxgens) for g in p.maxgens)


def dzero(base):
    return FGDownset(base, (base.zero,))


def unit_embed(base, a):
    """Principal downset of a base element."""
    if not base.contains(a):
        raise UnknownElement("element outside the base", witness=a)
    return FGDownset(base, (a,))


def parse_downset(base, text):
    """Parse the downset literal used in configs and reports:
    "v[[p],[q,q]]" denotes the downset of the listed multiupsets; "v[[]]"
    is the zero downset. Pomonoid bases use bare element names: "v[1,2]".
    """
    text = text.strip()
    if not (text.startswith("v[") and text.endswith("]")):
        raise UnknownElement(f"bad downset literal {text!r}", witness=text)
    body = text[2:-1].strip()
    if isinstance(base, MultiBase):
        gens, depth, start = [], 0, None
        for i, ch in enumerate(body):
            if ch == "[":
                if depth == 0:
                    start = i
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    gens.append(parse_multiupset(base.poset, body[start:i + 1]))
        return normalize(base, gens)
    return normalize(base, [g.strip() for g in body.split(",") if g.strip()])


def free_extend_quantale(base, h, target, validate_on=None):
    """Extend a pomonoid homomorphism on the base to downsets by taking joins.

    `h` is a callable base-element -> target-element; `target` is a finite
    generalized quantale (joins of images of maximal generators therefore
    exist). When `validate_on` is given (a finite list of base elements), the
    homomorphism equations of `h` are checked on it first.
    """
    if validate_on is not None:
        for x in validate_on:
            for y in validate_on:
                if h(base.add(x, y)) != target.plus(h(x), h(y)):
                    raise NotAHomomorphism("sum not preserved", witness=(x, y))
        if h(base.zero) != target.zero:
            raise NotAHomomorphism("zero not preserved", witness=base.zero)

    def evaluator(p):
        if p.base is not base and p.base != base:
            raise BaseMismatch("downset over a different base", witness=p)
        return target.join([h(g) for g in p.maxgens])

    return evaluator
