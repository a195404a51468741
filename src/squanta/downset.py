"""Finitely generated non-empty downsets of multiupsets over a poset (the DM
construction), in antichain normal form.

A downset's `base` is the finite poset its generator multiupsets live on;
order, sum and zero of the generators are those of `multiupset`.
"""

import re
from itertools import product

from .errors import BaseMismatch, EmptyGeneratorSet, NotAHomomorphism, UnknownElement
from .multiupset import Multiupset, mleq, msum, parse_multiupset

__all__ = [
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


class FGDownset:
    """Non-empty downset denoted by its antichain of maximal generators,
    multiupsets over the poset `base`.

    `key` holds the count vectors of the generators, which determine them
    over one base. Equality compares keys and then bases, the base by
    identity first; the hash, computed once, is the key's, so hashing never
    visits the base."""

    __slots__ = ("base", "maxgens", "key", "_hash")

    def __init__(self, base, maxgens):
        self.base = base
        self.maxgens = tuple(maxgens)
        self.key = tuple(g._key for g in self.maxgens)
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
        """The denoted downset restricted to an explicit universe of multiupsets."""
        return [x for x in universe if any(mleq(x, g) for g in self.maxgens)]


def _check_generator(base, g):
    if not (isinstance(g, Multiupset) and (g.base is base or g.base == base)):
        raise UnknownElement("generator outside the base", witness=g)


def normalize(base, gens):
    """Antichain normal form of a non-empty generator list."""
    gens = list(gens)
    if not gens:
        raise EmptyGeneratorSet("downsets are non-empty; no generators given")
    for g in gens:
        _check_generator(base, g)
    distinct = list({g._key: g for g in reversed(gens)}.items())
    maximal = [
        (k, g) for k, g in distinct
        if not any(mleq(g, h) for k2, h in distinct if k2 != k)
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
    return normalize(p.base, [msum(g, h) for g in p.maxgens for h in q.maxgens])


def dleq(p, q):
    """Inclusion order: every generator of p lies below some generator of q."""
    _check_same_base(p, q)
    return all(any(mleq(g, h) for h in q.maxgens) for g in p.maxgens)


def dzero(base):
    return FGDownset(base, (Multiupset(base, ()),))


def unit_embed(base, a):
    """Principal downset of a multiupset over the base."""
    _check_generator(base, a)
    return FGDownset(base, (a,))


# "v[" then one or more multiupset literals "[...]" split by commas, then "]"
_MULTIUPSET = r"\[[^\[\]]*\]"
_DOWNSET = re.compile(rf"v\[\s*{_MULTIUPSET}(\s*,\s*{_MULTIUPSET})*\s*\]")


def parse_downset(base, text):
    """Parse the downset literal used in configs and reports:
    "v[[p],[q,q]]" denotes the downset of the listed multiupsets; "v[[]]"
    is the zero downset. Anything else around or between the multiupset
    literals, brackets that do not pair up included, raises UnknownElement.
    """
    text = text.strip()
    if not _DOWNSET.fullmatch(text):
        raise UnknownElement(f"bad downset literal {text!r}", witness=text)
    return normalize(base, [parse_multiupset(base, g)
                            for g in re.findall(_MULTIUPSET, text)])


def free_extend_quantale(base, h, target, validate_on=None):
    """Extend a pomonoid homomorphism on the multiupsets over `base` to its
    downsets by taking joins.

    This states the freeness of the DM construction: DM(base) is the free
    generalized quantale on the multiupset pomonoid over `base`, so every
    pomonoid homomorphism h into a generalized quantale has exactly one
    extension preserving joins and sums, p -> join of h(g) over the maximal
    generators g of p. `h` is a callable multiupset -> target-element;
    `target` is a finite generalized quantale, so the joins exist. When
    `validate_on` is given (a finite list of multiupsets over `base`), the
    sum, zero and order laws of `h` are checked on it first, in that order.
    """
    if validate_on is not None:
        for x, y in product(validate_on, repeat=2):
            if h(msum(x, y)) != target.plus(h(x), h(y)):
                raise NotAHomomorphism("sum not preserved", witness=(x, y))
        zero = Multiupset(base, ())
        if h(zero) != target.zero:
            raise NotAHomomorphism("zero not preserved", witness=zero)
        for x, y in product(validate_on, repeat=2):
            if mleq(x, y) and not target.leq(h(x), h(y)):
                raise NotAHomomorphism("order not preserved", witness=(x, y))

    def evaluator(p):
        if p.base is not base and p.base != base:
            raise BaseMismatch("downset over a different base", witness=p)
        return target.join([h(g) for g in p.maxgens])

    return evaluator
