"""Pins of the label views of finite posets, pomonoids and quantales,
recorded while each structure still stored a label copy beside its position
tables: the order pairs, `leq`, `apply`, `plus`, `join`, `fold`, the
pomonoid flags and the bottom of every quantale of size <= 4, and the pairs,
`leq` and antichain operations of every labeled poset on 4 elements. A
change that alters any of them has changed what a structure answers on
labels. The antichain operations were FinPoset methods when pinned; with
those gone, _antichain_views computes them from `leq`."""

import hashlib
from itertools import combinations, product

import pytest

from oracles import _labeled_posets
from squanta.aqm import make_quantale
from squanta.errors import SquantaError, UnknownElement
from squanta.order import validate_structure
from squanta.search import quantale_descriptions

UNKNOWN = "?"


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _outcome(f):
    try:
        return repr(f())
    except (SquantaError, KeyError) as exc:
        return type(exc).__name__


def _poset_lines(p):
    els = p.elements
    lines = [repr(sorted(p.pairs))]
    lines.append(repr([p.leq(x, y) for x, y in product(els, repeat=2)]))
    lines.append(repr((p.leq(UNKNOWN, els[0]), p.leq(els[0], UNKNOWN))))
    return lines


def _antichain_views(p, s):
    """Up(s), down(s), and the minimal and the maximal elements of s."""
    above = {y for y in p.elements for x in s if p.leq(x, y)}
    below = {y for y in p.elements for x in s if p.leq(y, x)}
    least = {x for x in s if not any(p.leq(y, x) and y != x for y in s)}
    most = {x for x in s if not any(p.leq(x, y) and y != x for y in s)}
    return above, below, least, most


def test_quantale_label_views_as_pinned():
    lines = []
    quantales = []
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        quantales.append(q)
        els, pom = q.elements, q.pomonoid
        lines.extend(_poset_lines(pom.poset))
        lines.append(repr([q.leq(x, y) for x, y in product(els, repeat=2)]))
        lines.append(repr([(pom.apply(x, y), q.plus(x, y))
                           for x, y in product(els, repeat=2)]))
        lines.append(repr([_outcome(lambda: q.join([x, y]))
                           for x, y in product(els, repeat=2)]))
        lines.append(_outcome(lambda: q.join([])))
        lines.append(repr([pom.fold(xs) for xs in
                           ([], list(els), list(reversed(els)))]))
        lines.append(repr((pom.commutative, pom.dually_integral,
                           pom.idempotent, q.bottom)))
    assert len(quantales) == 207
    assert _sha(lines) == QUANTALES_4
    for q, r in combinations(quantales, 2):
        assert q != r
        assert q.pomonoid != r.pomonoid


def test_quantales_equal_their_rebuilds():
    for desc in quantale_descriptions(4):
        q, r = make_quantale(desc), make_quantale(desc)
        assert q == r
        assert hash(q) == hash(r)
        assert q.pomonoid == r.pomonoid
        assert hash(q.pomonoid) == hash(r.pomonoid)
        assert hash(q.pomonoid.poset) == hash(r.pomonoid.poset)


def test_quantales_hash_by_their_pomonoid():
    quantales = [make_quantale(d) for d in quantale_descriptions(3)]
    assert len(quantales) == 15
    for q in quantales:
        assert hash(q) == hash(q.pomonoid)
    rebuilds = {make_quantale(d): i
                for i, d in enumerate(quantale_descriptions(3))}
    assert [rebuilds[q] for q in quantales] == list(range(15))


def test_poset_label_views_as_pinned():
    names = ["a", "b", "c", "d"]
    lines = []
    posets = []
    subsets = [s for k in range(3) for s in combinations(names, k)]
    for up in _labeled_posets(4):
        leq = [[names[i], names[j]] for i in range(4) for j in range(4)
               if i != j and up[i] >> j & 1]
        p = validate_structure({"poset": {"elements": names, "leq": leq}})
        posets.append(p)
        lines.extend(_poset_lines(p))
        lines.append(repr([sorted(v) for s in subsets
                           for v in _antichain_views(p, s)]))
    assert len(posets) == 219
    assert _sha(lines) == POSETS_4
    for p, r in combinations(posets, 2):
        assert p != r


def test_unknown_label_is_an_unknown_element(n2, n2q):
    with pytest.raises(UnknownElement):
        n2.apply("1", UNKNOWN)
    with pytest.raises(UnknownElement):
        n2q.join(["1", UNKNOWN])
    assert not n2.leq(UNKNOWN, "1")


QUANTALES_4 = (
    "e4072ec4162fcdb8adb6c9189f2d413a7670a215c5a26de5c4e0d3e5dc4dfec7")
POSETS_4 = (
    "ba114c1f558f80f029d835b9c4598c74849f77323c2c629a379bbeee017dcb47")
