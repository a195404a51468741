"""The presentation enumerators against the scans of every candidate they
replaced (tests/oracles.py): equal lists, in the same order. And, for
enumerate_consequences, the number of closures Close-by-One computes, and
its guard against reaching a closed set twice, on a mutant whose
canonicity test keeps every closure."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from oracles import (
    closure_operators,
    partition_congruences,
    product_nuclei,
    round_robin_consequences,
    set_partitions,
)
from squanta.aqm import make_quantale
from squanta.errors import NoProgress
from squanta.nucleus import (
    _partitions,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
)
from squanta.search import quantale_descriptions


def consequences_and_closures(q):
    """enumerate_consequences(q), and how many times it ran its nested
    `close`, counted from the calls of that code object under
    sys.setprofile."""
    close = next(c for c in enumerate_consequences.__code__.co_consts
                 if getattr(c, "co_name", None) == "close")
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is close:
            calls.append(None)

    sys.setprofile(count)
    try:
        relations = enumerate_consequences(q)
    finally:
        sys.setprofile(None)
    return relations, len(calls)


def _compare(quantales):
    """The three enumerations' lengths, after checking each list against
    its scan, and the number of closures enumerate_consequences computed.
    Each closure grows its parent's closed rows, and a test an inherited
    failure decides computes none; NextClosure, closing every candidate
    from >=, computed 2,902 closures at size <= 4 and 11,404 on every 20th
    quantale of size <= 5."""
    counts = [0, 0, 0, 0]
    for q in quantales:
        relations, closures = consequences_and_closures(q)
        for i, (got, want) in enumerate((
                (enumerate_nuclei(q), product_nuclei(q)),
                (relations, round_robin_consequences(q)),
                (enumerate_congruences(q), partition_congruences(q)))):
            assert got == want, (i, q.pomonoid)
            counts[i] += len(got)
        counts[3] += closures
    return counts


def test_enumerators_match_the_scans_at_size_four():
    assert _compare(map(make_quantale, quantale_descriptions(4))) == \
        [1151] * 3 + [1818]


def test_enumerators_match_the_scans_on_every_twentieth_at_size_five():
    descs = quantale_descriptions(5)[::20]
    assert len(descs) == 313
    assert _compare(map(make_quantale, descs)) == [2977] * 3 + [5610]


def test_enumerators_match_the_scans_on_a_noncommutative_sum(chain4_nc):
    assert _compare([chain4_nc]) == [5, 5, 5, 8]


def test_only_closure_operators_reach_the_sum_law(monkeypatch):
    """The backtracking cuts every monotone, expansive or idempotent failure
    before a map is complete, so the complete maps it decides are exactly
    the closure operators, in lexicographic order."""
    decided = []
    holds = enumerate_nuclei.__globals__["_holds"]
    monkeypatch.setitem(enumerate_nuclei.__globals__, "_holds",
                        lambda g: decided.append(g.values) or holds(g))
    total = 0
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        decided.clear()
        enumerate_nuclei(q)
        els = list(q.elements)
        assert decided == [tuple(els.index(v) for _, v in table)
                           for table in closure_operators(els, q.leq)]
        total += len(decided)
    assert total == 1541


class _KeepEveryClosure(ast.NodeTransformer):
    """The canonicity test `if (b & ~a) >> p + 1:` becomes `if False:`:
    every closure is grown again, so a closed set that can be reached by
    adding more than one bit is reached more than once."""

    def visit_If(self, node):
        if ast.unparse(node.test) == "(b & ~a) >> p + 1":
            node.test = ast.copy_location(ast.Constant(False), node.test)
            self.found += 1
        return self.generic_visit(node)


def test_close_by_one_stops_when_it_reaches_a_closed_set_twice(n2q):
    # compiled on the lines of nucleus.py, so that a line tracer (and a
    # traceback) sees the guard run where it stands
    lines, first = inspect.getsourcelines(enumerate_consequences)
    tree = ast.increment_lineno(ast.parse(textwrap.dedent("".join(lines))),
                                first - 1)
    keep = _KeepEveryClosure()
    keep.found = 0
    keep.visit(tree)
    assert keep.found == 1
    scope = dict(enumerate_consequences.__globals__)
    exec(compile(tree, inspect.getsourcefile(enumerate_consequences), "exec"),
         scope)
    with pytest.raises(NoProgress, match="reached a closed set twice"):
        scope["enumerate_consequences"](n2q)


def test_partitions_are_built_once_per_size():
    # Bell numbers (OEIS A000110), in the order of the scan over
    # set_partitions, each partition held by the least element of each
    # point's class; one tuple per n, and none built at import
    for n, count in enumerate([1, 1, 2, 5, 15, 52, 203, 877]):
        parts = _partitions(n)
        assert len(parts) == count
        assert parts == tuple(tuple(next(k[0] for k in p if y in k)
                                    for y in range(n))
                              for p in set_partitions(range(n)))
        assert _partitions(n) is parts
    src = str(Path(inspect.getfile(enumerate_congruences)).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", "from squanta.nucleus import _partitions; "
         "print(_partitions.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert fresh.stdout == "0\n"
