"""The presentation enumerators against the scans of every candidate they
replaced (tests/oracles.py): equal lists, in the same order. And the
NextClosure progress guard, on a mutant of enumerate_consequences that
would otherwise loop."""

import ast
import inspect
import textwrap

import pytest

from oracles import (
    closure_operators,
    partition_congruences,
    product_nuclei,
    round_robin_consequences,
)
from squanta.aqm import make_quantale
from squanta.errors import NoProgress
from squanta.nucleus import (
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
)
from squanta.search import quantale_descriptions


def _compare(quantales):
    """The three enumerations' lengths, after checking each list against
    its scan."""
    counts = [0, 0, 0]
    for q in quantales:
        for i, (got, want) in enumerate((
                (enumerate_nuclei(q), product_nuclei(q)),
                (enumerate_consequences(q), round_robin_consequences(q)),
                (enumerate_congruences(q), partition_congruences(q)))):
            assert got == want, (i, q.pomonoid)
            counts[i] += len(got)
    return counts


def test_enumerators_match_the_scans_at_size_four():
    assert _compare(map(make_quantale, quantale_descriptions(4))) == [1151] * 3


def test_enumerators_match_the_scans_on_every_twentieth_at_size_five():
    descs = quantale_descriptions(5)[::20]
    assert len(descs) == 313
    assert _compare(map(make_quantale, descs)) == [2977] * 3


def test_enumerators_match_the_scans_on_a_noncommutative_sum(chain4_nc):
    assert _compare([chain4_nc]) == [5, 5, 5]


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


class _SkipTestShift(ast.NodeTransformer):
    """`if a >> p & 1: continue` becomes `if a << p & 1: continue`: every
    bit above the lowest is tried again, and its closure adds nothing."""

    def visit_If(self, node):
        test = node.test
        if (isinstance(test, ast.BinOp) and isinstance(test.left, ast.BinOp)
                and isinstance(test.left.op, ast.RShift)
                and ast.unparse(test.left) == "a >> p"):
            test.left.op = ast.LShift()
            self.found += 1
        return self.generic_visit(node)


def test_nextclosure_stops_when_it_does_not_advance(n2q):
    tree = ast.parse(textwrap.dedent(inspect.getsource(enumerate_consequences)))
    shift = _SkipTestShift()
    shift.found = 0
    shift.visit(tree)
    assert shift.found == 1
    scope = dict(enumerate_consequences.__globals__)
    exec(compile(tree, "<mutant>", "exec"), scope)
    with pytest.raises(NoProgress):
        scope["enumerate_consequences"](n2q)
