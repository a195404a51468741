"""Pins of the finite-table law scans on failing inputs: check_aqm on every
single-cell mutant of two AQM product tables, pomonoid_from_flat and
FinGenQuantale on every single-cell mutant of every + table of size <= 3,
and the module-table scan on every single-cell mutant of the A3 self-module.
Each pin is the SHA-256 of the report lines, counts and first errors, so a
scan that finds other failures, in another order or with other witnesses,
changes it. A single-cell mutant at (a, b) breaks a right-distributivity
or translation-monotonicity law only at the instances with z = b, so the
two-cell mutants pin the order of failures at several z as well."""

from itertools import combinations, product

from oracles import _labeled_posets
from test_law_scan_pins import _record, _sha

from squanta import fixtures as fx
from squanta.aqm import AQM, FinGenQuantale, check_aqm, exp_end, make_quantale
from squanta.errors import LawViolated, SquantaError
from squanta.modact import ActionMap, check_action
from squanta.order import (ByteTable, Pomonoid, pomonoid_from_flat,
                           poset_from_rows)
from squanta.search import quantale_descriptions


def _cell_mutants(flat, n, k=1):
    """`flat` with k of its cells set to other values, in every way."""
    for cells in combinations(range(len(flat)), k):
        for values in product(range(n), repeat=k):
            if all(flat[c] != z for c, z in zip(cells, values)):
                t = list(flat)
                for c, z in zip(cells, values):
                    t[c] = z
                yield tuple(t)


def _first_error(build):
    try:
        build()
    except SquantaError as exc:
        return f"{type(exc).__name__} {exc}"
    return "ok"


def _aqm_mutant_lines(a, k=1):
    lines = []
    for t in _cell_mutants(a.mult_op.flat, len(a.quant.elements), k):
        b = AQM(a.dist, a.quant, t, a.one, a.iota, name=a.name)
        rep = check_aqm(b, strict=False)
        lines.extend(rep.lines)
        lines.append(repr((rep.checked, list(b.dg_witness.items()))))
        try:
            check_aqm(b, strict=True)
            lines.append("strict: no violation")
        except LawViolated as exc:
            lines.append(f"strict: {exc.law} {exc.witness!r}")
    return lines


def test_a3_product_mutants_as_pinned():
    assert _sha(_aqm_mutant_lines(fx.a3())) == A3_AQM_MUTANTS


def test_a3_product_two_cell_mutants_as_pinned():
    assert _sha(_aqm_mutant_lines(fx.a3(), 2)) == A3_AQM_TWO_CELL_MUTANTS


def test_gen_product_mutants_as_pinned():
    # quantale 15 of size <= 4: its Gen quantale has 8 elements, all of
    # them endomorphisms
    a = exp_end(make_quantale(quantale_descriptions(4)[15]))
    assert len(a.quant.elements) == len(a.dist.elements) == 8
    assert _sha(_aqm_mutant_lines(a)) == GEN_AQM_MUTANTS


def _plus_mutant_lines(k):
    lines = []
    for desc in quantale_descriptions(3):
        q = make_quantale(desc)
        poset, n = q.pomonoid.poset, len(q.elements)
        unit = poset.index_of(q.zero)
        for t in _cell_mutants(q.plus_table, n, k):
            lines.append(_first_error(
                lambda: pomonoid_from_flat(poset, t, unit)))
            lines.append(_first_error(
                lambda: FinGenQuantale(Pomonoid(poset, ByteTable(t, n), q.zero))))
    return lines


def test_plus_table_mutants_as_pinned():
    assert _sha(_plus_mutant_lines(1)) == PLUS_MUTANTS


def test_plus_table_two_cell_mutants_as_pinned():
    assert _sha(_plus_mutant_lines(2)) == PLUS_TWO_CELL_MUTANTS


def test_unital_tables_on_three_elements_as_pinned():
    """pomonoid_from_flat on every table with a two-sided unit over every
    order on three elements, which fails monotonicity at several (y, z)."""
    lines = []
    for up in _labeled_posets(3):
        poset = poset_from_rows(("0", "1", "2"), up)
        for unit in range(3):
            cells = [a * 3 + b for a in range(3) for b in range(3)
                     if unit not in (a, b)]
            for values in product(range(3), repeat=len(cells)):
                t = [a if b == unit else b for a in range(3) for b in range(3)]
                for c, z in zip(cells, values):
                    t[c] = z
                lines.append(_first_error(
                    lambda: pomonoid_from_flat(poset, t, unit)))
    assert _sha(lines) == UNITAL_TABLES


def test_module_table_mutants_as_pinned():
    am = fx.a3_self_module()
    lines = []
    for t in _cell_mutants(am.star_table(), len(am.space.elements)):
        _record(lines, check_action, ActionMap(
            am.level, am.scalars, am.space, am.star, name=am.name, table=t))
    assert _sha(lines) == MODULE_MUTANTS


A3_AQM_MUTANTS = (
    "4cf3a5e12ca266e265c8e480a814b5e650e0fbc50c9a37b22c16cc58a011ffe0")
A3_AQM_TWO_CELL_MUTANTS = (
    "9974f074224975cc6de4ffd7bea0adc27805024a31eec7ea394d59dc1f794384")
GEN_AQM_MUTANTS = (
    "32f4291cd7fdb51d9112e85358c4a3250a5524ae7e1f03d65cdeadc11541f2a2")
PLUS_MUTANTS = (
    "4df3f190c8d21537d0cd445ce4cc9cbc6083bff9fdc33b5a20f0df025d779ed1")
MODULE_MUTANTS = (
    "694f403d323053c7677b15f378ce82e0b0adb58fa62ce142b5cbc2d8643434a6")
PLUS_TWO_CELL_MUTANTS = (
    "f4dd45e693eb41afbb675c33e0af28e140439e2bbd34b3958e49dfe03fca77a6")
UNITAL_TABLES = (
    "750001acdedace57c14efa8ac428c14bc298df11a91fb37012a036edcfed45dc")
