"""Pins recorded before presentations were held as position tables: the
repr, the three conversions and the validation report of every enumerated
presentation of every quantale of size <= 4, and the non-strict report of
every single-cell mutant of every nucleus and consequence relation of size
<= 3. A change that alters any of them has changed what a presentation
says about itself. The row decision that validation runs first agrees with
the scan of failing instances on those mutants and on every partition."""

import hashlib
from collections import Counter

from oracles import set_partitions
from squanta.aqm import make_quantale
from squanta.nucleus import (
    _failures,
    _holds,
    congruence,
    consequence,
    convert,
    enumerate_congruences,
    enumerate_consequences,
    enumerate_nuclei,
    nucleus,
    validate_presentation,
)
from squanta.search import quantale_descriptions


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_presentations_convert_and_validate_as_pinned():
    lines = []
    count = 0
    for desc in quantale_descriptions(4):
        q = make_quantale(desc)
        for p in (enumerate_nuclei(q) + enumerate_consequences(q)
                  + enumerate_congruences(q)):
            count += 1
            lines.append(repr(p))
            lines.extend(repr(convert(p, kind)) for kind in
                         ("nucleus", "consequence", "congruence"))
            lines.extend(validate_presentation(p, strict=False).lines)
    assert count == 3 * 1151
    assert _sha(lines) == PRESENTATIONS_4


def _mutants(q):
    """Every nucleus with one cell set to each element, and every
    consequence relation with one pair added or removed."""
    els = q.elements
    for g in enumerate_nuclei(q):
        for x, y in ((x, y) for x in els for y in els):
            yield nucleus(q, {**g.as_dict(), x: y})
    for c in enumerate_consequences(q):
        for pair in ((x, y) for x in els for y in els):
            yield consequence(q, c.pairs ^ {pair})


def test_mutant_reports_as_pinned():
    lines = []
    count = 0
    for desc in quantale_descriptions(3):
        for p in _mutants(make_quantale(desc)):
            count += 1
            lines.append(repr(p))
            lines.extend(validate_presentation(p, strict=False).lines)
    assert count == 790
    assert _sha(lines) == MUTANTS_3


def test_row_decision_agrees_with_the_failure_scan(chain4_nc):
    """_holds(p) exactly when _failures(p) yields nothing, on the mutants
    above, on those of a quantale whose + does not commute, and on every
    partition of each of these quantales and of every one of size 4."""
    verdicts = Counter()
    quantales = [make_quantale(d) for d in quantale_descriptions(4)]
    for q in quantales + [chain4_nc]:
        small = len(q.elements) <= 3 or q is chain4_nc
        for p in (list(_mutants(q)) if small else []) + [
                congruence(q, part) for part in set_partitions(q.elements)]:
            holds = _holds(p)
            assert holds == (next(_failures(p), None) is None), p
            verdicts[type(p).__name__, holds] += 1
    assert verdicts == {
        ("Nucleus", True): 227, ("Nucleus", False): 248,
        ("AddConsequence", True): 44, ("AddConsequence", False): 431,
        ("QuantCongruence", True): 1156, ("QuantCongruence", False): 1804}


PRESENTATIONS_4 = (
    "6ac75ca9cb4d70402fdb81a70020bc1ef5b9821c68f70938e165e6267fbf3561")
MUTANTS_3 = (
    "ce0b74d0bc7683605deefd36651ce305e4fb7779d7d6a4ca96a2b8b6011f1078")
