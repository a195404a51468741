"""Pins recorded before presentations were held as position tables: the
repr, the three conversions and the validation report of every enumerated
presentation of every quantale of size <= 4, and the non-strict report of
every single-cell mutant of every nucleus and consequence relation of size
<= 3. A change that alters any of them has changed what a presentation
says about itself."""

import hashlib

from squanta.aqm import make_quantale
from squanta.nucleus import (
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


PRESENTATIONS_4 = (
    "6ac75ca9cb4d70402fdb81a70020bc1ef5b9821c68f70938e165e6267fbf3561")
MUTANTS_3 = (
    "ce0b74d0bc7683605deefd36651ce305e4fb7779d7d6a4ca96a2b8b6011f1078")
