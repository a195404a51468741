"""The search enumerator at n = 6, in the slow gate: the labeled lattices
built from a bottom, a top and a four-point order against the scan of every
labeled poset, and the number of descriptions `search --size 6` runs on
(SEARCH_MAX_SIZE). Tier-1 checks both up to n = 5 (tests/test_search.py).
Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import is_lattice  # noqa: E402
from squanta.search import (  # noqa: E402
    SEARCH_MAX_SIZE,
    _labeled_lattices,
    _labeled_posets,
    quantale_descriptions,
)


def test_six_point_lattices_are_the_six_point_posets_that_are_lattices():
    posets = _labeled_posets(6)
    assert len(posets) == 130023  # OEIS A001035
    lattices = _labeled_lattices(6)
    assert lattices == [up for up in posets if is_lattice(up)]
    assert len(lattices) == 6390  # OEIS A055512


def test_search_max_size_descriptions():
    assert SEARCH_MAX_SIZE == 6
    assert len(quantale_descriptions(6)) == 318487
