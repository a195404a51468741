"""The self-map pomonoid of every labeled poset on 4 points against the
label oracle, in the slow gate; tier-1 checks those on at most 3 points
(tests/test_order.py). Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import (  # noqa: E402
    _labeled_posets,
    assert_selfmap_pomonoid_is_the_label_one,
)
from squanta.order import poset_from_rows  # noqa: E402


def test_four_point_selfmap_pomonoids_match_the_label_oracle():
    posets = _labeled_posets(4)
    assert len(posets) == 219  # OEIS A001035
    for up in posets:
        assert_selfmap_pomonoid_is_the_label_one(poset_from_rows(tuple("abcd"), up))
