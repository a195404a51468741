"""The search enumerator at n = 6 and 7, in the slow gate: the labeled
lattices as orbits of the lattice classes against the ones built from a
bottom, a top and a four-point order and against the scan of every labeled
poset, the class count at n = 7, and the number of descriptions
`search --size 6` runs on (SEARCH_MAX_SIZE), with one op tuple per
distinct + table. Tier-1 checks the lattices up to n = 5 and the class
counts up to n = 6 (tests/test_search.py). Run it with

    PYTHONPATH=src python -m pytest slowtests -q"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import _labeled_lattices, _labeled_posets, is_lattice  # noqa: E402
from squanta import search  # noqa: E402
from squanta.search import SEARCH_MAX_SIZE, quantale_descriptions  # noqa: E402


def test_six_point_lattices_are_the_six_point_posets_that_are_lattices():
    posets = _labeled_posets(6)
    assert len(posets) == 130023  # OEIS A001035
    lattices = _labeled_lattices(6)
    assert lattices == [up for up in posets if is_lattice(up)]
    assert len(lattices) == 6390  # OEIS A055512
    assert [up for up, _, _ in search._lattice_tables(6)] == lattices
    assert sum(len(search._orbit(rep))
               for rep in search._lattice_classes(6)) == 6390


def test_seven_point_lattice_classes():
    assert len(search._lattice_classes(7)) == 53  # OEIS A006966


def test_search_max_size_descriptions():
    assert SEARCH_MAX_SIZE == 6
    descs = quantale_descriptions(6)
    assert len(descs) == 318487
    # one op tuple per distinct + table
    ops = [d["monoid"]["op"] for d in descs
           if len(d["poset"]["elements"]) == 6]
    assert len(ops) == 312240
    assert len(set(map(id, ops))) == len(set(ops)) == 88680
