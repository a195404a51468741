"""Regenerate perfbench/pins.json, the per-quantale counts the verdict gate
pins for projective-4 and leftdist-4. Run from the repository root:

    python3 perfbench/make_pins.py

It runs suite_projective on every 4-element quantale and suite_leftdist on
every quantale of size <= 4 (about 90 s on two cores), and prints the total
of cyclic quotients over all 207 quantales of size <= 4, which the CLI
`search --size 4 --suite projective` reports as 3,347.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from squanta import search  # noqa: E402

from workloads import desc_key  # noqa: E402


def main():
    descs = search.quantale_descriptions(4)
    projective, leftdist, total = {}, {}, 0
    for d in descs:
        r = search.suite_projective(d)
        total += r["cyclic_quotients"]
        if len(d["poset"]["elements"]) == 4:
            projective[desc_key(d)] = [r["aqms"], r["cyclic_quotients"],
                                       r["found"]]
        leftdist[desc_key(d)] = search.suite_leftdist(d)["gen_size"]
    pins = {"projective-4": dict(sorted(projective.items())),
            "leftdist-4": dict(sorted(leftdist.items()))}
    (Path(__file__).parent / "pins.json").write_text(
        json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"{len(descs)} quantales, {total} cyclic quotients")


if __name__ == "__main__":
    main()
