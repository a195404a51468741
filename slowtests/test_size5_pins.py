"""The slow gate: `search --size 5 --json` for each suite, pinned by the
SHA-256 of its stdout and by its exit status. It sits outside tier-1's
`testpaths` and takes about three minutes; run it with

    PYTHONPATH=src python -m pytest slowtests -q

Each suite runs in its own interpreter, as the command does."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# suite -> (exit status, SHA-256 of stdout)
PINS = {
    "correspond":
        (0, "c29136ef8fc11d90de0002c89c30f8b3abab7875e88c1bfad632bbe4dcb79cdb"),
    "leftdist":
        (1, "d59b81ea20a65960a815a3c1832816661b2f0e901bf63b203386ae7b4603fbc0"),
    "projective":
        (0, "fc774177325a0b101da0bf9e71b8e1f613e6d6b5b02180c8e7455f9b26bb3ff3"),
}


@pytest.mark.parametrize("suite", sorted(PINS))
def test_size5_search_output_is_pinned(suite):
    env = dict(os.environ, PYTHONPATH=str(SRC), SQUANTA_WORKERS="1")
    run = subprocess.run(
        [sys.executable, "-m", "squanta.cli", "search", "--size", "5",
         "--suite", suite, "--json"],
        env=env, capture_output=True, check=False)
    assert (run.returncode, hashlib.sha256(run.stdout).hexdigest()) \
        == PINS[suite], run.stderr.decode()[-2000:]
