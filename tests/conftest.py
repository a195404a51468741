import faulthandler
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from squanta import fixtures as fx
from squanta.aqm import make_quantale

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


STDERR_FD = pytest.StashKey()


def pytest_configure(config):
    # stderr before output capture starts, where a hang's traceback shows
    config.stash[STDERR_FD] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """End the run with every thread's traceback when one test runs past
    120 s (the slowest takes a few seconds), so that a hang fails the
    suite instead of stalling it."""
    faulthandler.dump_traceback_later(120, exit=True,
                                      file=request.config.stash[STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def d2():
    return fx.d2()


@pytest.fixture(scope="session")
def c2():
    return fx.c2()


@pytest.fixture(scope="session")
def n2():
    return fx.n2()


@pytest.fixture(scope="session")
def n2q():
    return fx.n2_quantale()


@pytest.fixture(scope="session")
def m2():
    return fx.m2()


@pytest.fixture(scope="session")
def a3():
    return fx.a3()


@pytest.fixture(scope="session")
def a3_self():
    return fx.a3_self_module()


@pytest.fixture(scope="session")
def a3_sub2():
    return fx.a3_sub2_module()


@pytest.fixture(scope="session")
def m2_on_d2():
    return fx.m2_on_d2()


@pytest.fixture(scope="session")
def n3():
    return fx.n3()


@pytest.fixture(scope="session")
def n3_self():
    return fx.n3_self_module()


@pytest.fixture(scope="session")
def chain4_nc():
    """The chain 0 < 1 < 2 < 3 under a + with unit 0 that does not commute:
    1 + 1 = 1 and 1 + 2 = 2, every other sum of nonzero elements is 3."""
    els = ["0", "1", "2", "3"]
    sums = {("1", "1"): "1", ("1", "2"): "2"}
    op = [[x, y, y if x == "0" else x if y == "0" else sums.get((x, y), "3")]
          for x in els for y in els]
    return make_quantale({
        "poset": {"elements": els, "leq": [[x, y] for x in els for y in els
                                           if x < y]},
        "monoid": {"op": op, "unit": "0"}}, name="C4nc")
