"""The CLI input contract: whatever JSON a config file holds, `squanta`
exits 0, 1 or 2 and never through a traceback."""

import copy
import json
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from squanta import cli
from squanta.aqm import EXP_END_MAX_SIZE
from squanta.cli import EXIT_INPUT, EXIT_OK, _builtin_prelude, main
from squanta.search import SEARCH_MAX_SIZE, SUITES

N2 = {
    "poset": {"elements": ["0", "1", "2"],
              "leq": [["0", "1"], ["0", "2"], ["1", "2"]]},
    "monoid": {"op": [[x, y, str(min(int(x) + int(y), 2))]
                      for x in "012" for y in "012"],
               "unit": "0"},
}

# one valid entry of every kind of structure description
VALID = {
    "config": {"fragment": 2},
    "structures": {
        "P": {"poset": {"elements": ["p", "q"], "leq": []}},
        "N": N2,
        "Q": {"quantale": "N"},
        "A": {"aqm": {"quantale": "N", "product": "truncated-mult", "one": "1"}},
        "T": {"aqm": {"quantale": "N",
                      "product": [[x, y, str(min(int(x) * int(y), 2))]
                                  for x in "012" for y in "012"],
                      "one": "1"}},
        "F": {"aqm": {"product": "free", "pomonoid": "M2"}},
        "h": {"map": {"domain": {"elements": ["p", "q"]},
                      "codomain": {"elements": ["0", "1"], "leq": [["0", "1"]]},
                      "table": [["p", "0"], ["q", "1"]]}},
        "act": {"action": {"scalars": "M2", "space": "D2",
                           "table": [["e", "p", "p"], ["e", "q", "q"],
                                     ["c", "p", "p"], ["c", "q", "p"]]}},
        "mod": {"module": {"aqm": "A"}},
        "orb": {"module": {"aqm": "A", "space": "orbit", "orbit": "2"}},
        "nuc": {"nucleus": {"space": "N", "table": {"0": "0", "1": "2", "2": "2"}}},
        "con": {"consequence": {"space": "N",
                                "pairs": [["0", "0"], ["1", "0"], ["1", "1"],
                                          ["2", "0"], ["2", "1"], ["2", "2"]]}},
        "cong": {"congruence": {"space": "N", "classes": [["0"], ["1", "2"]]}},
        "tp": {"translations": {"p": "A3.self", "q": "A3.self",
                                "gamma": "g022", "delta": "g022",
                                "tau": {"0": "0", "1": "2", "2": "2"},
                                "rho": {"0": "0", "1": "2", "2": "2"}}},
    },
}

# the same, with the translation pair recovered from f and g
RECOVERED = copy.deepcopy(VALID)
RECOVERED["structures"]["tp"] = {"translations": {
    "p": "A3.self", "q": "A3.self", "gamma": "g022", "delta": "g022",
    "f": {"0": "0", "2": "2"}, "g": {"0": "0", "2": "2"}}}

WORDS = ["0", "1", "2", "p", "q", "e", "c", "N", "A", "P", "M2", "D2", "N2",
         "poset", "elements", "leq", "monoid", "op", "unit", "map", "table",
         "quantale", "aqm", "product", "free", "pomonoid", "one", "action",
         "scalars", "space", "level", "module", "orbit", "nucleus", "pairs",
         "classes", "translations", "self", "act", "poset", "truncated-mult"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, path + (i,))


@st.composite
def configs(draw):
    """A valid config with one to three parts deleted, replaced by other
    JSON or cut short, or, now and then, any JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    cfg = copy.deepcopy(draw(st.sampled_from([VALID, RECOVERED])))
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(cfg) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = cfg
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        how = draw(st.sampled_from(["delete", "replace", "truncate"]))
        if how == "delete":
            del parent[last]
        elif how == "replace" or not isinstance(parent[last], (list, str)):
            parent[last] = draw(json_values)
        else:
            parent[last] = parent[last][:draw(st.integers(0, 1))]
    return cfg


def _run(cfg, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ws.json"
        path.write_text(json.dumps(cfg))
        structures = cfg.get("structures") if isinstance(cfg, dict) else None
        names = sorted(structures) if isinstance(structures, dict) else []
        code = main(["validate", "D2", *names, "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cfg=configs())
def test_any_config_exits_0_1_or_2(cfg, capsys):
    code, captured = _run(cfg, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cfg", [VALID, RECOVERED])
def test_valid_config_passes(cfg, capsys):
    code, captured = _run(cfg, capsys)
    assert code == 0, captured


@pytest.mark.parametrize("cfg", [
    {"structures": []},
    {"structures": {"x": {"poset": {"leq": []}}}},
    {"structures": {"x": {"poset": {"elements": ["a"], "leq": [["a"]]}}}},
    {"structures": {}, "config": []},
    {"structures": {}, "config": {"fragment": "4"}},
    {"structures": {"x": {"aqm": {"product": "free", "pomonoid": "D2"}}}},
    {"structures": {"x": {"poset": {"elements": ["a"], "leq": [["a", "b"]]}}}},
    {"structures": {"x": {"poset": {"elements": ["a"], "leq": []},
                          "monoid": {"op": [["a", "a", "b"]], "unit": "a"}}}},
    # presentations naming an element outside their space
    {"structures": {"x": {"nucleus": {
        "space": "N2", "table": {"0": "9", "1": "2", "2": "2"}}}}},
    {"structures": {"x": {"consequence": {"space": "N2",
                                          "pairs": [["0", "9"]]}}}},
    {"structures": {"x": {"congruence": {"space": "N2",
                                         "classes": [["0"], ["1", "2", "9"]]}}}},
])
def test_malformed_config_is_an_input_error(cfg, capsys):
    code, captured = _run(cfg, capsys)
    assert code == EXIT_INPUT
    assert captured.err.startswith("input error: ")


def test_carrier_above_256_elements_is_an_input_error(capsys):
    """A table holds at most 256 elements (order.ByteTable): a 257-element
    chain exits 2, with its size as witness."""
    els = [f"{i:03}" for i in range(257)]
    chain = {"poset": {"elements": els,
                       "leq": [[x, y] for x in els for y in els if x < y]},
             "monoid": {"op": [[x, y, max(x, y)] for x in els for y in els],
                        "unit": "000"}}
    code, captured = _run({"structures": {"big": chain}}, capsys)
    assert code == EXIT_INPUT
    assert captured.err == ("input error: carrier has 257 > 256 elements "
                            "[witness: 257]\n")


def test_leftdist_search_above_the_exp_end_bound_is_an_input_error(
        capsys, monkeypatch):
    """`search --suite leftdist` past exp_end's size guard exits 2 before it
    enumerates anything, rather than ending in TooLarge as a violation."""
    def enumerate_nothing(size):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(cli, "quantale_descriptions", enumerate_nothing)
    size = EXP_END_MAX_SIZE + 1
    code = main(["search", "--size", str(size), "--suite", "leftdist"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.endswith(
        f"input error: --suite leftdist needs --size at most "
        f"{EXP_END_MAX_SIZE}, the endomorphism construction's bound "
        f"[witness: {size}]\n")


def test_search_above_the_size_bound_is_an_input_error(capsys, monkeypatch):
    """`search --size` past SEARCH_MAX_SIZE exits 2 before it enumerates
    anything, whatever the suite; at the bound it enumerates."""
    def enumerate_nothing(size):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(cli, "quantale_descriptions", enumerate_nothing)
    for size, suite in product((SEARCH_MAX_SIZE + 1, 10 ** 9), SUITES):
        code = main(["search", "--size", str(size), "--suite", suite])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.endswith(
            f"input error: --size must be at most {SEARCH_MAX_SIZE}, the "
            f"labeled enumeration's bound [witness: {size}]\n")
    sizes = []
    monkeypatch.setattr(cli, "quantale_descriptions",
                        lambda size: sizes.append(size) or [])
    assert main(["search", "--size", str(SEARCH_MAX_SIZE)]) == EXIT_OK
    assert sizes == [SEARCH_MAX_SIZE]


BUILTINS = sorted(_builtin_prelude())


@pytest.mark.parametrize("command", ["validate", "correspond", "extend",
                                     "projective", "equiv", "quotient"])
def test_every_command_on_every_builtin_name(command, capsys):
    """Each command with each built-in name (quotient with each pair) exits
    0, 1 or 2: a name of the wrong kind is an input error, not a crash."""
    if command == "quotient":
        argvs = [[command, m, n] for m in BUILTINS for n in BUILTINS]
    else:
        argvs = [[command, n] for n in BUILTINS]
    for argv in argvs:
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, captured)
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["projective", "A3"], ["projective", "g022"], ["projective", "M2D2"],
    ["quotient", "A3.self", "N2"], ["quotient", "A3", "g022"],
    ["quotient", "A·2", "g022"], ["quotient", "A3.self", "N3.g0133"],
])
def test_wrong_kind_of_name_is_an_input_error(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("input error: ")
