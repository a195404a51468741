import argparse
import json
import os
import re
from pathlib import Path

import pytest

from squanta import cli, projective, search
from squanta.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, load, main
from squanta.errors import DanglingReference, DuplicateName, ParseError
from squanta.search import quantale_descriptions
from test_literals_and_errors import CHAIN4


FIXTURE_CONFIG = {
    "structures": {
        "myD2": {"poset": {"elements": ["p", "q"], "leq": []}},
        "myC2": {"poset": {"elements": ["a", "b"], "leq": [["a", "b"]]}},
        "myN2": {
            "poset": {
                "elements": ["0", "1", "2"],
                "leq": [["0", "1"], ["0", "2"], ["1", "2"]],
            },
            "monoid": {
                "op": [[x, y, str(min(int(x) + int(y), 2))]
                       for x in "012" for y in "012"],
                "unit": "0",
            },
        },
        "myM2": {
            "poset": {"elements": ["c", "e"], "leq": []},
            "monoid": {
                "op": [["e", "e", "e"], ["e", "c", "c"], ["c", "e", "c"],
                       ["c", "c", "c"]],
                "unit": "e",
                "notation": "multiplicative",
            },
        },
        "myA3": {"aqm": {"quantale": "myN2", "product": "truncated-mult",
                         "one": "1"}},
    }
}


def write_config(tmp_path, payload, name="ws.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_fixture_file(tmp_path):
    ws = load([write_config(tmp_path, FIXTURE_CONFIG)])
    assert len(FIXTURE_CONFIG["structures"]) == 5
    for name in FIXTURE_CONFIG["structures"]:
        assert ws.get(name) is not None


def test_dangling_reference(tmp_path):
    cfg = {"structures": {"x": {"quantale": "nowhere"}}}
    with pytest.raises(DanglingReference):
        load([write_config(tmp_path, cfg)])


def test_cyclic_reference(tmp_path):
    cfg = {"structures": {"x": {"quantale": "y"}, "y": {"quantale": "x"}}}
    with pytest.raises(DanglingReference):
        load([write_config(tmp_path, cfg)])


def test_duplicate_name(tmp_path):
    cfg = {"structures": {"N2": {"poset": {"elements": ["z"], "leq": []}}}}
    with pytest.raises(DuplicateName):
        load([write_config(tmp_path, cfg)])


def test_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load([str(path)])


def test_correspond_command(capsys):
    assert main(["correspond", "N2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nuclei: 3, consequences: 3, congruences: 3" in out
    assert "round-trips: PASS" in out


def test_validate_broken_exits_1(capsys):
    assert main(["validate", "A3-broken"]) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "witness" in out


def test_unknown_name_exits_2(capsys):
    assert main(["correspond", "NOPE"]) == EXIT_INPUT


def test_projective_command(capsys):
    assert main(["projective", "A·2", "--exhaustive-lifting", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "condition (ii): PASS" in out
    assert "condition (v): PASS" in out
    assert "condition (i) agrees with (ii)-(v): PASS" in out


def test_nonprojective_command(capsys):
    assert main(["projective", "N3.q"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "no witness" in out


def test_lifts_through_a_small_family_are_inconclusive(capsys):
    # N3.q's family at bound 3 holds only N3.q itself, and every lift exists
    assert main(["projective", "N3.q", "--exhaustive-lifting", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "condition (ii): no witness" in out
    assert "condition (i): inconclusive" in out
    assert "condition (i) agrees" not in out


def test_missing_lift_agrees_with_a_failing_condition_ii(monkeypatch, capsys):
    monkeypatch.setattr(projective, "find_lift", lambda h, g, p, q: None)
    assert main(["projective", "N3.q", "--exhaustive-lifting", "3"]) == EXIT_OK
    assert "condition (i) agrees with (ii)-(v): PASS" in capsys.readouterr().out


def test_missing_lift_while_condition_ii_holds_fails(monkeypatch, capsys):
    monkeypatch.setattr(projective, "find_lift", lambda h, g, p, q: None)
    argv = ["projective", "A·2", "--exhaustive-lifting", "3"]
    assert main(argv) == EXIT_VIOLATION
    out = capsys.readouterr().out
    assert "condition (ii): PASS" in out
    assert "condition (i) agrees with (ii)-(v): FAIL" in out


def test_extend_command(capsys):
    assert main(["extend", "M2D2"]) == EXIT_OK
    assert "restriction recovers the act: PASS" in capsys.readouterr().out


def test_extend_report_lines(capsys):
    assert main(["extend", "M2D2", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["lines"] == [
        "action DM(M2/D2): scanned 684 instances (2 scalars x 12 points; "
        "fragment scope: multiplicity<=2, antichain<=2): all laws hold",
        "action Free(DM(M2/D2)): scanned 4378 instances (12 scalars x 12 "
        "points; fragment scope: multiplicity<=2, antichain<=2, 1408 "
        "instances left the fragment): all laws hold",
        "restriction recovers the act: PASS",
    ]


def test_quotient_command(capsys):
    assert main(["quotient", "A3.self", "g022"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "isomorphic to the congruence quotient: PASS" in out


def test_quotient_by_a_nucleus_on_another_space_is_an_input_error(capsys):
    assert main(["quotient", "A3.self", "N3.g0133"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: nucleus 'N3.g0133' is not on the space of module "
        "'A3.self' [witness: ('N3.g0133', 'A3.self')]\n")


def test_invalid_nucleus_fixture_exits_1(capsys):
    assert main(["validate", "g112"]) == EXIT_VIOLATION


def test_search_command(capsys):
    assert main(["search", "--size", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "counts agree and round trips are identity" in out


@pytest.mark.parametrize("argv", [
    ["search", "--size", "0"],
    ["search", "--size", "-1"],
    ["search", "--workers", "0"],
    ["extend", "M2D2", "--fragment", "0"],
    ["extend", "M2D2", "--workers", "0"],
    ["extend", "M2D2", "--fragment", "-2"],
    ["projective", "A·2", "--exhaustive-lifting", "-1"],
])
def test_search_rejects_nonpositive_bounds(argv, capsys):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "input error: --" in captured.err
    assert captured.out == ""


ONE_X = {"poset": {"elements": ["x"]},
         "monoid": {"op": [["x", "x", "x"]], "unit": "x"}}
TRANSLATIONS = {"gamma": "g022", "delta": "g022",
                "tau": {"0": "0", "1": "2", "2": "2"},
                "rho": {"0": "0", "1": "2", "2": "2"}}
F_G = {"p": "A3.self", "q": "A3.self", "gamma": "g022", "delta": "g022",
       "g": {"0": "0", "2": "2"}}


@pytest.mark.parametrize("structures, argv, code, message", [
    ({"x": 5}, ["validate", "x"], EXIT_INPUT,
     "structure description must be an object"),
    ({"x": {"aqm": {"quantale": ONE_X, "product": "truncated-mult",
                    "one": "x"}}},
     ["validate", "x"], EXIT_INPUT, "truncated-mult needs numeral elements"),
    ({"x": {"action": {"scalars": "M2", "space": "D2",
                       "table": [["e", "p", "p"]]}}},
     ["validate", "x"], EXIT_INPUT, "action table has no entry"),
    ({"x": {"module": {"aqm": {"aqm": {"product": "free",
                                       "pomonoid": "M2"}}}}},
     ["validate", "x"], EXIT_INPUT,
     "module needs an AQM with a finite quantale sort"),
    ({"x": {"translations": dict(TRANSLATIONS, p="M2D2", q="A3.self")}},
     ["validate", "x"], EXIT_INPUT,
     "translations need modules on finite quantales"),
    ({}, ["projective"], EXIT_INPUT, "projective needs a module name"),
    ({}, ["equiv"], EXIT_INPUT, "equiv without a name needs exactly one "
     "translations entry in the config"),
    ({"x": {"translations": dict(TRANSLATIONS, p="A3.self", q="A3.self",
                                 tau={"0": "1", "1": "1", "2": "1"})}},
     ["validate", "x"], EXIT_VIOLATION, "tau is not a module homomorphism"),
    ({"x": {"translations": dict(TRANSLATIONS, p="A3.self", q="N3.self",
                                 delta="N3.g0133")}},
     ["equiv"], EXIT_VIOLATION, "modules over different AQMs"),
    ({"x": {"translations": dict(TRANSLATIONS, p="A3.self", q="A3.self",
                                 gamma="N3.g0133")}},
     ["equiv"], EXIT_VIOLATION, "gamma is not a nucleus on its module's space"),
    ({"x": {"translations": dict(TRANSLATIONS, p="A3.self", q="A3.self",
                                 tau={"0": "0", "1": "7", "2": "2"})}},
     ["equiv"], EXIT_VIOLATION, "tau leaves the target module"),
    ({"x": {"translations": dict(TRANSLATIONS, p="A3.self", q="A3.self",
                                 rho={"0": "1", "1": "1", "2": "1"})}},
     ["equiv"], EXIT_VIOLATION, "rho is not a module homomorphism"),
    # f on gamma's image lifts only when it is a homomorphism of the
    # quotients; these three would reach the lift search's bug trap
    *(({"x": {"translations": dict(F_G, f=f)}}, ["equiv"], EXIT_VIOLATION,
       "f is not a module homomorphism of the quotients")
      for f in ({"0": "2", "2": "0"}, {"0": "0", "2": "1"},
                {"0": "0", "2": "9"})),
])
def test_input_errors_exit_with_their_messages(tmp_path, capsys, structures,
                                               argv, code, message):
    path = write_config(tmp_path, {"structures": structures})
    assert main(argv + ["--config", path]) == code
    captured = capsys.readouterr()
    if code == EXIT_INPUT:
        assert captured.err.startswith(f"input error: {message}")
        assert captured.out == ""
    else:  # the witness is the field named, or the two modules' names
        label = message.split()[0]
        witness = "('A3', 'N3')" if label == "modules" else repr(label)
        assert (f"IllDefined: FAIL [witness: {witness}]\n  {message} "
                f"[witness: {witness}]") in captured.out


def test_antichain_width_is_not_a_setting(tmp_path, capsys):
    # the fragment law scans have a fixed width of 2, so neither a flag nor
    # a config key sets it
    with pytest.raises(SystemExit) as exc:
        main(["extend", "M2D2", "--antichain", "2"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --antichain" in capsys.readouterr().err
    path = write_config(tmp_path, {"config": {"antichain": 2}, "structures": {}})
    assert main(["extend", "M2D2", "--config", path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "'config' takes positive integers ['fragment', 'workers']" in err


def test_json_output(capsys):
    assert main(["correspond", "N2", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["data"]["nuclei"] == 3


def test_reports_are_deterministic(capsys):
    main(["projective", "A·2", "--exhaustive-lifting", "3"])
    first = capsys.readouterr().out
    main(["projective", "A·2", "--exhaustive-lifting", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_equiv_command(tmp_path, capsys):
    cfg = {
        "structures": {
            "tp": {
                "translations": {
                    "p": "A3.self",
                    "q": "A3.self",
                    "gamma": "g022",
                    "delta": "g022",
                    "tau": {"0": "0", "1": "2", "2": "2"},
                    "rho": {"0": "0", "1": "2", "2": "2"},
                }
            }
        }
    }
    path = write_config(tmp_path, cfg)
    assert main(["equiv", "tp", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "line 1 equivalent to line 2: PASS" in out


def test_equiv_recovery_through_a_nonprojective_module_exits_1(tmp_path, capsys):
    cfg = {"structures": {"tp": {"translations": {
        "p": "N3.q", "q": "N3.q", "gamma": "g022", "delta": "g022",
        "f": {"0": "0"}, "g": {"0": "0"}}}}}
    path = write_config(tmp_path, cfg)
    assert main(["equiv", "--config", path]) == EXIT_VIOLATION
    assert capsys.readouterr().out.splitlines() == [
        "== equiv [VIOLATION] ==",
        "  NotProjective: FAIL [witness: 'N3/nucleus']",
        "  module 'N3/nucleus' is not cyclic projective "
        "[witness: 'N3/nucleus']",
    ]


def test_action_config_and_workspace_validation(tmp_path):
    cfg = {
        "structures": {
            "act": {
                "action": {
                    "scalars": "M2",
                    "space": "D2",
                    "table": [["e", "p", "p"], ["e", "q", "q"],
                              ["c", "p", "p"], ["c", "q", "p"]],
                }
            }
        }
    }
    ws = load([write_config(tmp_path, cfg)])
    am = ws.get("act")
    assert am.star("c", "q") == "p"


def test_broken_action_config_exits_1(tmp_path, capsys):
    cfg = {
        "structures": {
            "bad": {
                "action": {
                    "scalars": "M2",
                    "space": "D2",
                    "table": [["e", "p", "q"], ["e", "q", "q"],
                              ["c", "p", "p"], ["c", "q", "p"]],
                }
            }
        }
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", "bad", "--config", path]) == EXIT_VIOLATION


@pytest.mark.parametrize("desc, code, lines", [
    ({"map": {"domain": CHAIN4, "codomain": CHAIN4,
              "table": [["3", "0"], ["2", "0"]]}}, EXIT_VIOLATION,
     ["NotMonotone: FAIL [witness: '0']",
      "map table incomplete [witness: '0']"]),
    ({"map": {"domain": CHAIN4, "codomain": CHAIN4,
              "table": [["0", "1"], ["1", "2"], ["2", "1"], ["3", "0"]]}},
     EXIT_VIOLATION, ["NotMonotone: FAIL [witness: ('0', '3')]",
                      "order not preserved [witness: ('0', '3')]"]),
    ({"map": {"domain": CHAIN4, "codomain": CHAIN4,
              "table": [["0", "9"], ["0", "0"], ["1", "1"], ["2", "2"],
                        ["3", "3"]]}}, EXIT_INPUT,
     ["input error: element '9' not in poset [witness: '9']"]),
    ({"poset": {"elements": ["q", "p", "q"], "leq": []}}, EXIT_VIOLATION,
     ["NotAPartialOrder: FAIL [witness: ('p', 'q', 'q')]",
      "duplicate elements [witness: ('p', 'q', 'q')]"]),
])
def test_refused_maps_and_posets_exit_with_their_witnesses(tmp_path, capsys,
                                                           desc, code, lines):
    path = write_config(tmp_path, {"structures": {"m": desc}})
    assert main(["validate", "m", "--config", path]) == code
    out, err = capsys.readouterr()
    if code == EXIT_INPUT:
        assert (out, err.splitlines()) == ("", lines)
    else:
        assert out.splitlines() == ["== validate [VIOLATION] =="] + [
            "  " + line for line in lines]


def test_search_reports_the_first_failing_correspondence(monkeypatch, capsys):
    # a correspondence verdict that fails on the second quantale of size
    # <= 2 (and every later one) is the witness of the FAIL line
    real, calls = search.correspondence, []

    def failing_from_the_second(q):
        calls.append(q)
        verdict = real(q)
        return verdict if len(calls) < 2 else dict(verdict, round_trips=False,
                                                   ok=False)

    monkeypatch.setattr(search, "correspondence", failing_from_the_second)
    assert main(["search", "--size", "2", "--suite", "correspond"]) == \
        EXIT_VIOLATION
    assert capsys.readouterr().out.splitlines() == [
        "== search size<=2 suite=correspond [VIOLATION] ==",
        "  3 c.d.i. generalized quantales enumerated",
        "  correspondence: FAIL [witness: (1, {'size': 2, 'counts': (2, 2, 2),"
        " 'counts_agree': True, 'round_trips': False, 'order_preserving': True,"
        " 'ok': False})]"]
    assert len(calls) == 3


def test_search_reports_the_first_leftdist_counterexample(monkeypatch, capsys):
    # a hunt that reports witnesses on the third quantale of size <= 2 only
    # is the quantale_index and witnesses of the FAIL line
    real, calls = search.SUITES["leftdist"], []

    def found_on_the_third(desc):
        calls.append(desc)
        verdict = real(desc)
        return verdict if len(calls) != 3 else dict(
            verdict, witnesses=[("g", "h1", "h2")], found=True)

    monkeypatch.setitem(search.SUITES, "leftdist", found_on_the_third)
    assert main(["search", "--size", "2", "--suite", "leftdist"]) == \
        EXIT_VIOLATION
    assert capsys.readouterr().out.splitlines() == [
        "== search size<=2 suite=leftdist [VIOLATION] ==",
        "  3 c.d.i. generalized quantales enumerated",
        "  left-distributivity of composition over joins: FAIL [witness: "
        "{'quantale_index': 2, 'witnesses': [('g', 'h1', 'h2')]}]"]
    assert len(calls) == 3


def test_workers_output_identical(capsys):
    main(["search", "--size", "3", "--suite", "correspond", "--workers", "1"])
    one = capsys.readouterr().out
    main(["search", "--size", "3", "--suite", "correspond", "--workers", "2"])
    two = capsys.readouterr().out
    assert one == two


class _SerialContext:
    """A multiprocessing context whose pools record their size and map in
    this process."""

    def __init__(self, sizes):
        self.sizes = sizes

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return list(map(fn, jobs))


def test_workers_are_capped_by_jobs_and_cpus(monkeypatch, capsys):
    """The pool has min(N, jobs, CPUs) processes, whether N comes from the
    flag or from SQUANTA_WORKERS, and still opens for every N > 1."""
    argv = ["search", "--size", "2", "--suite", "correspond"]
    main(argv)
    serial = capsys.readouterr().out
    jobs = len(quantale_descriptions(2))
    assert jobs > 2
    sizes = []
    monkeypatch.setattr(cli, "get_context", lambda method: _SerialContext(sizes))
    for cpus, workers, want in ((64, 100000, jobs), (64, 2, 2), (2, 100000, 2),
                                (None, 100000, 1), (1, 2, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("SQUANTA_WORKERS", str(workers))
        for extra in ([], ["--workers", str(workers)]):
            sizes.clear()
            assert main(argv + extra) == EXIT_OK
            assert sizes == [want], (cpus, workers, extra)
            assert capsys.readouterr().out == serial


def test_config_workers_open_a_pool(tmp_path, capsys, monkeypatch):
    main(["search", "--size", "3", "--suite", "correspond"])
    one = capsys.readouterr().out
    path = write_config(tmp_path, {"config": {"workers": 2}, "structures": {}})
    methods = []
    real = cli.get_context
    monkeypatch.setattr(cli, "get_context",
                        lambda method: methods.append(method) or real(method))
    assert main(["search", "--size", "3", "--suite", "correspond",
                 "--config", path]) == EXIT_OK
    assert methods == ["fork"]
    assert capsys.readouterr().out == one


def test_config_form_prints_the_flag_form_notes(tmp_path, capsys):
    path = write_config(tmp_path, {"config": {"workers": 2, "fragment": 3},
                                   "structures": {}})
    assert main(["search", "--size", "2", "--config", path]) == EXIT_OK
    by_config = capsys.readouterr()
    assert main(["search", "--size", "2", "--workers", "2",
                 "--fragment", "3"]) == EXIT_OK
    by_flags = capsys.readouterr()
    assert "note: workers=2" in by_config.err
    assert ("note: fragment bound overridden (k=3); runtime expectations "
            "relaxed") in by_config.err
    assert by_config.err == by_flags.err
    assert by_config.out == by_flags.out


def test_malformed_workers_variable_is_an_input_error(monkeypatch, capsys):
    monkeypatch.setenv("SQUANTA_WORKERS", "x")
    with pytest.raises(SystemExit) as exc:
        main(["search", "--size", "2"])
    assert exc.value.code == EXIT_INPUT
    assert "--workers: invalid int value" in capsys.readouterr().err


def test_readme_names_only_accepted_flags():
    # every --flag the README names, apart from pip's, is an option of some
    # squanta command, so the docs cannot name a removed option
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    accepted = {s for sp in commands.values() for a in sp._actions
                for s in a.option_strings}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = {flag for line in readme.splitlines()
             if not line.startswith("pip ")
             for flag in re.findall(r"--[a-z][a-z-]*", line)}
    assert {"--config", "--fragment", "--size"} <= named
    assert named <= accepted, sorted(named - accepted)
