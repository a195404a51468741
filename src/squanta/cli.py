"""Configuration loading, command dispatch, and report emission.

Workspace names resolve against JSON config files plus a built-in prelude of
the desk-scale fixtures (D2, C2, N2, M2, A3, N3 and the modules/actions
derived from them). Exit codes: 0 all checks pass, 1 counterexample or law
violation found (with a machine-readable witness), 2 input error.
"""

import argparse
import json
import os
import sys
from multiprocessing import get_context

from . import fixtures as fx
from .aqm import (AQM, EXP_END_MAX_SIZE, DmFragment, FinGenQuantale,
                  check_aqm, free_aqm, make_quantale, table_aqm)
from .errors import (
    DanglingReference,
    DuplicateName,
    ParseError,
    SquantaError,
    TooLarge,
    UnknownElement,
)
from .modact import (
    ACT,
    MODULE,
    POSET,
    ActionMap,
    check_action,
    extend_act_to_module,
    extend_poset_action_to_dm,
    restrict_module_to_act,
)
from .nucleus import (
    Nucleus,
    congruence,
    consequence,
    nucleus,
    quotient,
    validate_presentation,
)
from .order import FinPoset, Pomonoid, validate_structure
from .projective import (
    cyclic_projective_check,
    exhaustive_family,
    self_module,
    submodule_on_orbit,
)
from .equivlogic import TranslationPair, equivalence_check, recover_translations
from .reporting import Report
from .search import SEARCH_MAX_SIZE, SUITES, correspondence, quantale_descriptions

EXIT_OK, EXIT_VIOLATION, EXIT_INPUT = 0, 1, 2
DEFAULT_CONFIG = {"fragment": DmFragment.k, "workers": 1}


def _presentation(make, space, value):
    """make(space, value), once validate_presentation passes it."""
    p = make(space, value)
    validate_presentation(p)
    return p


def _builtin_prelude():
    """Name -> zero-argument builder. Materialized lazily so that the broken
    negative-control fixtures only fail when actually referenced."""
    def nuc(space, table):  # the nucleus `table` on space()
        return lambda: _presentation(nucleus, space(), table)

    n3_nucleus = nuc(fx.n3_quantale, {"0": "0", "1": "1", "2": "3", "3": "3"})

    def n3_quotient():
        return quotient(fx.n3_self_module(), n3_nucleus()).module

    def n2_broken():
        return validate_structure(fx.broken_descriptions()["N2-broken"])

    def a3_broken():
        q = fx.n2_quantale()
        return table_aqm(q, fx.truncated_mult(q), "0",
                         name="A3-broken")  # unit misdeclared

    return {
        "D2": fx.d2,
        "C2": fx.c2,
        "N2": fx.n2,
        "M2": fx.m2,
        "A3": fx.a3,
        "N3": fx.n3,
        "A·2": fx.a3_sub2_module,
        "A.2": fx.a3_sub2_module,
        "A3.self": fx.a3_self_module,
        "A3.triv": fx.trivial_module,
        "N3.self": fx.n3_self_module,
        "N3.g0133": n3_nucleus,
        "N3.q": n3_quotient,
        "B3": fx.b3,
        "B3.self": fx.b3_self_module,
        "gB3": nuc(lambda: fx.b3().quant, {"0": "0", "1": "0", "2": "2"}),
        "M2D2": fx.m2_on_d2,
        "g022": nuc(fx.n2_quantale, {"0": "0", "1": "2", "2": "2"}),
        "g112": nuc(fx.n2_quantale, {"0": "1", "1": "1", "2": "2"}),
        "N2-broken": n2_broken,
        "A3-broken": a3_broken,
    }


# -- config shapes ---------------------------------------------------------------


class _OneOf:
    """A config shape met by a value that meets any of `shapes`."""

    def __init__(self, *shapes):
        self.shapes = shapes


def _fits(value, shape):
    """Whether a JSON value has a config shape: a type (bool is not an int),
    a set of allowed strings, [s] for a list of s, a tuple for a list of
    exactly those shapes, {type: s} for any keys of that type mapping to s,
    a dict of required keys ("key?" when optional), or a _OneOf."""
    if isinstance(shape, _OneOf):
        return any(_fits(value, s) for s in shape.shapes)
    if isinstance(shape, type):
        return isinstance(value, shape) and not isinstance(value, bool)
    if isinstance(shape, set):
        return isinstance(value, str) and value in shape
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return (isinstance(value, list) and len(value) == len(shape)
                and all(map(_fits, value, shape)))
    if not isinstance(value, dict):
        return False
    keys = list(shape)
    if len(keys) == 1 and isinstance(keys[0], type):
        inner = shape[keys[0]]
        return all(_fits(k, keys[0]) and _fits(v, inner) for k, v in value.items())
    for key, s in shape.items():
        name = key.rstrip("?")
        if name in value:
            if not _fits(value[name], s):
                return False
        elif name == key:
            return False
    return True


_POSET = {"elements": [str], "leq?": [(str, str)]}
_MONOID = {"op": [(str, str, str)], "unit": str,
           "notation?": {"additive", "multiplicative"}}
_REF = _OneOf(str, dict)  # a name, or a nested structure description
_PAIRS = _OneOf({str: str}, [(str, str)])
_MODULES = {"p": _REF, "q": _REF, "gamma": _REF, "delta": _REF}

# description kind -> shape, tried in this order
SHAPES = {
    "map": {"map": {"domain": _POSET, "codomain": _POSET,
                    "table": [(str, str)]}},
    "poset": {"poset": _POSET, "monoid?": _MONOID},
    "quantale": {"quantale": _OneOf(str, {"poset": _POSET, "monoid": _MONOID})},
    "aqm": {"aqm": _OneOf(
        {"product": {"free"}, "pomonoid": _REF},
        {"quantale": _REF, "one": str,
         "product": _OneOf({"truncated-mult"}, [(str, str, str)])})},
    "action": {"action": {"scalars": _REF, "space": _REF,
                          "table": [(str, str, str)],
                          "level?": {POSET, ACT, MODULE}, "name?": str}},
    "module": {"module": {"aqm": _REF, "space?": str, "orbit?": str}},
    "nucleus": {"nucleus": {"space": _REF, "table": _PAIRS}},
    "consequence": {"consequence": {"space": _REF, "pairs": [(str, str)]}},
    "congruence": {"congruence": {"space": _REF, "classes": [[str]]}},
    "translations": {"translations": _OneOf(
        dict(_MODULES, tau=_PAIRS, rho=_PAIRS),
        dict(_MODULES, f=_PAIRS, g=_PAIRS))},
}

# presentation kind -> (its label constructor, the field the constructor reads)
PRESENTATIONS = {"nucleus": (nucleus, "table"), "consequence": (consequence, "pairs"),
                 "congruence": (congruence, "classes")}


class Workspace:
    """Named structures with lazy materialization and eager validation of
    everything defined in config files."""

    def __init__(self, config=None):
        self.defs = {}
        self.cache = {}
        self.builtins = _builtin_prelude()
        self.config = dict(DEFAULT_CONFIG)
        if config:
            self.config.update(config)
        self._resolving = []

    def define(self, name, desc):
        if name in self.defs or name in self.builtins:
            raise DuplicateName(f"name {name!r} already defined", witness=name)
        self.defs[name] = desc

    def names(self):
        return sorted(set(self.defs) | set(self.builtins))

    def get(self, name):
        if name in self.cache:
            return self.cache[name]
        if name in self._resolving:
            raise DanglingReference(
                f"cyclic reference through {name!r}",
                witness=self._resolving + [name],
            )
        self._resolving.append(name)
        try:
            if name in self.defs:
                obj = self._materialize(self.defs[name])
            elif name in self.builtins:
                obj = self.builtins[name]()
            else:
                raise DanglingReference(f"unknown name {name!r}", witness=name)
        finally:
            self._resolving.pop()
        self.cache[name] = obj
        return obj

    def _ref(self, value, expect=None):
        obj = self.get(value) if isinstance(value, str) else self._materialize(value)
        if expect and not isinstance(obj, expect):
            raise ParseError(f"reference {value!r} has the wrong kind", witness=value)
        return obj

    def _materialize(self, desc):
        if not isinstance(desc, dict):
            raise ParseError("structure description must be an object",
                             witness=desc)
        kind = next((k for k in SHAPES if k in desc), None)
        if kind is None:
            raise ParseError(f"unrecognized structure description: "
                             f"{sorted(desc)}", witness=sorted(desc))
        if not _fits(desc, SHAPES[kind]):
            raise ParseError(f"malformed {kind} description", witness=desc)
        try:
            return self._build(kind, desc)
        except (UnknownElement, TooLarge) as exc:
            # a description naming an element it does not have is
            # malformed, and so is one on more than 256 elements
            raise ParseError(exc.args[0], witness=exc.witness) from exc

    def _build(self, kind, desc):
        if kind in ("poset", "map"):
            return validate_structure(desc)
        if kind == "quantale":
            inner = desc["quantale"]
            pom = self._ref(inner, Pomonoid) if isinstance(inner, str) else \
                validate_structure(inner)
            return make_quantale(pom)
        if kind == "aqm":
            spec = desc["aqm"]
            if spec["product"] == "free":
                pom = self._ref(spec["pomonoid"], Pomonoid)
                return free_aqm(pom, self.config["fragment"])
            q = self._ref(spec["quantale"], (FinGenQuantale, Pomonoid))
            if isinstance(q, Pomonoid):
                q = make_quantale(q)
            if spec["product"] == "truncated-mult":
                if not all(x.isdecimal() for x in q.elements):
                    raise ParseError("truncated-mult needs numeral elements",
                                     witness=list(q.elements))
                mult = fx.truncated_mult(q)
            else:
                mult = {(x, y): z for x, y, z in spec["product"]}
            a = table_aqm(q, mult, spec["one"])
            check_aqm(a)
            return a
        if kind == "action":
            spec = desc["action"]
            level = spec.get("level", POSET)
            scalars = self._ref(spec["scalars"],
                                AQM if level == MODULE else Pomonoid)
            space = self._ref(spec["space"],
                              FinPoset if level == POSET else FinGenQuantale)
            table = {(a, x): y for a, x, y in spec["table"]}

            def star(a, x):
                try:
                    return table[(a, x)]
                except KeyError:
                    raise ParseError("action table has no entry",
                                     witness=(a, x)) from None

            am = ActionMap(level, scalars, space, star, name=spec.get("name", ""))
            check_action(am)
            return am
        if kind == "module":
            spec = desc["module"]
            aqm = self._ref(spec["aqm"], AQM)
            if not aqm.is_finite:
                raise ParseError("module needs an AQM with a finite quantale "
                                 "sort", witness=spec["aqm"])
            if spec.get("space", "self") == "self":
                return self_module(aqm)
            if "orbit" in spec:
                aqm.quant.pomonoid.poset.check_element(spec["orbit"])
                return submodule_on_orbit(self_module(aqm), spec["orbit"])
            raise ParseError("module needs space: self or orbit", witness=spec)
        if kind in PRESENTATIONS:
            spec, (make, field) = desc[kind], PRESENTATIONS[kind]
            return _presentation(make, self._quantale_ref(spec["space"]), spec[field])
        spec = desc["translations"]
        p_mod, q_mod = (self._ref(spec[k], ActionMap) for k in ("p", "q"))
        for mod in (p_mod, q_mod):
            if mod.level != MODULE or not isinstance(mod.space, FinGenQuantale):
                raise ParseError("translations need modules on finite "
                                 "quantales", witness=mod.name)
        gamma, delta = (self._ref(spec[k], Nucleus) for k in ("gamma", "delta"))
        if "tau" in spec:
            tp = TranslationPair(p_mod, q_mod, gamma, delta,
                                 dict(spec["tau"]), dict(spec["rho"]))
            return tp.validate()
        # f, g given instead: recover the pair through projectivity
        return recover_translations(dict(spec["f"]), dict(spec["g"]),
                                    p_mod, q_mod, gamma, delta)

    def _quantale_ref(self, value):
        obj = self._ref(value, (Pomonoid, FinGenQuantale))
        if isinstance(obj, Pomonoid):
            obj = make_quantale(obj, name=value if isinstance(value, str) else "")
        return obj


def load(paths, config=None):
    """Build a fully validated workspace from JSON config files."""
    ws = Workspace(config)
    for path in paths:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: {exc}", witness=path) from exc
        if not (isinstance(raw, dict) and isinstance(raw.get("structures"), dict)):
            raise ParseError(f"{path}: expected an object with 'structures'",
                             witness=path)
        config = raw.get("config", {})
        if not (isinstance(config, dict) and all(
                k in ws.config and _fits(v, int) and v >= 1
                for k, v in config.items())):
            raise ParseError(f"{path}: 'config' takes positive integers "
                             f"{sorted(ws.config)}", witness=config)
        ws.config.update(config)
        for name, desc in raw["structures"].items():
            ws.define(name, desc)
    for name in sorted(ws.defs):  # eager validation, deterministic order
        ws.get(name)
    return ws


# -- commands ------------------------------------------------------------------


def cmd_validate(ws, args):
    rep = Report("validate")
    for name in args.names:
        obj = ws.get(name)
        detail = type(obj).__name__
        if isinstance(obj, Pomonoid):
            flags = [f for f in ("commutative", "dually_integral", "idempotent")
                     if getattr(obj, f)]
            detail += " [" + ",".join(flags) + "]"
        if isinstance(obj, ActionMap):
            check_action(obj)
        if isinstance(obj, AQM):
            check_aqm(obj)
            detail += (" [distributively generated]"
                       if obj.distributively_generated else "")
        rep.passed(name, detail)
    return rep


def cmd_correspond(ws, args):
    result = correspondence(ws._quantale_ref(args.name))
    counts = dict(zip(("nuclei", "consequences", "congruences"),
                      result["counts"]))
    rep = Report(f"correspond {args.name}")
    rep.note(", ".join(f"{kind}: {n}" for kind, n in counts.items()))
    rep.verdict("counts agree", result["counts_agree"], witness=result["counts"])
    rep.verdict("round-trips", result["round_trips"], "OK")
    rep.verdict("order-preserving", result["order_preserving"])
    rep.data.update(counts, round_trips=result["round_trips"],
                    order_preserving=result["order_preserving"])
    return rep


def cmd_extend(ws, args):
    pa = ws.get(args.name)
    if not isinstance(pa, ActionMap) or pa.level != POSET:
        raise ParseError(f"{args.name!r} is not a poset-level action",
                         witness=args.name)
    rep = Report(f"extend {args.name}")
    aa = extend_poset_action_to_dm(pa, ws.config["fragment"])
    rep.merge(check_action(aa))
    ma = extend_act_to_module(aa, ws.config["fragment"])
    rep.merge(check_action(ma))
    back = restrict_module_to_act(ma)
    pts = aa.space.enumerate(aa.space.scan_bounds())
    round_ok = all(back.star(a, p) == aa.star(a, p)
                   for a in pa.scalars.elements for p in pts)
    rep.verdict("restriction recovers the act", round_ok)
    return rep


def _module(ws, name):
    ma = ws.get(name)
    if not isinstance(ma, ActionMap) or ma.level != MODULE:
        raise ParseError(f"{name!r} is not a module-level action", witness=name)
    return ma


def cmd_quotient(ws, args):
    ma = _module(ws, args.module)
    nuc = ws.get(args.nucleus)
    if not isinstance(nuc, Nucleus):
        raise ParseError(f"{args.nucleus!r} is not a nucleus",
                         witness=args.nucleus)
    if nuc.space != ma.space:
        raise ParseError(f"nucleus {args.nucleus!r} is not on the space of "
                         f"module {args.module!r}",
                         witness=(args.nucleus, args.module))
    qm = quotient(ma, nuc, strict=False)
    return qm.report


def cmd_projective(ws, args):
    name = args.module_flag or args.module
    if not name:
        raise ParseError("projective needs a module name", witness=None)
    ma = _module(ws, name)
    family = None
    if args.exhaustive_lifting:
        pool = []
        for name in ws.names():
            try:
                obj = ws.get(name)
            except SquantaError:
                continue
            if (isinstance(obj, ActionMap) and obj.level == MODULE
                    and obj.scalars is ma.scalars
                    and all(obj is not m for m in pool)):
                pool.append(obj)
        family = exhaustive_family(ma, pool, max_size=args.exhaustive_lifting)
    rep = cyclic_projective_check(ma, lifting_family=family)
    return rep


def cmd_equiv(ws, args):
    name = args.name
    if not name:
        candidates = [n for n, d in ws.defs.items() if "translations" in d]
        if len(candidates) != 1:
            raise ParseError(
                "equiv without a name needs exactly one translations entry "
                "in the config", witness=sorted(candidates))
        name = candidates[0]
    tp = ws.get(name)
    if not isinstance(tp, TranslationPair):
        raise ParseError(f"{name!r} is not a translation pair", witness=name)
    return equivalence_check(tp)


def _search_worker(packed):
    suite_name, desc = packed
    return SUITES[suite_name](desc)


def cmd_search(ws, args):
    suite = args.suite
    if args.size > SEARCH_MAX_SIZE:
        raise ParseError(f"--size must be at most {SEARCH_MAX_SIZE}, the "
                         f"labeled enumeration's bound", witness=args.size)
    if suite == "leftdist" and args.size > EXP_END_MAX_SIZE:
        raise ParseError(f"--suite leftdist needs --size at most "
                         f"{EXP_END_MAX_SIZE}, the endomorphism "
                         f"construction's bound", witness=args.size)
    descs = quantale_descriptions(args.size)
    rep = Report(f"search size<={args.size} suite={suite}")
    jobs = [(suite, d) for d in descs]
    workers = ws.config["workers"]
    if workers > 1:
        size = min(workers, len(jobs), os.cpu_count() or 1)
        with get_context("fork").Pool(size) as pool:
            results = pool.map(_search_worker, jobs, chunksize=8)
    else:
        results = [_search_worker(j) for j in jobs]
    bad = [(i, r) for i, r in enumerate(results) if not r["ok"]]
    found = [(i, r) for i, r in enumerate(results) if r.get("found")]
    rep.note(f"{len(descs)} c.d.i. generalized quantales enumerated")
    if suite == "correspond":
        if bad:
            rep.failed("correspondence", witness=bad[0])
        else:
            rep.passed("correspondence",
                       f"counts agree and round trips are identity on all "
                       f"{len(descs)}")
    elif suite == "leftdist":
        if found:
            i, r = found[0]
            rep.failed("left-distributivity of composition over joins",
                       witness={"quantale_index": i, "witnesses": r["witnesses"]})
        else:
            rep.passed("left-distributivity hunt",
                       f"no counterexample found up to size {args.size}")
    elif suite == "projective":
        n = sum(len(r["nonprojective"]) for _, r in found)
        if found:
            i, r = found[0]
            rep.note(f"cyclic non-projective quotients exist "
                     f"(first at quantale {i}): {r['nonprojective'][0]}")
        rep.passed("classification",
                   f"{sum(r['cyclic_quotients'] for r in results)} cyclic "
                   f"quotients classified; {n} non-projective instances recorded")
    rep.data["results"] = results
    return rep


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", action="append", default=[],
                        help="JSON workspace file (repeatable)")
    common.add_argument("--json", action="store_true", help="structured output")
    # unset bounds take the workspace defaults (DEFAULT_CONFIG)
    common.add_argument("--fragment", type=int,
                        help="multiupset multiplicity bound")
    common.add_argument("--workers", type=int,
                        default=os.environ.get("SQUANTA_WORKERS"))

    p = argparse.ArgumentParser(
        prog="squanta",
        description="finite-model checks for substructural consequence "
                    "relations over quantale modules",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="validate named structures")
    sp.add_argument("names", nargs="+")
    sp.set_defaults(run=cmd_validate)

    sp = sub.add_parser("correspond", parents=[common],
                        help="presentation counts and round trips")
    sp.add_argument("name")
    sp.set_defaults(run=cmd_correspond)

    sp = sub.add_parser("extend", parents=[common],
                        help="poset action -> act -> module")
    sp.add_argument("name")
    sp.set_defaults(run=cmd_extend)

    sp = sub.add_parser("quotient", parents=[common],
                        help="quotient by a structural nucleus")
    sp.add_argument("module")
    sp.add_argument("nucleus")
    sp.set_defaults(run=cmd_quotient)

    sp = sub.add_parser("projective", parents=[common],
                        help="cyclic-projective characterization")
    sp.add_argument("module", nargs="?")
    sp.add_argument("--module", dest="module_flag", metavar="NAME")
    sp.add_argument("--exhaustive-lifting", type=int, default=0,
                    metavar="N", help="also lift against all modules of size <= N")
    sp.set_defaults(run=cmd_projective)

    sp = sub.add_parser("equiv", parents=[common],
                        help="translation-pair equivalence")
    sp.add_argument("name", nargs="?")
    sp.set_defaults(run=cmd_equiv)

    sp = sub.add_parser("search", parents=[common],
                        help="enumerate small quantales and check")
    sp.add_argument("--size", type=int, default=4)
    sp.add_argument("--suite", choices=sorted(SUITES), default="correspond")
    sp.set_defaults(run=cmd_search)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, low in (("size", 1), ("workers", 1), ("fragment", 1),
                          ("exhaustive_lifting", 0)):
            value = getattr(args, flag, None)
            if value is not None and value < low:
                raise ParseError(f"--{flag.replace('_', '-')} must be at least "
                                 f"{low}, got {value}", witness=value)
        # the flags that are set, which the config files then override
        ws = load(args.config, config={k: getattr(args, k) for k in DEFAULT_CONFIG
                                       if getattr(args, k) is not None})
        config = ws.config
        if config["workers"] != DEFAULT_CONFIG["workers"]:
            print(f"note: workers={config['workers']}; reports are canonically "
                  f"sorted, runtime expectations relaxed", file=sys.stderr)
        if config["fragment"] != DEFAULT_CONFIG["fragment"]:
            print(f"note: fragment bound overridden (k={config['fragment']}); "
                  f"runtime expectations relaxed", file=sys.stderr)
        if getattr(args, "size", 0) > 4:
            print(f"note: search size {args.size} is above the default of 4; "
                  f"runtime expectations relaxed", file=sys.stderr)
        rep = args.run(ws, args)
        code = EXIT_OK if rep.ok else EXIT_VIOLATION
    except (ParseError, DanglingReference, DuplicateName) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SquantaError as exc:
        rep = Report(args.command)
        rep.failed(type(exc).__name__, witness=exc.witness)
        rep.note(str(exc))
        code = EXIT_VIOLATION
    if args.json:
        print(json.dumps(rep.to_dict(), sort_keys=True, default=repr))
    else:
        print(rep.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
