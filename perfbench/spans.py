"""Spans and counters around the public functions of each squanta layer.

The package modules import one another's functions by name
(``from .downset import normalize``), so a wrapper must be rebound in every
module that holds the original, not only in the module that defines it.
``Tracer.install`` does that for every loaded ``squanta`` module and
``Tracer.uninstall`` puts the originals back. Nothing under ``src/`` changes.

Functions in ``SPANS`` record a span (name, start, end, parent) per call.
Functions in ``COUNTS`` are called up to about a million times per pass and
record a call count only; their time falls to the enclosing span. Spans are
kept in flat arrays and written out once, after the traced pass.
"""

import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# layer (= squanta module) -> functions wrapped with a span
SPANS = {
    "search": ["quantale_descriptions", "_commutative_mults",
               "suite_correspond", "suite_leftdist", "suite_projective"],
    "nucleus": ["enumerate_nuclei", "enumerate_consequences",
                "enumerate_congruences", "convert", "structural_check",
                "quotient"],
    "projective": ["cyclic_projective_check", "enumerate_module_homs",
                   "cyclic_check", "self_module", "submodule_on_orbit"],
    "aqm": ["exp_end", "check_aqm", "table_aqm", "make_quantale", "free_aqm"],
    "downset": ["normalize", "dsum", "djoin", "dleq"],
    "multiupset": ["enumerate_fragment"],
    "modact": ["check_action", "extend_poset_action_to_dm",
               "extend_act_to_module", "restrict_module_to_act"],
    "order": ["validate_structure"],
    "cli": ["main"],
}

# layer -> functions whose calls are counted without a span
COUNTS = {
    "nucleus": ["validate_presentation"],
    "projective": ["residual"],
    "multiupset": ["msum", "mleq"],
}

LAYERS = list(SPANS)


class Tracer:
    """Wraps the functions above; holds the spans and counters of one pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.nested = array("b")  # 1 when an ancestor span has the same name
        self.start = array("q")  # perf_counter_ns
        self.end = array("q")
        self.counts = Counter()
        self._stack = [-1]
        self._active = Counter()
        self._patched = []

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, layer, fn):
        qual = f"{layer}.{fn.__name__}"
        hook = getattr(self, "_after_" + fn.__name__, None)
        name_id = self._name_id(qual)
        modes = None
        if fn.__name__ == "check_aqm":  # one span name per scan mode
            modes = (self._name_id(qual + ".fragment"),
                     self._name_id(qual + ".finite"))
        stack, active, counts = self._stack, self._active, self.counts

        def wrapper(*args, **kwargs):
            nid = name_id if modes is None else modes[args[0].is_finite]
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1])
            self.nested.append(active[nid] > 0)
            self.end.append(0)
            counts[qual + ".calls"] += 1
            stack.append(idx)
            active[nid] += 1
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[qual + ".raised"] += 1
                raise
            finally:
                self.end[idx] = perf_counter_ns()
                active[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count(self, layer, fn):
        key = f"{layer}.{fn.__name__}.calls"
        counts, stack, span_name = self.counts, self._stack, self.span_name
        # validate_presentation also counts the candidate relations that
        # enumerate_consequences hands it: the consequence accept ratio's base
        watch = (self._name_id("nucleus.enumerate_consequences")
                 if fn.__name__ == "validate_presentation" else None)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if watch is not None and stack[-1] >= 0 \
                    and span_name[stack[-1]] == watch:
                counts["nucleus.consequence_candidates"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks: counts read from what a layer returns -------------------

    def _after_quantale_descriptions(self, args, result):
        self.counts["search.quantale_descriptions.count"] += len(result)

    def _after__commutative_mults(self, args, result):
        self.counts["search.aqms"] += len(result)

    def _after_enumerate_nuclei(self, args, result):
        self.counts["nucleus.presentations"] += len(result)

    def _after_enumerate_congruences(self, args, result):
        self.counts["nucleus.presentations"] += len(result)

    def _after_enumerate_consequences(self, args, result):
        self.counts["nucleus.presentations"] += len(result)
        self.counts["nucleus.consequences_kept"] += len(result)

    def _after_check_aqm(self, args, result):
        if not args[0].is_finite:
            self.counts["aqm.free.checked"] += result.data["checked"]
            self.counts["aqm.free.skipped"] += result.data["skipped"]

    def _after_check_action(self, args, result):
        self.counts["modact.check_action.checked"] += result.data["checked"]
        self.counts["modact.check_action.skipped"] += result.data["skipped"]

    def _after_cyclic_projective_check(self, args, result):
        self.counts["projective.cyclic_quotients"] += 1
        if not any(result.data["conditions"].values()):
            self.counts["projective.nonprojective"] += 1

    # -- installation ----------------------------------------------------------

    def install(self):
        """Rebind every wrapped function in every loaded squanta module."""
        replace = {}
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for layer, fn_names in table.items():
                mod = importlib.import_module(f"squanta.{layer}")
                for fn_name in fn_names:
                    orig = getattr(mod, fn_name)
                    replace[id(orig)] = (orig, make(layer, orig))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "squanta" and not mod_name.startswith("squanta."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- analysis --------------------------------------------------------------

    def summary(self, wall):
        """Inclusive time per span name (outermost calls only), self time per
        layer, and the driver's time: the part of `wall` no span covers."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        roots = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        inclusive = Counter()
        layer_self = Counter({layer: 0 for layer in LAYERS})
        for i in range(n):
            name = self.names[self.span_name[i]]
            if not self.nested[i]:
                inclusive[name] += dur[i]
            layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
        return {
            "inclusive": {k: v / 1e9 for k, v in inclusive.items()},
            "layer_self": {k: v / 1e9 for k, v in layer_self.items()},
            "driver": wall - roots / 1e9,
            "spans": n,
        }

    def write(self, path, meta):
        """Write the spans as gzip JSON, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": list(self.span_name),
            "parent": list(self.parent),
            "start": [s - t0 for s in self.start],
            "end": [e - t0 for e in self.end],
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        path.parent.mkdir(parents=True, exist_ok=True)
        data = json.dumps(doc, separators=(",", ":")).encode()
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(data)
