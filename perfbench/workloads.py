"""The four workloads: their fixed inputs, their jobs, and the verdict gate.

A pass runs one workload's jobs once, one after another (a closed loop with a
single client). The search workloads first enumerate the quantale
descriptions, as the CLI ``search`` command does, and draw their jobs from
that output. Every verdict is checked after the pass, outside the timers.
"""

import contextlib
import hashlib
import io
import json
import random
from functools import lru_cache
from pathlib import Path
from time import perf_counter

# jobs call through the modules, so that traced runs reach the wrappers
from squanta import aqm, cli, fixtures, search
from squanta.order import validate_structure

from oracles import brute_nuclei

PINS_FILE = Path(__file__).parent / "pins.json"

# pinned counts of quantale_descriptions(n)
DESCRIPTION_COUNTS = {4: 207, 5: 6247}

# fragment job -> (checked, skipped) of its check_aqm fragment scan
FREE_AQM_COUNTS = {"free-M2-k4": (4394, 1408), "free-M2-k3": (2082, 3720),
                   "free-chain2-k4": (1060, 192)}
# the report lines of `extend M2D2 --json`: 684 act-level instances, then
# 4378 module-level instances checked and 1408 skipped
EXTEND_LINES = [
    "action DM(M2/D2): scanned 684 instances (2 scalars x 12 points; fragment "
    "scope: multiplicity<=2, antichain<=2): all laws hold",
    "action Free(DM(M2/D2)): scanned 4378 instances (12 scalars x 12 points; "
    "fragment scope: multiplicity<=2, antichain<=2, 1408 instances left the "
    "fragment): all laws hold",
    "restriction recovers the act: PASS",
]

CHAIN2 = {
    "poset": {"elements": ["0", "1"], "leq": [["0", "1"]]},
    "monoid": {"op": [["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"],
                      ["1", "1", "1"]],
               "unit": "1", "notation": "multiplicative"},
}


def canonical(desc):
    return json.dumps(desc, sort_keys=True, separators=(",", ":"))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def desc_key(desc):
    return sha256(canonical(desc))[:16]


def cost_class(desc):
    """Strict order pairs and additive idempotents: the two properties of a
    description that set most of a correspond or projective job's cost."""
    ops = {(x, y): z for x, y, z in desc["monoid"]["op"]}
    idem = sum(ops[(x, x)] == x for x in desc["poset"]["elements"])
    return len(desc["poset"]["leq"]), idem


def stratified_draw(pool, shapes, seed):
    """Draw shapes[s] descriptions whose order has s strict pairs, for each
    s. Within a shape, each additive-idempotent class gets a share in
    proportion to its size (largest remainder), spread evenly over the class
    in canonical-JSON order. Every seed draws the same mix of cost classes,
    so the sample's cost and percentiles barely move with the seed, and no
    order here depends on the enumerator's output order."""
    classes = {}
    for d in sorted(pool, key=canonical):
        classes.setdefault(cost_class(d), []).append(d)
    take = {}
    for shape, k in shapes.items():
        sizes = {c: len(ds) for c, ds in classes.items() if c[0] == shape}
        quota = {c: k * n / sum(sizes.values()) for c, n in sizes.items()}
        share = {c: int(q) for c, q in quota.items()}
        by_remainder = sorted(sizes, key=lambda c: (share[c] - quota[c], c))
        for c in by_remainder[:k - sum(share.values())]:
            share[c] += 1
        take.update(share)
    rng = random.Random(seed)
    picked = []
    for c in sorted(take):
        members, m = classes[c], take[c]
        n = len(members)
        picked += [members[rng.randrange(i * n // m, (i + 1) * n // m)]
                   for i in range(m)]
    return picked


class Job:
    def __init__(self, name, call, check):
        self.name = name
        self.call = call    # () -> result; the only timed part of a job
        self.check = check  # result -> list of problems, empty when correct


# -- search workloads ----------------------------------------------------------


def _correspond_check(desc):
    def check(r):
        problems = [] if r["ok"] else ["verdict not ok"]
        if r["size"] != 5:
            problems.append(f"size {r['size']}")
        oracle = _oracle_nuclei(canonical(desc))
        if r["counts"] != (oracle,) * 3:
            problems.append(f"counts {r['counts']} != brute_nuclei {oracle}")
        return problems
    return check


@lru_cache(maxsize=None)
def pins():
    """Per-quantale counts written by make_pins.py, keyed by desc_key."""
    return json.loads(PINS_FILE.read_text())


@lru_cache(maxsize=None)
def _oracle_nuclei(text):
    """Nucleus count by tests/oracles.brute_nuclei over the raw tables."""
    desc = json.loads(text)
    els = desc["poset"]["elements"]
    leq_pairs = {tuple(p) for p in desc["poset"]["leq"]}
    plus = {(x, y): z for x, y, z in desc["monoid"]["op"]}
    return len(brute_nuclei(els, lambda a, b: a == b or (a, b) in leq_pairs,
                            lambda a, b: plus[(a, b)]))


def _projective_check(desc):
    aqms, quotients, found = pins()["projective-4"][desc_key(desc)]

    def check(r):
        got = [r["aqms"], r["cyclic_quotients"], r["found"]]
        problems = [] if r["ok"] else ["verdict not ok"]
        if got != [aqms, quotients, found]:
            problems.append(f"(aqms, quotients, found) {got} != pinned "
                            f"{[aqms, quotients, found]}")
        return problems
    return check


def _leftdist_check(desc):
    gen_size = pins()["leftdist-4"][desc_key(desc)]

    def check(r):
        problems = [] if r["ok"] else ["verdict not ok"]
        if r["found"]:
            problems.append(f"left-distributivity witness {r['witnesses']}")
        if r["gen_size"] != gen_size:
            problems.append(f"gen_size {r['gen_size']} != pinned {gen_size}")
        return problems
    return check


class SearchWorkload:
    """quantale_descriptions(size), then one suite call per drawn job."""

    def __init__(self, size, suite, make_check, shapes, seed):
        self.size = size
        self.suite = suite
        self.make_check = make_check
        # jobs per order shape, drawn from the quantales of exactly `size`
        # elements; None for a job on every quantale of size <= `size`
        self.shapes = shapes
        self.seed = seed

    def setup(self):
        pass

    def enumerate(self):
        return search.quantale_descriptions(self.size)

    def jobs(self, descs):
        if self.shapes is None:
            picked = sorted(descs, key=canonical)
            random.Random(self.seed).shuffle(picked)
        else:
            pool = [d for d in descs if len(d["poset"]["elements"]) == self.size]
            picked = stratified_draw(pool, self.shapes, self.seed)
        suite = self.suite
        return [Job(desc_key(d), lambda d=d: getattr(search, suite)(d),
                    self.make_check(d))
                for d in picked]

    def check_enumeration(self, descs):
        want = DESCRIPTION_COUNTS[self.size]
        if len(descs) != want:
            return [f"quantale_descriptions({self.size}) gave {len(descs)}, "
                    f"pinned {want}"]
        return []


# -- fragment workload ---------------------------------------------------------


def _free_aqm_check(name):
    def check(rep):
        problems = [] if rep.ok else ["verdict not ok"]
        got = (rep.data["checked"], rep.data["skipped"])
        if got != FREE_AQM_COUNTS[name]:
            problems.append(f"(checked, skipped) {got} != pinned "
                            f"{FREE_AQM_COUNTS[name]}")
        return problems
    return check


def _extend_job():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["extend", "M2D2", "--json"])
    return code, out.getvalue()


def _extend_check(result):
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    rep = json.loads(text)
    problems = [] if rep["ok"] else ["verdict not ok"]
    if rep["lines"] != EXTEND_LINES:
        problems.append(f"report lines {rep['lines']} != pinned")
    return problems


class FragmentWorkload:
    """Fragment-mode check_aqm on three free AQMs, and the CLI extend."""

    size = None

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        # built through the undecorated functions, so no fixture cache is
        # filled; the CLI job builds its own inputs on every call
        self.m2 = fixtures.m2.__wrapped__()
        self.chain2 = validate_structure(CHAIN2)

    def jobs(self, descs=None):
        specs = [("free-M2-k4", self.m2, 4), ("free-M2-k3", self.m2, 3),
                 ("free-chain2-k4", self.chain2, 4)]
        jobs = [Job(name, lambda m=m, k=k: aqm.check_aqm(aqm.free_aqm(m, k=k)),
                    _free_aqm_check(name))
                for name, m, k in specs]
        jobs.append(Job("cli-extend-M2D2", _extend_job, _extend_check))
        random.Random(self.seed).shuffle(jobs)
        return jobs


# Jobs per order shape (strict order pairs). projective-4 follows the
# shapes' shares of the 4-element quantales (48 and 144). correspond-5 takes
# 13 from each common shape (2640, 1800 and 1440 quantales; their jobs cost
# about 45, 65 and 115 ms) and 1 from the rare M3 shape (160; 200 ms), so that
# its median and 75th-percentile jobs fall inside a shape, not on the edge
# between two, where the seed would decide which side they land on.
CORRESPOND_SHAPES = {10: 13, 9: 13, 8: 13, 7: 1}
PROJECTIVE_SHAPES = {6: 30, 5: 10}

WORKLOADS = {
    "correspond-5": lambda seed: SearchWorkload(
        5, "suite_correspond", _correspond_check, CORRESPOND_SHAPES, seed),
    "projective-4": lambda seed: SearchWorkload(
        4, "suite_projective", _projective_check, PROJECTIVE_SHAPES, seed),
    "leftdist-4": lambda seed: SearchWorkload(
        4, "suite_leftdist", _leftdist_check, None, seed),
    "fragment": FragmentWorkload,
}

JOB_COUNTS = {"correspond-5": 40, "projective-4": 40, "leftdist-4": 207,
              "fragment": 4}


def clear_fixture_caches():
    """Empty the lru_cache of every squanta.fixtures function, so no pass
    reuses a structure an earlier pass built."""
    for name in fixtures.__all__:
        fn = getattr(fixtures, name)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


class Pass:
    """Timed intervals and results of one run of a workload's jobs."""

    def __init__(self):
        self.enum = None       # (start, end) of the enumeration, if any
        self.jobs = []         # (start, end) of each job, in job order
        self.results = []      # (job, result or exception)
        self.problems = []     # pass-level problems (enumeration count)
        self.sample_text = ""

    def times(self, duration):
        """(wall, job times) with each interval measured by `duration`."""
        jobs = [duration(t0, t1) for t0, t1 in self.jobs]
        enum = duration(*self.enum) if self.enum else 0.0
        return enum + sum(jobs), jobs


def run_pass(wl):
    clear_fixture_caches()
    p = Pass()
    descs = None
    if wl.size is not None:
        t0 = perf_counter()
        descs = wl.enumerate()
        p.enum = (t0, perf_counter())
        p.problems = wl.check_enumeration(descs)
    jobs = wl.jobs(descs)
    p.sample_text = ",".join(job.name for job in jobs)
    for job in jobs:
        t0 = perf_counter()
        try:
            result = job.call()
        except Exception as exc:  # a raising job is a failed job
            result = exc
        p.jobs.append((t0, perf_counter()))
        p.results.append((job, result))
    return p


def job_problems(job, result):
    if isinstance(result, Exception):
        return [f"raised {type(result).__name__}: {result}"]
    return job.check(result)
