"""squanta benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload correspond-5 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it times the
set-up in fresh interpreters, then repeats whole passes of the workload's
jobs while another pass is expected to end within ``--seconds`` (at least
one pass). With ``--trace 1`` it runs one untraced pass and one traced pass
and reports the per-layer metrics. Times are reported at reference machine
speed (see speed.py). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the context fields. See README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer
from speed import SpeedProbe, scaled_subprocess_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REQUIRED = ("src/squanta/__init__.py", "tests/oracles.py")
SETUP_PROBES = 9

# per-layer metrics: inclusive span times, then counts
TIMED = [
    "search.quantale_descriptions", "search._commutative_mults",
    "nucleus.enumerate_nuclei", "nucleus.enumerate_consequences",
    "nucleus.enumerate_congruences", "nucleus.convert",
    "nucleus.structural_check", "nucleus.quotient",
    "projective.cyclic_projective_check", "projective.enumerate_module_homs",
    "aqm.exp_end", "aqm.check_aqm.finite", "aqm.check_aqm.fragment",
    "downset.normalize", "modact.check_action", "order.validate_structure",
]
COUNTED = [
    "search.quantale_descriptions.count", "search.aqms",
    "nucleus.presentations", "nucleus.validate_presentation.calls",
    "projective.residual.calls", "projective.cyclic_quotients",
    "projective.nonprojective",
    "aqm.table_aqm.calls", "aqm.free.checked", "aqm.free.skipped",
    "downset.normalize.calls", "downset.dsum.calls", "downset.djoin.calls",
    "downset.dleq.calls", "multiupset.msum.calls", "multiupset.mleq.calls",
    "modact.check_action.checked", "modact.check_action.skipped",
    "order.validate_structure.calls",
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (set-up probe)")
    return p.parse_args(argv)


def raw(t0, t1):
    return t1 - t0


def measure_setup(args):
    """Median time, at reference speed, of fresh interpreters that import
    squanta and build the workload's fixed inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]

    def probe():
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)

    return statistics.median(scaled_subprocess_time(probe)
                             for _ in range(SETUP_PROBES))


class Gate:
    """The verdict gate. A job fails if it raised, its verdict is not ok, or
    a pinned count or the oracle disagrees."""

    def __init__(self, job_problems, job_count):
        self.job_problems = job_problems
        self.job_count = job_count
        self.passes = self.attempted = self.failed = 0
        self.problems = []
        self.sample = None

    def check(self, p):
        """Check a pass's verdicts once it has ended, outside its timers, and
        drop its results, so that memory does not grow with the passes."""
        tag = f"pass {self.passes}"
        self.passes += 1
        self.problems += [f"{tag}: {msg}" for msg in p.problems]
        if len(p.results) != self.job_count:
            self.problems.append(f"{tag}: {len(p.results)} jobs, "
                                 f"not {self.job_count}")
        if self.sample is None:
            self.sample = p.sample_text
        elif p.sample_text != self.sample:
            self.problems.append(f"{tag}: drew a different sample")
        for job, result in p.results:
            self.attempted += 1
            bad = self.job_problems(job, result)
            if bad:
                self.failed += 1
                self.problems += [f"{tag} job {job.name}: {msg}" for msg in bad]
        p.results = []


def timed_passes(run_pass, wl, seconds, gate):
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(wl))
        gate.check(passes[-1])
        typical = statistics.median(p.times(raw)[0] for p in passes)
        if perf_counter() - t0 + typical > seconds:
            return passes


def end_to_end(passes, probe, setup_s):
    timed = [p.times(probe.scaled) for p in passes]
    wall = statistics.median(w for w, _ in timed)
    per_job = [statistics.median(lat) for lat in zip(*(j for _, j in timed))]
    return {
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(per_job) / wall, "1/s"),
        "job_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "job_p75_ms": (statistics.quantiles(per_job, n=4)[2] * 1e3, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def pass_factor(p, probe):
    """One speed factor for a whole pass. Traced spans are scaled by it
    uniformly, so self times still add up to the pass's wall time."""
    start = p.enum[0] if p.enum else p.jobs[0][0]
    return probe.factor(start, p.jobs[-1][1])


def per_layer(tracer, untraced, traced, probe):
    f = pass_factor(traced, probe)
    traced_wall = traced.times(raw)[0]
    s = tracer.summary(traced_wall)
    c = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}.s": (s["inclusive"].get(name, 0.0) * f, "s")
         for name in TIMED}
    m.update({name: (c[name], "count") for name in COUNTED})
    m["aqm.check_aqm.rejects"] = (c["aqm.check_aqm.raised"], "count")
    m["search.mult_accept_ratio"] = (
        ratio(c["search.aqms"], c["aqm.table_aqm.calls"]), "ratio")
    m["nucleus.consequence_accept_ratio"] = (
        ratio(c["nucleus.consequences_kept"],
              c["nucleus.consequence_candidates"]), "ratio")
    m["aqm.free.skip_ratio"] = (
        ratio(c["aqm.free.skipped"],
              c["aqm.free.checked"] + c["aqm.free.skipped"]), "ratio")
    m.update({f"{layer}.self_s": (s["layer_self"][layer] * f, "s")
              for layer in LAYERS})
    # main is the only wrapped cli function, so it holds all of cli's self time
    m["cli.main.self_s"] = (s["layer_self"]["cli"] * f, "s")
    m["bench.driver_s"] = (s["driver"] * f, "s")
    m["trace.wall_s"] = (traced_wall * f, "s")
    untraced_wall = untraced.times(raw)[0] * pass_factor(untraced, probe)
    m["trace.overhead_frac"] = (traced_wall * f / untraced_wall - 1, "ratio")

    problems = []
    accounted = sum(s["layer_self"].values()) + s["driver"]
    if abs(accounted - traced_wall) > 1e-6 * traced_wall:
        problems.append(f"layer self times + driver = {accounted} s, "
                        f"traced wall = {traced_wall} s")
    return m, problems, s["spans"]


def src_lines():
    return sum(len(f.read_text().splitlines())
               for f in sorted((ROOT / "src" / "squanta").glob("*.py")))


def main(argv=None):
    args = parse_args(argv)
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        return 0

    # one core for the whole run, set-up probes included: the probe's speed
    # samples then describe the core the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace}
    probe = SpeedProbe()
    gate = Gate(workloads.job_problems, workloads.JOB_COUNTS[args.workload])
    if args.trace:
        tracer = Tracer()
        probe.start()
        try:
            passes = [workloads.run_pass(wl)]
            gate.check(passes[0])
            tracer.install()
            try:
                passes.append(workloads.run_pass(wl))
            finally:
                tracer.uninstall()
            gate.check(passes[1])
        finally:
            probe.stop()
        metrics, problems, n_spans = per_layer(tracer, passes[0], passes[1],
                                               probe)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file, context)
        context.update(spans=n_spans,
                       trace_file=str(trace_file.relative_to(ROOT)))
    else:
        setup_s = measure_setup(args)
        probe.start()
        try:
            passes = timed_passes(workloads.run_pass, wl, args.seconds, gate)
        finally:
            probe.stop()
        metrics = end_to_end(passes, probe, setup_s)
        problems = []
    problems += gate.problems
    for msg in problems[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)

    context.update(
        passes=len(passes),
        raw_wall_s=[p.times(raw)[0] for p in passes],
        speed_factor=[pass_factor(p, probe) for p in passes],
        job_counts=workloads.JOB_COUNTS,
        sample_sha256=workloads.sha256(gate.sample),
        fail_frac=gate.failed / gate.attempted,
        src_lines=src_lines(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
