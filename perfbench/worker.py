"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
       [--trace] [--inproc] [--setup-only]

Set-up (imports, input generation, warm-up) is timed first, then the fixed
job list runs once in a closed loop: one job at a time, no threads, no
pools.  Only each job's call into fhplab is timed; its oracle runs after.
The last line of stdout is one JSON object describing the pass.

Every pass starts in a fresh interpreter, so the program's caches
(`FieldStructure.for_prime`, `_truncated_product`) start cold the same way
in every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from functools import partial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

# The in-process speed probe evaluates this fixed expression tree over a
# 36 x 36 grid with a dict environment: the same mix of recursion, list
# indexing, dict lookups and small-int arithmetic as the formula
# interpreter, and none of fhplab's code.
PROBE_TREE = ["=", ["+", ["*", ["v", 0], ["v", 0]], ["*", ["v", 1], ["c", 3]]], ["c", 5]]


def _probe_eval(node, env):
    tag = node[0]
    if tag == "v":
        return env[node[1]]
    if tag == "c":
        return node[1]
    a, b = _probe_eval(node[1], env), _probe_eval(node[2], env)
    if tag == "+":
        return (a + b) % 13
    if tag == "*":
        return (a * b) % 13
    return a == b


class Speedometer:
    """How long a fixed reference task takes now, re-measured at most every
    `every_s` seconds; `ref_s` is what it takes at reference speed.

    The shared CPUs of a small VM run Python up to 2x slower for stretches
    of seconds.  A job's latency divided by the reference time around it is
    steadier across those stretches; run.py scales it back by `ref_s`.
    """

    def __init__(self, probe, every_s, ref_s):
        self.probe = probe
        self.every_s = every_s
        self.ref_s = ref_s
        self.at = None
        self.value = None

    def read(self):
        now = time.perf_counter()
        if self.at is None or now - self.at >= self.every_s:
            self.value = self.probe()
            self.at = time.perf_counter()
        return self.value


def tree_probe():
    """Best of 3 evaluations of PROBE_TREE over a 36 x 36 grid."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        hits = 0
        for x in range(36):
            for y in range(36):
                hits += _probe_eval(PROBE_TREE, {0: x, 1: y})
        times.append(time.perf_counter() - start)
    return min(times)


def process_probe(modules="numpy, sympy"):
    """A fresh interpreter importing `modules`; numpy and sympy are what
    every CLI job imports."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        check=True, capture_output=True, timeout=60,
    )
    return time.perf_counter() - start


def speedometer(opt):
    if opt.workload == "cli-readme" and not opt.inproc:
        return Speedometer(process_probe, every_s=5.0, ref_s=0.5)
    return Speedometer(tree_probe, every_s=0.2, ref_s=0.0015)


def setup_reference(opt):
    """The reference task set-up is scaled by, and its reference seconds.

    Set-up time is mostly imports where it imports numpy or sympy, and
    imports slow down apart from Python code (count-kernels' set-up, 80%
    numpy's import, ran 30% faster in one set of runs than in another while
    the tree probe read slower), so such a set-up is scaled by a fresh
    interpreter importing the same modules.  lp-sweep's set-up imports
    neither and runs Python code.
    """
    if opt.workload == "lp-sweep" or opt.inproc:
        return tree_probe, 0.0015
    if opt.workload == "count-kernels":
        return partial(process_probe, "numpy"), 0.15
    return process_probe, 0.5


def run_pass(opt):
    tracer = tracing.Tracer() if opt.trace else None
    ctx = workloads.Context(
        rng=random.Random(f"{opt.workload}:{opt.seed}"),
        workdir=opt.workdir,
        inproc=opt.inproc,
    )
    setup_probe, setup_ref_s = setup_reference(opt)
    setup_probe_s = setup_probe()
    t0 = time.perf_counter()
    if tracer:
        tracing.instrument(tracer)
    jobs = workloads.WORKLOADS[opt.workload](ctx)
    setup_s = time.perf_counter() - t0
    # the reference task timed just before and just after set-up
    setup_probe_s = (setup_probe_s + setup_probe()) / 2
    speed = speedometer(opt)
    if opt.setup_only:
        jobs = []

    latencies, probes, failures, wrong = [], [], [], 0
    if tracer:
        tracer.phase = "jobs"
    loop_start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer:
            tracer.job = i
        before = read_probe(speed, tracer)
        span = tracer.open("bench.job") if tracer else None
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:  # a job that raises is a failed job, not a crash
            result, reason = None, f"crash: {type(exc).__name__}: {exc}"[:300]
        else:
            reason = None
        latencies.append(time.perf_counter() - start)
        if span is not None:
            tracer.close(span)
            span = tracer.open("bench.check")
        if reason is None:
            try:
                reason = job.check(result)
            except Exception as exc:  # an output the oracle cannot read is wrong
                reason = f"unreadable output: {type(exc).__name__}: {exc}"[:300]
            wrong += reason is not None and not reason.startswith("crash")
        if span is not None:
            tracer.close(span)
        if reason is not None:
            failures.append({"job": job.name, "reason": reason})
        probes.append((before + read_probe(speed, tracer)) / 2)
    loop_s = time.perf_counter() - loop_start
    attempted = len(jobs)
    kernels = {}
    if tracer and opt.workload == "count-kernels" and jobs:
        kernels, kernel_failures, cases = kernel_timings()
        attempted += cases
        failures += kernel_failures
        wrong += sum(not f["reason"].startswith("crash") for f in kernel_failures)

    if opt.workload == "cli-readme" and not opt.inproc:
        peak_kb = ctx.child_peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "setup_ref_s": setup_ref_s,
        "probe_ref_s": speed.ref_s,
        "latency_s": latencies,
        "probe_s": probes,
        "attempted": attempted,
        "failures": failures,
        "wrong": wrong,
        "peak_rss_mb": peak_kb / 1024,
        "versions": versions(),
    }
    if tracer:
        out["trace"] = trace_summary(tracer, loop_s, opt)
        out["trace"]["kernels"] = kernels
    return out


def read_probe(speed, tracer):
    if tracer is None:
        return speed.read()
    span = tracer.open("bench.probe")
    try:
        return speed.read()
    finally:
        tracer.close(span)


def trace_summary(tracer, loop_s, opt):
    jobs_self = tracer.self_times("jobs")
    setup_self = tracer.self_times("setup")
    bench = sum(v for k, v in jobs_self.items() if k in tracing.BENCH_SPANS)
    layers = sum(v for k, v in jobs_self.items() if k not in tracing.BENCH_SPANS)
    summary = {
        "self_s": {
            k: jobs_self.get(k, 0.0) + setup_self.get(k, 0.0)
            for k in set(jobs_self) | set(setup_self)
            if k not in tracing.BENCH_SPANS
        },
        "counts": dict(tracer.counts),
        "wall_s": loop_s,
        "bench_self_s": bench,
        "layers_self_s": layers,
        "unaccounted_s": loop_s - bench - layers,
    }
    path = os.path.join(opt.workdir, f"spans-{opt.workload}-{opt.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return summary


def kernel_timings(repeat=3):
    """Median of `repeat` timings per bench_backends case, its failures and
    the number of cases."""
    out, failures = {}, []
    cases = workloads.kernel_cases()
    for metric, call, want in cases:
        times = []
        try:
            for _ in range(repeat):
                start = time.perf_counter()
                got = call()
                times.append(time.perf_counter() - start)
        except Exception as exc:  # a crashing case is a failed case
            failures.append({"job": metric, "reason": f"crash: {type(exc).__name__}: {exc}"[:300]})
            continue
        if got != want:
            failures.append({"job": metric, "reason": "kernel result differs from oracle"})
        out[metric] = sorted(times)[repeat // 2]
    return out, failures, len(cases)


def versions():
    import importlib.metadata

    out = {"python": sys.version.split()[0]}
    for dist in ("numpy", "sympy"):
        try:
            out[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            out[dist] = None
    fhplab = sys.modules.get("fhplab")
    out["backend"] = getattr(fhplab, "BACKEND", None)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inproc", action="store_true", help="cli-readme: call cli.main in-process")
    ap.add_argument("--setup-only", action="store_true", help="time set-up, run no job")
    opt = ap.parse_args()
    print(json.dumps(run_pass(opt)))


if __name__ == "__main__":
    main()
