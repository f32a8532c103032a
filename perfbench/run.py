"""fhplab benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-readme, field-families, count-kernels, lp-sweep (see
perfbench/README.md for why each exists).  The run is a closed loop with one
client: passes run one after another, each in a fresh interpreter
(perfbench/worker.py), and each pass runs the workload's fixed job list one
job at a time.  The number of passes is fixed by the workload and
--seconds, never by the clock, so every run of a workload times the same
number of jobs.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass, next to one
untraced pass of the same kind for the tracing overhead.  The line before
it records the machine, versions, scrubbed environment, failures and
`ops_failed_ratio`.  Exit code 2 means the checkout or a worker is broken;
no result is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("cli-readme", "field-families", "count-kernels", "lp-sweep")

# A run makes --seconds // PASS_SECONDS passes, and at least MIN_PASSES.
# At --seconds 20 that is 3, 4, 6 and 5 passes: with set-up samples, runs of
# about 41, 26, 20 and 38 s on a 2-CPU VM.
PASS_SECONDS = {
    "cli-readme": 6.5,
    "field-families": 5.0,
    "count-kernels": 3.0,
    "lp-sweep": 4.0,
}
MIN_PASSES = 2
# Set-up is timed in every pass, plus set-up-only passes up to this many
# samples.  Set-up-only passes are cheap where set-up is short, and short
# set-ups need the most samples.
SETUP_SAMPLES = {
    "cli-readme": 5,
    "field-families": 5,
    "count-kernels": 9,
    "lp-sweep": 25,
}
# jobs beyond the tail percentile
TAIL_BEYOND = 10
DEADLINE_S = 170

# Variables that change what the program computes or how fast it starts.
SCRUB = ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE")


class BenchError(RuntimeError):
    pass


def hermetic_env(root):
    """Children's environment, plus the values it scrubbed from ours."""
    env = dict(os.environ)
    scrubbed = {
        k: env.pop(k) for k in sorted(env) if k.startswith("FHPLAB_") or k in SCRUB
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env, scrubbed


def run_worker(opt, env, workdir, deadline, *flags):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", opt.workload,
        "--seed", str(opt.seed),
        "--workdir", str(workdir),
        *flags,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    # its own session, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"a {opt.workload} pass did not finish in time") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def tail_index(n):
    """Index into n sorted samples with TAIL_BEYOND samples beyond it."""
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} jobs leave no tail with {TAIL_BEYOND} beyond it")
    return n - TAIL_BEYOND - 1


def passes_for(workload, seconds):
    return max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))


def normalised(p, seconds, probe_s):
    """Seconds at reference speed, from one pass's reference timings."""
    return seconds * p["probe_ref_s"] / probe_s


def job_times(p):
    return [normalised(p, s, probe) for s, probe in zip(p["latency_s"], p["probe_s"])]


def fastest(passes):
    """Each job's fastest execution, one per pass, at reference speed."""
    return [min(runs) for runs in zip(*map(job_times, passes))]


def end_to_end(opt, env, workdir, deadline):
    n = passes_for(opt.workload, opt.seconds)
    passes = [run_worker(opt, env, workdir, deadline) for _ in range(n)]
    samples = list(passes)
    for _ in range(SETUP_SAMPLES[opt.workload] - n):
        samples.append(run_worker(opt, env, workdir, deadline, "--setup-only"))
    setups = [p["setup_s"] * p["setup_ref_s"] / p["setup_probe_s"] for p in samples]
    best = fastest(passes)
    # the tail is an order statistic over every execution: slow outliers land
    # beyond it instead of deciding it, as one job's fastest run would
    runs = sorted(x for p in passes for x in job_times(p))
    metrics = {
        "wall_s": (sum(best), "s"),
        "job_s.p50": (statistics.median(best), "s"),
        "job_s.tail": (runs[tail_index(len(runs))], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    info = {
        "passes": n,
        "jobs_per_pass": len(best),
        "tail_percentile": round(100 * (tail_index(len(runs)) + 1) / len(runs), 2),
        "measured_pass_wall_s": [sum(p["latency_s"]) for p in passes],
        "measured_setup_s": [p["setup_s"] for p in samples],
        "probe_s": statistics.median(x for p in passes for x in p["probe_s"]),
        "setup_probe_s": [p["setup_probe_s"] for p in samples],
    }
    return passes, metrics, info


def _run_probe(cmd, env, cwd):
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"probe {cmd[1:]} exited with {proc.returncode}")
    return time.perf_counter() - start, proc.stderr


def cli_probes(env, workdir, repeat=3):
    """Interpreter start and `import fhplab.cli` as seen by -X importtime."""
    interp, total, numpy_s, sympy_s = [], [], [], []
    for _ in range(repeat):
        interp.append(_run_probe([sys.executable, "-c", "pass"], env, workdir)[0])
        _, err = _run_probe(
            [sys.executable, "-X", "importtime", "-c", "import fhplab.cli"], env, workdir
        )
        cumulative = {}
        top = 0.0
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if not m:
                continue
            us, indent, name = int(m.group(1)), m.group(2), m.group(3)
            cumulative.setdefault(name, us / 1e6)
            if len(indent) == 1 and name.startswith("fhplab"):
                top += us / 1e6
        total.append(top)
        numpy_s.append(cumulative.get("numpy", 0.0))
        sympy_s.append(cumulative.get("sympy", 0.0))
    med = statistics.median
    return {
        "cli.interp_s": med(interp),
        "cli.import_s": med(total),
        "cli.import.numpy_s": med(numpy_s),
        "cli.import.sympy_s": med(sympy_s),
    }


def per_layer(opt, env, workdir, deadline):
    flags = ("--inproc",) if opt.workload == "cli-readme" else ()
    plain = run_worker(opt, env, workdir, deadline, *flags)
    traced = run_worker(opt, env, workdir, deadline, "--trace", *flags)
    tr = traced["trace"]
    values = cli_probes(env, workdir)
    for name, _, source, _ in tracing.LAYER_METRICS:
        if source.startswith("span:"):
            values[name] = tr["self_s"].get(source[5:], 0.0)
        elif source == "count":
            values[name] = tr["counts"].get(name, 0)
        elif source == "kernel":
            values[name] = tr.get("kernels", {}).get(name, 0.0)
    values["trace.wall_s"] = tr["wall_s"]
    values["trace.bench_self_s"] = tr["bench_self_s"]
    values["trace.unaccounted_s"] = tr["unaccounted_s"]
    values["trace.overhead_ratio"] = sum(job_times(traced)) / sum(job_times(plain)) - 1
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name, *_ in tracing.LAYER_METRICS}
    # self times of the layers that ran, largest first, to name the dominant one
    ranked = sorted(tr["self_s"].items(), key=lambda kv: -kv[1])
    info = {
        "untraced_wall_s": sum(plain["latency_s"]),
        "accounted": abs(tr["unaccounted_s"]) <= 0.05 * tr["wall_s"],
        "layers_self_s": tr["layers_self_s"],
        "top_self_s": [[k, round(v, 6)] for k, v in ranked[:5]],
    }
    return [traced], metrics, info


def src_lines(root):
    counts = {}
    for path in sorted((root / "src").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.suffix == ".so":
            continue
        with open(path, "rb") as fh:
            counts[path.suffix or path.name] = counts.get(path.suffix or path.name, 0) + sum(1 for _ in fh)
    counts["total"] = sum(counts.values())
    return counts


def commit(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opt = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fhplab" / "__init__.py").is_file():
        print("error: run from the root of an fhplab checkout (src/fhplab missing)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env, scrubbed = hermetic_env(root)
    workdir = root / ".perfbench_work" / f"{opt.workload}-{opt.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        measure = per_layer if opt.trace else end_to_end
        passes, metrics, info = measure(opt, env, workdir, deadline)
        for spans in workdir.glob("spans-*.json"):
            spans.replace(root / ".perfbench_work" / spans.name)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record = {
        "workload": opt.workload,
        "seed": opt.seed,
        "trace": opt.trace,
        **info,
        "ops_failed_ratio": len(failures) / attempted,
        "failures": sorted({(f["job"], f["reason"]) for f in failures}),
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            **passes[0]["versions"],
        },
        "commit": commit(root),
        "src_lines": src_lines(root),
        "scrubbed_env": scrubbed,
    }
    print(json.dumps({"perfbench": record}))
    print(
        json.dumps(
            {
                "correct": all(p["wrong"] == 0 for p in passes),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
