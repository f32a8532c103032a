"""Span and counter recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the public functions of
each fhplab layer are wrapped at the module attributes their callers look
up, so no program file changes.  A span is (name, start, end, parent, job,
phase); spans stay in memory and are written out once, at the end of the
pass.  A layer's self time is its span's duration minus the time its child
spans cover.

High-frequency entry points (the formula interpreter) get call counts only,
and only at their references in `pseudofield` and `typecount`: wrapping
`formulas.evaluate_formula` itself would also count its own recursion.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from math import comb

# Where each per-layer metric comes from and which end-to-end metric it should
# move.  Every time below is a self time: span duration minus traced children.
LAYER_METRICS = [
    # (metric name, unit, source, expected effect)
    ("cli.interp_s", "s", "probe", "reference; should never move"),
    ("cli.import_s", "s", "probe", "job_s.p50, wall_s on cli-readme; setup_s elsewhere"),
    ("cli.import.numpy_s", "s", "probe", "as cli.import_s"),
    ("cli.import.sympy_s", "s", "probe", "as cli.import_s"),
    ("cli.main.self_s", "s", "span:cli.main", "job_s.p50, wall_s on cli-readme"),
    ("formulas.evaluate_formula.calls", "count", "count", "wall_s, job_s.tail on field-families"),
    ("pseudofield.definable_family.self_s", "s", "span:pseudofield.definable_family", "wall_s, job_s.tail on field-families"),
    ("pseudofield.FieldStructure.for_prime_s", "s", "span:pseudofield.FieldStructure.for_prime", "wall_s on field-families"),
    ("typecount.f_phi.self_s", "s", "span:typecount.f_phi", "wall_s on field-families"),
    ("setfam.check_fhp_instance.self_s", "s", "span:setfam.check_fhp_instance", "wall_s on count-kernels; small on field-families"),
    ("setfam.cons_k.k2_s", "s", "span:setfam.cons_k.k2", "wall_s, job_s.tail on count-kernels"),
    ("setfam.cons_k.k3_s", "s", "span:setfam.cons_k.k3", "wall_s, job_s.tail on count-kernels"),
    ("setfam.cons_k.k4_s", "s", "span:setfam.cons_k.k4", "wall_s, job_s.tail on count-kernels"),
    ("setfam.cons_k.subsets", "count", "count", "computed sum of C(n,k) over cons_k calls"),
    ("setfam.max_intersecting_s", "s", "span:setfam.max_intersecting", "wall_s on count-kernels"),
    ("setfam.colorful_check_s", "s", "span:setfam.colorful_check", "wall_s on count-kernels"),
    ("setfam.measure_fhp_check_s", "s", "span:setfam.measure_fhp_check", "wall_s on count-kernels"),
    ("setfam.check_pk_property_s", "s", "span:setfam.check_pk_property", "cli-readme analyze jobs only"),
    ("vc.vc_dimension_s", "s", "span:vc.vc_dimension", "wall_s on count-kernels"),
    ("vc.dual_shatter_s", "s", "span:vc.dual_shatter", "wall_s on count-kernels"),
    ("fraclp.solve_lp.calls", "count", "count", "job_s.p50, wall_s on lp-sweep"),
    ("fraclp.solve_lp.small_s", "s", "span:fraclp.solve_lp.small", "job_s.p50 on lp-sweep"),
    ("fraclp.solve_lp.large_s", "s", "span:fraclp.solve_lp.large", "job_s.tail, wall_s on lp-sweep"),
    ("fraclp.lp_cells", "count", "count", "computed sum of rows*cols over solve_lp calls"),
    ("fraclp.intersection_number.self_s", "s", "span:fraclp.intersection_number", "wall_s on lp-sweep"),
    ("fraclp.fractional_transversal.self_s", "s", "span:fraclp.fractional_transversal", "wall_s on lp-sweep"),
    ("fraclp.min_transversal_exact_s", "s", "span:fraclp.min_transversal_exact", "wall_s on lp-sweep"),
    ("constructs.build_s", "s", "span:constructs.build", "setup_s on count-kernels"),
    ("constructs.furedi_extract_s", "s", "span:constructs.furedi_extract", "cli-readme furedi job only"),
    ("sqfint.count_solutions_window_s", "s", "span:sqfint.count_solutions_window", "cli-readme sqf jobs only"),
    ("sqfint.density_certificate_s", "s", "span:sqfint.density_certificate", "cli-readme sqf jobs only"),
    ("sqfint.p_satisfiable_s", "s", "span:sqfint.p_satisfiable", "cli-readme sqf jobs only"),
    ("sqfint.dickson_admissible_s", "s", "span:sqfint.dickson_admissible", "cli-readme sqf jobs only"),
    ("kernels.pairs_s", "s", "kernel", "count-kernels only: bench_backends pairs case, q=31 lines"),
    ("kernels.triples_s", "s", "kernel", "count-kernels only: triples over the first 150 members"),
    ("kernels.k4_s", "s", "kernel", "count-kernels only: k=4 over the first 60 members"),
    ("kernels.depth_s", "s", "kernel", "count-kernels only: element depths"),
    ("trace.wall_s", "s", "accounting", "traced job-loop wall time"),
    ("trace.bench_self_s", "s", "accounting", "benchmark's own code inside the traced job loop"),
    ("trace.unaccounted_s", "s", "accounting", "traced wall not covered by any span"),
    ("trace.overhead_ratio", "ratio", "accounting", "traced wall_s / untraced wall_s - 1"),
]

# Spans opened by the benchmark itself rather than around a program call.
BENCH_SPANS = ("bench.job", "bench.check", "bench.probe")

# solve_lp calls with more cells (rows * columns) than this count as large.
LARGE_LP_CELLS = 256


class Tracer:
    """In-memory span stack plus integer counters for one pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.job = None
        self.phase = "setup"

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, self.phase])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        """Wrap fn in a span; name may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def counted(self, fn, name):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def self_times(self, phase):
        """Sum of self time per span name over the spans of one phase."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _, ph) in enumerate(self.spans):
            if ph == phase:
                out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j, "phase": ph}
            for n, s, e, p, j, ph in self.spans
        ]


def _patch(tracer, module, attr, name):
    setattr(module, attr, tracer.wrap(getattr(module, attr), name))


def instrument(tracer):
    """Wrap the public layer calls at every module attribute callers use.

    A function imported by name into another module (`from .setfam import
    check_fhp_instance`) is looked up there, so the same wrapper is set
    there too.
    """
    from fhplab import cli, constructs, fraclp, pseudofield, setfam, sqfint, typecount, vc

    def cons_name(family, k):
        tracer.counts["setfam.cons_k.subsets"] += comb(family.n, k)
        return f"setfam.cons_k.k{k}"

    def lp_name(problem):
        cells = len(problem.rows) * len(problem.objective)
        tracer.counts["fraclp.solve_lp.calls"] += 1
        tracer.counts["fraclp.lp_cells"] += cells
        return "fraclp.solve_lp." + ("large" if cells > LARGE_LP_CELLS else "small")

    _patch(tracer, cli, "main", "cli.main")
    check = tracer.wrap(setfam.check_fhp_instance, "setfam.check_fhp_instance")
    for mod in (setfam, pseudofield, sqfint):
        mod.check_fhp_instance = check
    colorful = tracer.wrap(setfam.colorful_check, "setfam.colorful_check")
    measure = tracer.wrap(setfam.measure_fhp_check, "setfam.measure_fhp_check")
    for mod in (setfam, pseudofield):
        mod.colorful_check = colorful
        mod.measure_fhp_check = measure
    _patch(tracer, setfam, "cons_k", cons_name)
    _patch(tracer, setfam, "max_intersecting", "setfam.max_intersecting")
    _patch(tracer, setfam, "check_pk_property", "setfam.check_pk_property")

    _patch(tracer, pseudofield, "definable_family", "pseudofield.definable_family")
    pseudofield.FieldStructure.for_prime = staticmethod(
        tracer.wrap(
            pseudofield.FieldStructure.for_prime, "pseudofield.FieldStructure.for_prime"
        )
    )
    for mod in (pseudofield, typecount):
        mod.evaluate_formula = tracer.counted(
            mod.evaluate_formula, "formulas.evaluate_formula.calls"
        )
    _patch(tracer, typecount, "f_phi", "typecount.f_phi")

    _patch(tracer, vc, "vc_dimension", "vc.vc_dimension")
    _patch(tracer, vc, "dual_shatter", "vc.dual_shatter")

    _patch(tracer, fraclp, "solve_lp", lp_name)
    _patch(tracer, fraclp, "intersection_number", "fraclp.intersection_number")
    _patch(tracer, fraclp, "fractional_transversal", "fraclp.fractional_transversal")
    _patch(tracer, fraclp, "min_transversal_exact", "fraclp.min_transversal_exact")

    for attr in (
        "build_block_counterexample",
        "build_tp2_grid",
        "build_two_order_cross",
        "build_caps_family",
        "build_shattered_pairs",
    ):
        _patch(tracer, constructs, attr, "constructs.build")
    _patch(tracer, constructs, "furedi_extract", "constructs.furedi_extract")

    for attr in (
        "count_solutions_window",
        "density_certificate",
        "p_satisfiable",
        "dickson_admissible",
    ):
        _patch(tracer, sqfint, attr, f"sqfint.{attr}")
