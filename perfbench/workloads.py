"""The four benchmark workloads: set-up, fixed job lists and per-job oracles.

A workload's `setup(ctx)` imports the layers it drives, generates its inputs
from the seed, warms up, and returns its job list.  A job is one CLI command
or one public-API experiment: `run()` is the timed call into fhplab and
`check(result)` is the oracle, run untimed afterwards.  A check returns None
when the result matches and a one-line reason when it does not.

Oracles are closed forms, duality identities, independent recomputation by
plain arithmetic, or golden values of exact invariants recorded at the
commit that introduced the benchmark (GOLDEN below).  No oracle compares a
witness or a weight vector against a stored copy: witnesses are verified
for validity instead.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable

# Exact invariants of fixed inputs, recorded when the benchmark was added.
GOLDEN = {
    # typecount.f_phi over F_q lines: (q, pool size, l) -> (value, greedy_value)
    "f_phi": {(5, 25, 2): (2, 2), (7, 12, 3): (3, 3)},
    # vc.vc_dimension(build_shattered_pairs(6), cap=3).vc_lower
    "vc_shattered6_cap3": 3,
}


@dataclass
class Job:
    name: str
    run: Callable
    check: Callable


@dataclass
class Context:
    rng: random.Random  # the only source of seeded input variation
    workdir: str  # scratch directory for input files
    inproc: bool = False  # cli-readme: call cli.main in this process
    child_peak_rss_kb: int = 0  # cli-readme: peak RSS over the job processes


# ---------------------------------------------------------------- helpers


def _squares(q):
    return {(z * z) % q for z in range(q)}


def _intersecting_pairs(members):
    return sum(1 for a, b in itertools.combinations(members, 2) if a & b)


def _max_depth(members, ground):
    depth = [0] * ground
    for s in members:
        for e in s:
            depth[e] += 1
    return max(depth)


def _expect(pairs):
    """First mismatch among (label, got, want) triples, as a reason string."""
    for label, got, want in pairs:
        if got != want:
            return f"{label}: got {got}, want {want}"
    return None


def _check_fhp_against(members, ground, fam_rep):
    """check_fhp_instance at k=2 against members recomputed by arithmetic."""
    fam, rep = fam_rep
    if list(fam.members) != members:
        return "members differ from the arithmetic oracle"
    n = len(members)
    return _expect(
        [
            ("cons_count", rep.cons.cons_count, _intersecting_pairs(members)),
            ("total", rep.cons.total, comb(n, 2)),
            ("best_beta", rep.best_beta, Fraction(_max_depth(members, ground), n)),
        ]
    )


def _line_members(q):
    """Lines x1 = a*x0 + b over F_q, point (x0, x1) numbered x0*q + x1.

    This is pseudofield.line_family's member order: parameters (a, b) in
    lexicographic order.
    """
    return [
        frozenset(x0 * q + (a * x0 + b) % q for x0 in range(q))
        for a in range(q)
        for b in range(q)
    ]


# ---------------------------------------------------------------- cli-readme


def _cli_families(ctx):
    """Write the small family files the CLI commands read."""
    from fhplab import constructs

    rng = ctx.rng
    fam = [sorted(rng.sample(range(12), rng.randint(3, 7))) for _ in range(10)]
    triples = [sorted(rng.sample(range(15), 3)) for _ in range(40)]
    block = constructs.build_block_counterexample(
        constructs.BlockParams(
            k=2, alpha=Fraction(1, 2), gamma=Fraction(1), p_prime=4, k_prime=2, r=3, m=4
        )
    )
    paths = {}
    for name, obj in (
        ("fam", {"ground": 12, "sets": fam}),
        ("triples", {"ground": 15, "sets": triples}),
        ("block", block.to_json_dict()),
    ):
        paths[name] = os.path.join(ctx.workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return paths, fam, triples


def _pk_holds(members, p, k):
    """Every p-multiset of members has k positions sharing an element."""
    for combo in itertools.combinations_with_replacement(members, p):
        depth = {}
        for s in combo:
            for e in s:
                depth[e] = depth.get(e, 0) + 1
        if max(depth.values(), default=0) < k:
            return False
    return True


def _vc_brute(members, ground):
    sets = [frozenset(s) for s in members]
    best = 0
    for d in range(1, ground + 1):
        if len(sets) < 2**d:
            break
        if not any(
            len({s & frozenset(c) for s in sets}) == 2**d
            for c in itertools.combinations(range(ground), d)
        ):
            break
        best = d
    return best


def _squarefree_upto(n):
    sf = bytearray([1]) * (n + 1)
    p = 2
    while p * p <= n:
        sf[p * p :: p * p] = bytearray(len(range(p * p, n + 1, p * p)))
        p += 1
    return sf


def _rat(obj):
    return Fraction(obj["num"], obj["den"])


ENVELOPE = ("schema", "tool", "version", "command", "seed", "caps", "report")


def _cli_check(want_code, report_check, result):
    code, out, err = result
    if "Traceback (most recent call last)" in err:
        return "crash: " + (err.strip().splitlines() or ["?"])[-1][:200]
    if code != want_code:
        return f"exit code {code}, want {want_code}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON object"
    if not isinstance(doc, dict) or tuple(doc) != ENVELOPE:
        return "report envelope keys differ"
    return report_check(doc["report"]) if report_check else None


def cli_readme(ctx):
    """The README's commands, each a fresh `python -m fhplab.cli` process."""
    paths, fam, triples = _cli_families(ctx)
    ground = 12
    cons2 = Fraction(_intersecting_pairs([set(s) for s in fam]), comb(len(fam), 2))
    analyze_code = 0 if cons2 >= Fraction(2, 3) and _pk_holds(fam, 4, 2) else 1
    vc_want = _vc_brute(fam, ground)
    sf = _squarefree_upto(100000 + 6)
    sqf_count = sum(1 for a in range(1, 100000) if sf[a] and sf[a + 2] and sf[a + 6])

    def verified(r):
        return None if r.get("verified") is True else "verified is not true"

    def shattered(r):
        return _expect([("sizes", sorted(len(s) for s in r["sets"]), [4] * 12)])

    def furedi(r):
        res = r.get("result")
        if not r["found"] or res is None:
            return "no rainbow subfamily found"
        color = {e: c for c, part in enumerate(res["parts"]) for e in part}
        if sorted(color) != list(range(15)):
            return "parts do not partition the ground set"
        bad = [i for i in res["indices"] if len({color[e] for e in triples[i]}) != 3]
        if bad or len(res["indices"]) < res["target"] or res["target"] != 40 * 6 // 27:
            return "rainbow witness invalid"
        return None

    def analyze_fam(r):
        return _expect(
            [("cons.fraction", _rat(r["fhp"]["cons"]["fraction"]), cons2)]
        )

    def analyze_block(r):
        return _expect(
            [
                ("cons_count", r["fhp"]["cons"]["cons_count"], comb(3, 2) * 4**2),
                ("pk.holds", r["pk"]["holds"], False),
            ]
        )

    def lp(r):
        prod = _rat(r["intersection_number"]) * _rat(r["transversal"]["tau_star"])
        return _expect([("i(F)*tau*", prod, 1)])

    def vc_(r):
        return _expect([("vc_lower", r["vc"]["vc_lower"], vc_want)])

    def sqf_count_check(r):
        return _expect([("count", r["count"], sqf_count), ("bound_holds", r["bound_holds"], True)])

    def psat(r):
        return _expect([("satisfiable", r["satisfiable"], False)])

    def dickson(r):
        return _expect([("admissible", r["admissible"], True)])

    def ff_lines(r):
        fhp = r["report"]["fhp"]
        return _expect(
            [
                ("cons.fraction", _rat(fhp["cons"]["fraction"]), Fraction(11, 12)),
                ("best_beta", _rat(fhp["best_beta"]), Fraction(1, 11)),
            ]
        )

    def ff_fit(r):
        return _expect([("d", r["fit"]["d"], 1), ("mu", _rat(r["fit"]["mu"]), 1)])

    def count_types(r):
        c = r["count"]
        return None if c["value"] >= c["greedy_value"] >= 1 else "value below greedy bound"

    fam_p, tri_p, blk_p = paths["fam"], paths["triples"], paths["block"]
    commands = [
        ("construct-block", "construct block --k 2 --r 3 --m 4 --verify", 0, verified),
        ("construct-shattered", "construct shattered --m 4", 0, shattered),
        ("construct-cross", "construct cross --n 5 --verify", 0, verified),
        ("construct-caps", "construct caps --w 3 --depth 3 --verify", 0, verified),
        ("construct-furedi", f"construct furedi --family {tri_p} --trials 10000 --seed 7", 0, furedi),
        ("analyze-pk4", f"analyze --family {fam_p} --k 2 --alpha 2/3 --pk 4", analyze_code, analyze_fam),
        ("analyze-pk3", f"analyze --family {blk_p} --k 2 --alpha 1/2 --pk 3", 1, analyze_block),
        ("lp", f"lp --family {fam_p}", 0, lp),
        ("vc", f"vc --family {fam_p} --dual-sizes 2,4,8", 0, vc_),
        ("sqf-count-tail", "sqf count --shifts 0,2,6 --window 100000 --tail-prime 10007", 0, sqf_count_check),
        ("sqf-psat", "sqf psat --shifts 0,1,2,3 --p 2", 1, psat),
        ("sqf-dickson", "sqf dickson --forms 1,0;1,2;1,6", 0, dickson),
        ("ff-lines", "ff lines --p 11 --k 2 --alpha 1/2", 0, ff_lines),
        ("ff-fit", "ff fit --count 31 --q 31 --n 2", 0, ff_fit),
        ("count-types", f"count-types --family {fam_p} --m 1 --k 2 --l 6", 0, count_types),
    ]
    if ctx.inproc:
        from fhplab import cli

        run = partial(_cli_inproc, cli)
    else:
        run = partial(_cli_job, ctx)
        # one warm-up command, so .pyc compilation never lands in a job
        if _cli_subprocess(ctx, ["--version"])[0] != 0:
            raise RuntimeError("the CLI warm-up command failed")
    return [
        Job(name, partial(run, argv.split()), partial(_cli_check, code, check))
        for name, argv, code, check in commands
    ]


def _cli_subprocess(ctx, argv):
    """One CLI command as a child: (exit code, stdout, stderr, peak RSS in KiB).

    The child is reaped with os.wait4 so its own peak RSS is read, apart
    from every other process the pass starts.
    """
    with tempfile.TemporaryFile(dir=ctx.workdir) as out, tempfile.TemporaryFile(dir=ctx.workdir) as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fhplab.cli", *argv], stdout=out, stderr=err, cwd=ctx.workdir
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss


def _cli_job(ctx, argv):
    code, out, err, rss_kb = _cli_subprocess(ctx, argv)
    ctx.child_peak_rss_kb = max(ctx.child_peak_rss_kb, rss_kb)
    return code, out, err


def _cli_inproc(cli, argv):
    """cli.main in this process, with a traceback reported like a child's."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- field-families


def _field_job(pseudofield, setfam, q, phi, xa, psi, ya):
    family = pseudofield.definable_family(
        pseudofield.FieldStructure.for_prime(q), phi, xa, psi, ya
    )
    return family, setfam.check_fhp_instance(family, 2, Fraction(1, 2))


def _lines_job(pseudofield, setfam, q):
    family = pseudofield.line_family(pseudofield.FieldStructure.for_prime(q))
    return family, setfam.check_fhp_instance(family, 2, Fraction(1, 2))


def _check_lines(q, fam_rep):
    fam, rep = fam_rep
    if list(fam.members) != _line_members(q):
        return "members differ from the arithmetic oracle"
    n = q * q
    return _expect(
        [
            ("cons.fraction", rep.cons.fraction, Fraction(q, q + 1)),
            ("total", rep.cons.total, comb(n, 2)),
            ("best_beta", rep.best_beta, Fraction(1, q)),
        ]
    )


def _check_f_phi(want, rep):
    return _expect([("value, greedy", (rep.value, rep.greedy_value), want), ("exact", rep.exact, True)])


def _field_structure(typecount, q):
    add = {(a, b): (a + b) % q for a in range(q) for b in range(q)}
    mul = {(a, b): (a * b) % q for a in range(q) for b in range(q)}
    return typecount.FiniteStructure(
        universe=tuple(range(q)), functions={"+": (2, add), "*": (2, mul)}
    )


V = [["var", i] for i in range(4)]
LINE_PHI = ["=", V[1], ["+", ["*", V[2], V[0]], V[3]]]


def field_families(ctx):
    """Formula-defined families over F_q; the tree interpreter dominates."""
    from fhplab import pseudofield, setfam, typecount

    rng = ctx.rng
    # warm-up on F_2, a field no job uses, so the jobs' caches stay cold
    pseudofield.definable_family(
        pseudofield.FieldStructure.for_prime(2), LINE_PHI, 2, ["true"], 2
    )
    jobs = []
    for q in (7, 11, 13, 17, 19, 23):
        jobs.append(
            Job(f"lines-F{q}", partial(_lines_job, pseudofield, setfam, q), partial(_check_lines, q))
        )

    def add(name, q, phi, xa, ya, member):
        """A family with one member per parameter b; member(b) by arithmetic."""
        points = list(itertools.product(range(q), repeat=xa))
        members = [
            frozenset(i for i, x in enumerate(points) if member(x, b))
            for b in itertools.product(range(q), repeat=ya)
        ]
        jobs.append(
            Job(
                name,
                partial(_field_job, pseudofield, setfam, q, phi, xa, ["true"], ya),
                partial(_check_fhp_against, members, q**xa),
            )
        )

    sq = {q: _squares(q) for q in (13, 31)}
    c = rng.randrange(1, 13)
    add(
        "quadric-F13-y2", 13,
        ["=", ["+", ["*", V[0], V[0]], ["*", ["const", c], ["*", V[1], V[1]]]],
         ["+", ["*", V[2], V[0]], V[3]]],
        2, 2,
        lambda x, b: (x[0] * x[0] + c * x[1] * x[1] - b[0] * x[0] - b[1]) % 13 == 0,
    )
    c31 = rng.randrange(1, 31)
    add(
        "quadric-F31-y1", 31,
        ["=", ["+", ["*", V[0], V[0]], ["*", ["const", c31], ["*", V[1], V[1]]]], V[2]],
        2, 1,
        lambda x, b: (x[0] * x[0] + c31 * x[1] * x[1] - b[0]) % 31 == 0,
    )
    s = rng.randrange(31)
    add(
        "exists-F31-x1", 31,
        ["exists", 2, ["=", ["*", V[2], V[2]], ["+", V[0], ["+", V[1], ["const", s]]]]],
        1, 1,
        lambda x, b: (x[0] + b[0] + s) % 31 in sq[31],
    )
    c13 = rng.randrange(1, 13)
    add(
        "exists-F13-x2", 13,
        ["exists", 3, ["=", ["*", V[3], V[3]], ["+", V[0], ["*", ["const", c13], ["*", V[2], V[1]]]]]],
        2, 1,
        lambda x, b: (x[0] + c13 * b[0] * x[1]) % 13 in sq[13],
    )
    for (q, npool, l), want in GOLDEN["f_phi"].items():
        pool = [(a, b) for a in range(q) for b in range(q)][:npool]
        structure = _field_structure(typecount, q)
        jobs.append(
            Job(
                f"f_phi-F{q}-l{l}",
                partial(typecount.f_phi, structure, LINE_PHI, 2, 1, 2, pool, l),
                partial(_check_f_phi, want),
            )
        )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- count-kernels


def _shattered_cons(m, k):
    """k-sets of ordered pairs (a, b), a != b, whose sources and sinks are disjoint.

    Count labelings of the m points as source set S, sink set T, then the
    k-subsets of S x T that use every point of S and T (inclusion-exclusion).
    """
    total = 0
    for s in range(1, m + 1):
        for t in range(1, m - s + 1):
            onto = sum(
                (-1) ** (i + j) * comb(s, i) * comb(t, j) * comb((s - i) * (t - j), k)
                for i in range(s + 1)
                for j in range(t + 1)
            )
            total += comb(m, s) * comb(m - s, t) * onto
    return total


def _linear_rainbow(parts, ground):
    """Rainbow tuples with a common point when two members share <= 1 point."""
    depth = [[0] * ground for _ in parts]
    for d, part in zip(depth, parts):
        for s in part.members:
            for e in s:
                d[e] += 1
    total = 0
    for e in range(ground):
        prod = 1
        for d in depth:
            prod *= d[e]
        total += prod
    return total


def _brute_rainbow(parts, ground):
    return sum(
        1
        for combo in itertools.product(*(p.masks for p in parts))
        if combo[0] & combo[1] & combo[2]
    )


def _check_measure(family, support, rep):
    sets = [family.members[i] for i in support]
    hits = sum(1 for a in sets for b in sets if a & b)
    depth = _max_depth(sets, family.ground_size)
    n = len(sets)
    return _expect(
        [
            ("tuple_measure", rep.tuple_measure, Fraction(hits, n * n)),
            ("weighted_depth", rep.weighted_depth, Fraction(depth, n)),
        ]
    )


def _battery(setfam, family, parts, weights):
    """The counting experiment on one family: every kernel-backed check."""
    return (
        [setfam.cons_k(family, k) for k in (2, 3, 4)],
        setfam.max_intersecting(family),
        setfam.colorful_check(parts, Fraction(1, 2)),
        setfam.measure_fhp_check(family, weights, 2, Fraction(1, 2)),
    )


def _check_battery(family, support, cons_want, depth_want, rainbow_want, result):
    cons, best, colorful, measure = result
    return _expect(
        [
            ("cons_count", [r.cons_count for r in cons], [cons_want(k) for k in (2, 3, 4)]),
            ("max_intersecting", best.size, depth_want),
            ("rainbow_count", colorful.rainbow_count, rainbow_want),
        ]
    ) or _check_measure(family, support, measure)


def count_kernels(ctx):
    """Large dense families built directly; counting kernels dominate.

    A job is the whole counting experiment on one family (cons_k at k=2..4,
    max_intersecting, colorful_check, measure_fhp_check), so every job runs
    long enough to time; the trace still splits it per call.  The inputs are
    fixed and the seed only orders the jobs: relabeling the families, or
    drawing the colorful parts and measure support from the seed, changed
    job costs enough to swing job_s.p50 by 0.27-0.31 (IQR over median).
    """
    from fhplab import constructs, setfam, vc
    from fhplab.setfam import RationalWeights, SetFamily

    rng = ctx.rng
    setfam.cons_k(SetFamily(3, [{0, 1}, {1, 2}, {0, 2}]), 2)  # warm-up

    def lines(q):
        return SetFamily(q * q, _line_members(q))

    m = 8
    # name -> (family, cons_k closed form, max depth, rainbow oracle)
    specs = [
        ("lines-F13", lines(13), lambda k: 169 * comb(13, k), 13, _linear_rainbow),
        ("lines-F17", lines(17), lambda k: 289 * comb(17, k), 17, _linear_rainbow),
        ("cross-60", constructs.build_two_order_cross(60), lambda k: comb(60, 2) if k == 2 else 0, 2, _brute_rainbow),
        ("caps-4-5", constructs.build_caps_family(4, 5), lambda k: comb(5, k) * 4**k, 5, _brute_rainbow),
        ("shattered-8", constructs.build_shattered_pairs(m), partial(_shattered_cons, m), (m // 2) * (m - m // 2), _brute_rainbow),
    ]
    jobs = []
    for name, fam, cons_want, depth_want, rainbow in specs:
        parts = [SetFamily(fam.ground_size, fam.members[j::3]) for j in range(3)]
        support = list(range(min(fam.n, 40)))
        weights = RationalWeights({i: Fraction(1, len(support)) for i in support})
        jobs.append(
            Job(
                name,
                partial(_battery, setfam, fam, parts, weights),
                partial(
                    _check_battery, fam, support, cons_want, depth_want,
                    rainbow(parts, fam.ground_size),
                ),
            )
        )
    jobs += [
        Job(
            "lines-F13-vc",
            partial(vc.vc_dimension, specs[0][1], 2),
            lambda r: _expect([("vc_lower", r.vc_lower, 2)]),
        ),
        Job(
            "shattered-6-vc",
            partial(vc.vc_dimension, constructs.build_shattered_pairs(6), 3),
            lambda r: _expect([("vc_lower", r.vc_lower, GOLDEN["vc_shattered6_cap3"])]),
        ),
        Job(
            "lines-F17-dual",
            partial(vc.dual_shatter, specs[1][1], [2, 3]),
            lambda r: _expect([("values", r.values, {2: 4, 3: 7})]),
        ),
    ]
    rng.shuffle(jobs)
    return jobs


def kernel_cases(q=31):
    """The bench_backends.py cases on the q=31 line family, via fhplab._backend.

    Returns [(metric, call, expected)]: any k >= 2 distinct lines share at
    most one point, so the k-fold count is sum over points of C(depth, k).
    """
    from fhplab import _backend

    masks = [sum(1 << e for e in line) for line in _line_members(q)]
    g = q * q

    def concurrent(ms, k):
        depth = [0] * g
        for mk in ms:
            for e in range(g):
                depth[e] += mk >> e & 1
        return sum(comb(d, k) for d in depth)

    return [
        ("kernels.pairs_s", partial(_backend.count_intersecting_pairs, masks, g), concurrent(masks, 2)),
        ("kernels.triples_s", partial(_backend.count_intersecting_triples, masks[:150], g), concurrent(masks[:150], 3)),
        ("kernels.k4_s", partial(_backend.count_intersecting_k, masks[:60], g, 4), concurrent(masks[:60], 4)),
        ("kernels.depth_s", lambda: list(_backend.depth_counts(masks, g)), [q] * g),
    ]


# ---------------------------------------------------------------- lp-sweep


def _random_family(family_cls, rng):
    """The acceptance check-01 distribution: at most 12 members and atoms."""
    g = rng.randint(1, 12)
    n = rng.randint(1, 12)
    return family_cls(g, [rng.sample(range(g), rng.randint(1, g)) for _ in range(n)])


def _lp_job(fraclp, family):
    value, dist = fraclp.intersection_number(family)
    tr = fraclp.fractional_transversal(family)
    return value, dist, tr, fraclp.min_transversal_exact(family, family.ground_size)


def _check_lp(family, result):
    value, dist, tr, hit = result
    masks = family.masks
    if value * tr.tau_star != 1:
        return f"i(F)*tau* = {value * tr.tau_star}, want 1"
    if sum(dist.values()) != 1 or min(dist.values()) < 0:
        return "intersection witness is not a distribution"
    if any(sum(w for e, w in dist.items() if m >> e & 1) < value for m in masks):
        return "intersection witness gives a member less than i(F)"
    weights = tr.weights
    if sum(weights.values()) != tr.tau_star or any(
        sum(w for e, w in weights.items() if m >> e & 1) < 1 for m in masks
    ):
        return "transversal witness infeasible or off its value"
    size, witness = hit
    h = sum(1 << e for e in witness)
    if len(witness) != size or any(not m & h for m in masks) or size < tr.tau_star:
        return "integer transversal witness invalid"
    for smaller in itertools.combinations(range(family.ground_size), size - 1):
        h = sum(1 << e for e in smaller)
        if all(m & h for m in masks):
            return "integer transversal is not minimum"
    return None


# member counts of the large lp-sweep families, each over 12 ground elements
LARGE_LP_MEMBERS = (24, 26, 28)


def lp_sweep(ctx):
    """Many small exact LPs (per-solve cost) plus a few large ones (per-pivot).

    The small families are exactly those of acceptance check 01 and the large
    ones are fixed too; the seed only sets the order the jobs run in.
    Relabeling members and ground elements changes the simplex's pivot path:
    over five seeds it moved job_s.tail (a large LP) between 0.54 and 0.71 s,
    so a relabeled sweep could not hold job_s.tail to its bound.
    """
    from fhplab import fraclp
    from fhplab.setfam import SetFamily

    fraclp.intersection_number(SetFamily(3, [{0, 1}, {1, 2}, {0, 2}]))  # warm-up
    families = [_random_family(SetFamily, random.Random(i)) for i in range(200)]
    for n in LARGE_LP_MEMBERS:
        rng = random.Random(f"lp-sweep-large:{n}")
        families.append(SetFamily(12, [rng.sample(range(12), rng.randint(3, 8)) for _ in range(n)]))
    jobs = [
        Job(f"lp-{i}-n{f.n}", partial(_lp_job, fraclp, f), partial(_check_lp, f))
        for i, f in enumerate(families)
    ]
    ctx.rng.shuffle(jobs)
    return jobs



WORKLOADS = {
    "cli-readme": cli_readme,
    "field-families": field_families,
    "count-kernels": count_kernels,
    "lp-sweep": lp_sweep,
}
