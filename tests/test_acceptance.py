"""Release gate: thirteen numbered checks, one printed verdict line each.

Every check pins exact constants or compares against an independent
brute-force oracle, and enforces its own wall-clock budget.  Run with
plain pytest; the verdict lines bypass capture so they always show.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from sympy.functions.combinatorial.numbers import stirling

from fhplab import constructs, fraclp, pseudofield, setfam, sqfint, typecount

from conftest import (
    oracle_find_kdd,
    oracle_intersection_number,
    oracle_max_inconsistent,
    random_family,
)
from lp_oracle import intersection_lp


def verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def seeded_lp_families():
    fams = []
    for seed in range(200):
        fams.append(random_family(random.Random(seed)))
    return fams


def test_01_exact_lp_duality(capsys, seeded_lp_families):
    start = time.monotonic()
    triangle = setfam.SetFamily(3, [{0, 1}, {1, 2}, {0, 2}])
    i_tri, _ = fraclp.intersection_number(triangle)
    tau_tri = fraclp.fractional_transversal(triangle).tau_star
    exact = i_tri == Fraction(2, 3) and tau_tri == Fraction(3, 2)

    # i(F) is read as 1/tau* from one packing LP, so the product is 1 by
    # construction; the separately solved max-min LP is the real check
    dual_ok = 0
    oracle_ok = 0
    for fam in seeded_lp_families:
        value, _ = fraclp.intersection_number(fam)
        tau = fraclp.fractional_transversal(fam).tau_star
        if value * tau == 1:
            dual_ok += 1
        if value == intersection_lp(fam)[0]:
            oracle_ok += 1
    float_ok = all(
        abs(float(fraclp.intersection_number(fam)[0])
            - oracle_intersection_number(fam)) < 1e-7
        for fam in seeded_lp_families[:20]
    )
    elapsed = time.monotonic() - start
    ok = (exact and dual_ok == 200 and oracle_ok == 200 and float_ok
          and elapsed < 60)
    verdict(
        capsys, 1, "exact LP duality",
        ok,
        f"triangle i={i_tri} tau*={tau_tri}; product==1 on {dual_ok}/200; "
        f"max-min LP agrees on {oracle_ok}/200; "
        f"float oracle 20/20={float_ok}; {elapsed:.2f}s (<60s)",
    )


def test_02_sequence_ratio_floor(capsys, seeded_lp_families):
    start = time.monotonic()
    holds = 0
    for fam in seeded_lp_families:
        value, _ = fraclp.intersection_number(fam)
        if setfam.min_sequence_ratio(fam, 5) >= value:
            holds += 1
    elapsed = time.monotonic() - start
    ok = holds == 200 and elapsed < 120
    verdict(
        capsys, 2, "sequence ratios dominate the LP value",
        ok,
        f"min ratio >= i(F) on {holds}/200 families, all sequences of "
        f"length <=5; {elapsed:.2f}s (<120s)",
    )


def test_03_block_family(capsys):
    start = time.monotonic()
    params = constructs.BlockParams(
        k=2, alpha=Fraction(3, 5), gamma=Fraction(1), p_prime=4,
        k_prime=2, r=3, m=4,
    )
    fam = constructs.build_block_counterexample(params)
    cons = setfam.cons_k(fam, 2)
    count_ok = cons.cons_count == math.comb(3, 2) * 4**2 == 48
    frac_ok = cons.fraction == Fraction(8, 11) and cons.fraction > Fraction(2, 3)

    block0 = [i for i, lab in enumerate(fam.labels) if lab.startswith("S[0,")]
    masks = fam.masks
    disjoint = all(
        not masks[a] & masks[b] for a, b in itertools.combinations(block0, 2)
    )
    sub = setfam.SetFamily(
        fam.ground_size,
        [fam.members[i] for i in block0] + [fam.members[block0[-1] + 1]],
    )
    pk_sub = setfam.check_pk_property(sub, 4, 2)
    pk_full = setfam.check_pk_property(fam, 4, 2)
    fails = (not pk_sub.holds) and (not pk_full.holds) and disjoint
    elapsed = time.monotonic() - start
    ok = count_ok and frac_ok and fails and elapsed < 1
    verdict(
        capsys, 3, "block family",
        ok,
        f"cons_2 count={cons.cons_count} (=C(3,2)*4^2), fraction="
        f"{cons.fraction} > 2/3; block-of-4 pairwise disjoint, (4,2) fails "
        f"on any containing subfamily; {elapsed:.2f}s (<1s)",
    )


def test_04_grid_beta_shrinks(capsys):
    start = time.monotonic()
    betas = {}
    frac_ok = True
    for m in (4, 5, 8):
        fam = constructs.build_tp2_grid(3, m)
        rep = setfam.check_fhp_instance(fam, 3, Fraction(1, 27))
        frac_ok = frac_ok and rep.cons.fraction >= Fraction(1, 27)
        betas[m] = rep.best_beta
    beta_ok = all(betas[m] == Fraction(1, m) for m in betas)
    elapsed = time.monotonic() - start
    ok = frac_ok and beta_ok and elapsed < 30
    verdict(
        capsys, 4, "grid family shrinks beta at fixed alpha",
        ok,
        f"cons_3 fraction >= 1/27 and best_beta = "
        f"{ {m: str(b) for m, b in sorted(betas.items())} }; "
        f"{elapsed:.2f}s (<30s)",
    )


def test_05_two_order_cross(capsys):
    start = time.monotonic()
    all_ok = True
    for n in range(4, 21):
        fam = constructs.build_two_order_cross(n)
        pairs = setfam.cons_k(fam, 2)
        triples = setfam.cons_k(fam, 3)
        beta = setfam.check_fhp_instance(fam, 2, Fraction(1, 2)).best_beta
        all_ok = all_ok and (
            pairs.fraction == 1
            and triples.cons_count == 0
            and beta == Fraction(2, n)
        )
    elapsed = time.monotonic() - start
    ok = all_ok and elapsed < 5
    verdict(
        capsys, 5, "two-order cross family",
        ok,
        f"n=4..20: cons_2 fraction 1, cons_3 count 0, best_beta 2/n all "
        f"exact={all_ok}; {elapsed:.2f}s (<5s)",
    )


def test_06_caps_family(capsys):
    start = time.monotonic()
    W, D = 3, 4
    fam = constructs.build_caps_family(W, D)
    masks = fam.masks
    rows_ok = all(
        not masks[i * W + a] & masks[i * W + b]
        for i in range(D)
        for a, b in itertools.combinations(range(W), 2)
    )
    branches = 0
    for choice in itertools.product(range(W), repeat=D):
        inter = -1
        for i, j in enumerate(choice):
            inter &= masks[i * W + j]
        if inter:
            branches += 1
    elapsed = time.monotonic() - start
    ok = rows_ok and branches == W**D and elapsed < 5
    verdict(
        capsys, 6, "caps family",
        ok,
        f"W=3 D=4: all {D} rows pairwise disjoint={rows_ok}, "
        f"{branches}/{W**D} branch intersections nonempty; "
        f"{elapsed:.2f}s (<5s)",
    )


def test_07_shattered_pairs(capsys):
    start = time.monotonic()
    fam5 = constructs.build_shattered_pairs(5)
    pk = setfam.check_pk_property(fam5, 4, 2)
    quads = math.comb(fam5.n, 4)
    pk_ok = pk.holds and quads == 4845

    values = {}
    for m in (3, 4, 5):
        fam = constructs.build_shattered_pairs(m)
        res = fraclp.min_transversal_exact(fam, fam.n)
        values[m] = res[0]
    nondec = values[3] <= values[4] <= values[5]
    endpoint = values[3] < values[5]
    elapsed = time.monotonic() - start
    ok = pk_ok and nondec and endpoint and elapsed < 60
    verdict(
        capsys, 7, "shattered-pairs family",
        ok,
        f"m=5 has the (4,2)-property over all {quads} quadruples; exact "
        f"transversal sizes {values} nondecreasing with strict growth "
        f"m=3 vs m=5; {elapsed:.2f}s (<60s)",
    )


def test_08_rainbow_extraction(capsys):
    start = time.monotonic()
    found = 0
    worst_trial = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        fam = setfam.SetFamily(
            25, [set(rng.sample(range(25), 3)) for _ in range(60)]
        )
        res = constructs.furedi_extract(fam, 10**4, seed)
        if res is None:
            continue
        target_ok = res.target == math.floor((6 / 27) * 60) == 13
        rainbow = all(
            all(len(fam.members[i] & set(part)) == 1 for part in res.parts)
            for i in res.indices
        )
        if target_ok and rainbow and len(res.indices) >= 13:
            found += 1
            worst_trial = max(worst_trial, res.trial)
    elapsed = time.monotonic() - start
    ok = found == 50 and elapsed < 120
    verdict(
        capsys, 8, "rainbow subfamily extraction",
        ok,
        f"size >= 13 rainbow subfamily verified in {found}/50 seeded "
        f"instances, worst trial index {worst_trial} (<10^4); "
        f"{elapsed:.2f}s (<120s)",
    )


def test_09_squarefree_suite(capsys):
    start = time.monotonic()
    count = sqfint.count_solutions_window(sqfint.shift_system([0]), 10**6)
    expected = 6 / math.pi**2 * 10**6
    sieve_ok = abs(count - expected) / expected < 0.001

    bound_ok = 0
    for seed in range(20):
        rng = random.Random(2000 + seed)
        while True:
            shifts = sorted(rng.sample(range(40), 3))
            adm, _ = sqfint.dickson_admissible([(1, c) for c in shifts])
            if adm:
                break
        system = sqfint.shift_system(shifts)
        assert all(sqfint.p_satisfiable(system, p)[0] for p in (2, 3, 5))
        cert = sqfint.density_certificate(
            system.formula, 10007, constants=system.c
        )
        assert not cert.degenerate
        if all(
            sqfint.count_solutions_window(system, t)
            >= cert.epsilon_lower * t - cert.error_term(t)
            for t in (10**3, 10**4, 10**5)
        ):
            bound_ok += 1

    consecutive = sqfint.shift_system([0, 1, 2, 3])
    unsat = not sqfint.p_satisfiable(consecutive, 2)[0]
    elapsed = time.monotonic() - start
    ok = sieve_ok and bound_ok == 20 and unsat and elapsed < 300
    verdict(
        capsys, 9, "square-free suite",
        ok,
        f"sieve(10^6)={count} within 0.1% of 6/pi^2*10^6={expected:.0f}; "
        f"window lower bound holds for {bound_ok}/20 systems at "
        f"t=10^3..10^5; 4 consecutive shifts 2-unsat={unsat}; "
        f"{elapsed:.2f}s (<300s)",
    )


def test_10_field_lines(capsys):
    start = time.monotonic()
    stats_ok = True
    fits_ok = True
    details = []
    for q in (11, 31):
        field = pseudofield.FieldStructure.for_prime(q)
        fam = pseudofield.line_family(field)
        rep = setfam.check_fhp_instance(fam, 2, Fraction(1, 2))
        frac = rep.cons.fraction
        stats_ok = stats_ok and (
            fam.n == q * q
            and all(len(s) == q for s in fam.members)
            and rep.best_beta == Fraction(1, q)
            and frac == 1 - Fraction(q - 1, q * q - 1)
        )
        for member in fam.members:
            fit = pseudofield.dim_meas_fit(len(member), q, 2)
            if not (fit.ok and fit.d == 1 and fit.mu == 1):
                fits_ok = False
        details.append(f"q={q}: n={fam.n} cons_2={frac}")
    elapsed = time.monotonic() - start
    ok = stats_ok and fits_ok and elapsed < 120
    verdict(
        capsys, 10, "finite-field line families",
        ok,
        f"{'; '.join(details)}; best_beta=1/q, every line fits (d,mu)=(1,1);"
        f" {elapsed:.2f}s (<120s)",
    )


def _brute_f_phi(structure, phi, pool, m, k, l):
    best = 0
    for A in itertools.combinations(pool, l):
        types = typecount.enumerate_types(structure, phi, 1, list(A), k)

        def consistent(i, j, ts=types, mm=m):
            return not typecount.m_inconsistent(ts[i], ts[j], mm)

        best = max(best, oracle_max_inconsistent(consistent, len(types)))
    return best


def test_11_type_count_oracle(capsys):
    start = time.monotonic()
    corpus = [
        setfam.SetFamily(3, [{0, 1}, {1, 2}, {0, 2}]),
        constructs.build_tp2_grid(2, 2),
        constructs.build_tp2_grid(2, 3),
        constructs.build_two_order_cross(4),
        constructs.build_caps_family(2, 2),
    ]
    for seed in range(6):
        rng = random.Random(300 + seed)
        g = rng.randint(3, 6)
        corpus.append(
            setfam.SetFamily(
                g,
                [set(rng.sample(range(g), rng.randint(1, g)))
                 for _ in range(rng.randint(2, 6))],
            )
        )

    agree = checks = 0
    bounds_ok = True
    for fam in corpus:
        structure, phi, pool = typecount.structure_from_family(fam)
        for m in (1, 2):
            for k in (1, 2, 3):
                for l in sorted({1, 2, len(pool) // 2, len(pool)}):
                    if not 1 <= l <= len(pool):
                        continue
                    rep = typecount.f_phi(
                        structure, phi, 1, m, k, pool, l
                    )
                    checks += 1
                    if rep.exact and rep.value == _brute_f_phi(
                        structure, phi, pool, m, k, l
                    ):
                        agree += 1
                    bounds_ok = bounds_ok and rep.value <= sum(
                        math.comb(l, i) for i in range(1, k + 1)
                    )

    mono_ok = True
    structure, phi, pool = typecount.structure_from_family(
        constructs.build_tp2_grid(2, 3)
    )
    for k in (1, 2):
        a = typecount.f_phi(structure, phi, 1, 1, k, pool, 4).value
        b = typecount.f_phi(structure, phi, 1, 1, k + 1, pool, 4).value
        mono_ok = mono_ok and a <= b
    for l in (2, 4):
        a = typecount.f_phi(structure, phi, 1, 1, 2, pool, l).value
        b = typecount.f_phi(structure, phi, 1, 1, 2, pool, l + 2).value
        mono_ok = mono_ok and a <= b

    grid_value = typecount.f_phi(structure, phi, 1, 1, 2, pool, 6).value
    grid_ok = grid_value >= 3**2
    elapsed = time.monotonic() - start
    ok = agree == checks and bounds_ok and mono_ok and grid_ok and elapsed < 300
    verdict(
        capsys, 11, "type counting vs exhaustive oracle",
        ok,
        f"exact mode matches brute force on {agree}/{checks} corpus "
        f"settings; C(l,<=k) bound and (k,l)-monotonicity hold; grid "
        f"value {grid_value} >= m^k=9 at l=k*m; {elapsed:.2f}s (<300s)",
    )


def _brute_k222(edges, d):
    verts = sorted({v for e in edges for v in e})
    eset = {frozenset(e) for e in edges}
    for p1 in itertools.combinations(verts, d):
        r1 = [v for v in verts if v not in p1]
        for p2 in itertools.combinations(r1, d):
            r2 = [v for v in r1 if v not in p2]
            for p3 in itertools.combinations(r2, d):
                if all(
                    frozenset((a, b, c)) in eset
                    for a in p1 for b in p2 for c in p3
                ):
                    return p1, p2, p3
    return None


def _add_edge_keeps_c4_free(adj, u, v, nverts):
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    good = all(
        (adj[a] & adj[b]).bit_count() <= 1
        for a, b in itertools.combinations(range(nverts), 2)
    )
    if not good:
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    return good


def test_12_complete_bipartite_search(capsys):
    start = time.monotonic()
    small = [
        [(i, (i + 1) % 5) for i in range(5)],
        [(i, (i + 1) % 6) for i in range(6)],
        list(itertools.combinations(range(4), 2)),
        [(a, b) for a in range(3) for b in range(3, 6)],
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    ]
    for seed in range(25):
        rng = random.Random(400 + seed)
        nv = rng.randint(4, 12)
        pool = list(itertools.combinations(range(nv), 2))
        small.append(rng.sample(pool, rng.randint(3, len(pool))))

    agree = 0
    for edges in small:
        mine = typecount.find_kddd(edges, 2)
        ref = oracle_find_kdd(edges, 2)
        if (mine is None) == (ref is None):
            agree += 1
    graph_total = len(small)

    hyper_agree = hyper_total = 0
    tripartite = [
        (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
    ]
    hypers = [tripartite]
    for seed in range(6):
        rng = random.Random(500 + seed)
        nv = rng.randint(6, 9)
        pool = list(itertools.combinations(range(nv), 3))
        hypers.append(rng.sample(pool, rng.randint(6, min(20, len(pool)))))
    for edges in hypers:
        mine = typecount.find_kddd(edges, 2)
        ref = _brute_k222(edges, 2)
        hyper_total += 1
        if (mine is None) == (ref is None):
            hyper_agree += 1

    petersen = small[4]
    free_graphs = [(10, petersen), (40, [(0, v) for v in range(1, 40)]),
                   (40, [(i, (i + 1) % 40) for i in range(40)])]
    wind = [(0, v) for v in range(1, 39)]
    wind += [(2 * i + 1, 2 * i + 2) for i in range(19)]
    free_graphs.append((39, wind))
    for nverts, seed in ((30, 600), (40, 601)):
        rng = random.Random(seed)
        adj = [0] * nverts
        for u, v in rng.sample(
            list(itertools.combinations(range(nverts), 2)),
            len(list(itertools.combinations(range(nverts), 2))),
        ):
            _add_edge_keeps_c4_free(adj, u, v, nverts)
        edges = [
            (u, v)
            for u in range(nverts)
            for v in range(u + 1, nverts)
            if adj[u] >> v & 1
        ]
        free_graphs.append((nverts, edges))

    edge_bound_ok = True
    for nverts, edges in free_graphs:
        assert typecount.find_kddd(edges, 2) is None
        edge_bound_ok = edge_bound_ok and len(edges) <= nverts**1.5
    elapsed = time.monotonic() - start
    ok = (
        agree == graph_total
        and hyper_agree == hyper_total
        and edge_bound_ok
        and elapsed < 120
    )
    verdict(
        capsys, 12, "complete bipartite subgraph search",
        ok,
        f"brute-force agreement {agree}/{graph_total} graphs and "
        f"{hyper_agree}/{hyper_total} 3-uniform hypergraphs (<=12 "
        f"vertices); all {len(free_graphs)} K(2,2)-free graphs obey "
        f"|E| <= l^1.5; {elapsed:.2f}s (<120s)",
    )


def test_13_measure_equivalence(capsys):
    start = time.monotonic()
    agree = 0
    for seed in range(50):
        rng = random.Random(700 + seed)
        fam = random_family(rng, ground_max=8, n_max=6)
        L = rng.randint(2, 6)
        counts = [0] * fam.n
        for _ in range(L):
            counts[rng.randrange(fam.n)] += 1
        weights = setfam.RationalWeights(
            {i: Fraction(c, L) for i, c in enumerate(counts) if c}
        )
        d = rng.choice((2, 3))
        mu = setfam.measure_fhp_check(fam, weights, d, Fraction(1, 2))

        replicated = setfam.SetFamily(
            fam.ground_size,
            [fam.members[i] for i in range(fam.n) for _ in range(counts[i])],
        )

        def cons_count(s):
            if s > replicated.n:
                return 0
            if s == d:
                rep = setfam.check_fhp_instance(replicated, s, Fraction(0))
                return rep.cons.cons_count
            return setfam.cons_k(replicated, s).cons_count

        rhs = sum(
            math.factorial(s) * int(stirling(d, s, kind=2)) * cons_count(s)
            for s in range(1, d + 1)
        )
        if L**d * mu.tuple_measure == rhs:
            agree += 1
    elapsed = time.monotonic() - start
    ok = agree == 50 and elapsed < 120
    verdict(
        capsys, 13, "measure form matches replicated counting",
        ok,
        f"L^d * tuple measure == sum_s s!*S2(d,s)*cons_s on the "
        f"weight-replicated family, exactly, {agree}/50 seeded cases; "
        f"{elapsed:.2f}s (<120s)",
    )
