import hashlib
import json
import random
from fractions import Fraction

import pytest

from fhplab import _backend, fraclp
from fhplab._jsonutil import rat_to_json, to_json
from fhplab.cli import main
from fhplab.fraclp import (
    LpProblem,
    fractional_transversal,
    intersection_number,
    min_transversal_exact,
    solve_lp,
)
from fhplab.setfam import SetFamily

from conftest import oracle_intersection_number, oracle_min_cover, random_family
from lp_oracle import full_tableau_lp, intersection_lps, solve_stacked, transversal_lps


def F(a, b=1):
    return Fraction(a, b)


class TestSolveLp:
    def test_max_two_vars(self):
        # max 3x+2y st x+y<=4, x<=2  -> x=2,y=2, value 10
        prob = LpProblem(objective=[3, 2], rows=[[1, 1], [1, 0]], rhs=[4, 2])
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == 10
        assert sol.primal == (F(2), F(2))

    def test_unbounded(self):
        prob = LpProblem(objective=[1], rows=[[-1]], rhs=[0])
        assert solve_lp(prob).status == "unbounded"

    def test_duals_satisfy_strong_duality(self):
        prob = LpProblem(
            objective=[3, 5], rows=[[1, 0], [0, 2], [3, 2]], rhs=[4, 12, 18]
        )
        sol = solve_lp(prob)
        assert sol.value == 36
        assert sum(y * b for y, b in zip(sol.dual, prob.rhs)) == sol.value

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LpProblem([1], [[1, 2]], [1])

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError, match="need at least one variable"):
            LpProblem([], [], [])

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError, match="rhs must be >= 0"):
            LpProblem([1], [[-1], [1]], [-3, 5])

    def test_non_integer_rejected(self):
        for objective, rows, rhs in (
            ([F(1, 2)], [[1]], [1]), ([1], [[0.5]], [1]), ([1], [[1]], [F(1)]),
            # True == 1 and False == 0, but neither is an integer entry
            ([True], [[True]], [True]), ([1], [[False]], [1]), ([1], [[1]], [False]),
        ):
            with pytest.raises(ValueError, match="must be integers"):
                LpProblem(objective, rows, rhs)


@pytest.mark.parametrize(
    "tamper, message",
    [
        # x = (5, 6/5) breaks both rows
        (lambda X, Y: ([3 * X[0] + 1, X[1]], Y), "primal certificate"),
        (lambda X, Y: (X, [-Y[0], *Y[1:]]), "dual sign"),
        (lambda X, Y: (X, [0] * len(Y)), "dual feasibility"),
        (lambda X, Y: ([0] * len(X), Y), "strong duality"),
    ],
)
def test_tampered_certificate_rejected(tamper, message):
    """Each of the four integer checks catches its own kind of bad witness."""
    # max x+y st x+2y<=4, 3x+y<=6 -> x=8/5, y=6/5; duals 2/5, 1/5
    prob = LpProblem([1, 1], [[1, 2], [3, 1]], [4, 6])
    sol = solve_lp(prob)
    assert sol.primal == (F(8, 5), F(6, 5)) and sol.dual == (F(2, 5), F(1, 5))
    X, Y = [8, 6], [2, 1]  # the witnesses at scale det = 5
    fraclp._verify_certificates(prob, X, Y, 5)
    with pytest.raises(ArithmeticError, match=message):
        fraclp._verify_certificates(prob, *tamper(X, Y), 5)


class TestIntersectionNumber:
    def test_triangle(self, triangle):
        value, dist = intersection_number(triangle)
        assert value == F(2, 3)
        assert sum(dist.values()) == 1
        assert all(v >= 0 for v in dist.values())

    def test_single_set(self):
        value, dist = intersection_number(SetFamily(5, [{2, 3}]))
        assert value == 1

    def test_disjoint_pair(self):
        value, _ = intersection_number(SetFamily(2, [{0}, {1}]))
        assert value == F(1, 2)

    def test_empty_member_forces_zero(self):
        value, dist = intersection_number(SetFamily(2, [{0}, set()]))
        assert value == 0
        assert sum(dist.values()) == 1

    def test_no_members_rejected(self):
        with pytest.raises(ValueError):
            intersection_number(SetFamily(3, []))

    def test_distribution_certifies_value(self, triangle):
        value, dist = intersection_number(triangle)
        for s in triangle.members:
            assert sum(w for e, w in dist.items() if e in s) >= value


class TestFractionalTransversal:
    def test_triangle(self, triangle):
        res = fractional_transversal(triangle, integer_cap=4)
        assert res.tau_star == F(3, 2)
        assert res.integer_tau == 2
        cover = set(res.integer_witness)
        assert all(cover & s for s in triangle.members)

    def test_weights_cover_each_member(self, triangle):
        res = fractional_transversal(triangle)
        for s in triangle.members:
            assert sum(res.weights.get(e, F(0)) for e in s) >= 1

    def test_empty_member_infeasible(self):
        res = fractional_transversal(SetFamily(2, [set()]))
        assert res.status == "infeasible"
        assert res.tau_star is None

    def test_no_members(self):
        res = fractional_transversal(SetFamily(3, []))
        assert res.tau_star == 0


class TestDuality:
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_product_one(self, seed):
        fam = random_family(random.Random(1000 + seed))
        value, _ = intersection_number(fam)
        res = fractional_transversal(fam)
        assert value * res.tau_star == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_float_oracle_agrees(self, seed):
        fam = random_family(random.Random(2000 + seed), ground_max=9, n_max=9)
        value, _ = intersection_number(fam)
        approx = oracle_intersection_number(fam)
        assert approx is not None
        assert abs(float(value) - approx) < 1e-7


class TestMinTransversal:
    def test_triangle(self, triangle):
        size, cover = min_transversal_exact(triangle, cap=3)
        assert size == 2
        assert all(cover & s for s in triangle.members)

    def test_empty_member_none(self):
        assert min_transversal_exact(SetFamily(2, [set()]), cap=2) is None

    def test_cap_too_small(self):
        fam = SetFamily(4, [{0}, {1}, {2}, {3}])
        assert min_transversal_exact(fam, cap=3) is None

    def test_no_members(self):
        assert min_transversal_exact(SetFamily(2, []), cap=0) == (0, frozenset())

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_oracle(self, seed):
        fam = random_family(random.Random(3000 + seed), ground_max=7, n_max=6)
        want = oracle_min_cover(fam)
        got = min_transversal_exact(fam, cap=fam.ground_size)
        assert got is not None and got[0] == want

    def test_check01_witnesses_pinned(self):
        """Sizes and witnesses on acceptance check 01's 200 families."""
        out = []
        for fam in lp_sweep_families()[:200]:
            size, witness = min_transversal_exact(fam, fam.ground_size)
            out.append([size, sorted(witness)])
        digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
        assert digest == "77186168ac3513df0d7922565c62cfe1311e8e315b4ff693784ea6dcfce97ffc"

    def test_ties_go_to_the_lowest_index(self):
        # among the unhit members with the fewest atoms the search branches
        # on the lowest index, at every depth; that fixes which of the
        # several 3-covers it finds first.  Branching on the highest index
        # at depth 0, or at depth 1, finds {1, 2, 4} first.  (At the last
        # depth the choice cannot matter: whichever member is chosen, the
        # first atom that hits every member left is the same.)
        fam = SetFamily(6, [
            [1, 2], [1, 3], [0, 2, 5], [2, 3, 5], [0, 4], [0, 4, 5], [4, 5],
        ])
        assert min_transversal_exact(fam, 6) == (3, frozenset({0, 1, 5}))

    @pytest.mark.parametrize("seed", range(8))
    def test_integer_at_least_ceiling_of_fractional(self, seed):
        fam = random_family(random.Random(4000 + seed), ground_max=8, n_max=8)
        res = fractional_transversal(fam, integer_cap=fam.ground_size)
        assert res.integer_tau >= res.tau_star


def test_atom_reduction_invariance():
    # duplicating an element (same membership pattern) must not move tau*
    base = SetFamily(3, [{0, 1}, {1, 2}])
    doubled = SetFamily(6, [{0, 1, 3, 4}, {1, 2, 4, 5}])
    assert (
        fractional_transversal(base).tau_star
        == fractional_transversal(doubled).tau_star
    )
    assert intersection_number(base)[0] == intersection_number(doubled)[0]


def dominated_family(rng):
    """A family with duplicate members, nested members and dominated atoms:
    a random base, a copy or a superset of some base members, and up to
    three new points, each in some of the members through one old point."""
    g = rng.randint(2, 8)
    base = [set(rng.sample(range(g), rng.randint(1, g))) for _ in range(rng.randint(1, 6))]
    members = list(base)
    for s in base:
        if rng.random() < 0.4:
            members.append(set(s))
        if rng.random() < 0.4:
            members.append(s | set(rng.sample(range(g), rng.randint(1, g))))
    extra = rng.randint(1, 3)
    for e in range(g, g + extra):
        p = rng.randrange(g)
        for s in members:
            if p in s and rng.random() < 0.5:
                s.add(e)
    rng.shuffle(members)
    return SetFamily(g + extra, [sorted(s) for s in members])


def kernel_by_definition(fam):
    """(keep, atoms) of `fraclp._kernel`, from the member sets: the members
    containing no other member (of equal ones the first), then the atoms
    whose kept-member sets lie in no other's (of equal ones the first)."""
    sets = fam.members
    keep = [
        i for i, s in enumerate(sets)
        if not any(t < s or (t == s and j < i) for j, t in enumerate(sets))
    ]
    reps = {}
    for e in range(fam.ground_size):
        reps.setdefault(frozenset(i for i, s in enumerate(sets) if e in s), e)
    through = [(e, frozenset(i for i in keep if e in sets[i])) for e in reps.values()]
    atoms = [
        (e, sum(1 << i for i in pat)) for k, (e, pat) in enumerate(through)
        if pat and not any(
            pat < other or (pat == other and j < k)
            for j, (_, other) in enumerate(through)
        )
    ]
    return sum(1 << i for i in keep), tuple(atoms)


def test_kernel_keeps_every_answer():
    """On families the kernel shrinks, the kernel is its definition, and
    tau*, i(F) and the integer size equal the full packing LP's over every
    ground element and the exhaustive cover oracle's."""
    shrunk = {"members": 0, "atoms": 0}
    for seed in range(300):
        fam = dominated_family(random.Random(f"kernel:{seed}"))
        keep, atoms = fraclp._kernel(fam)
        assert (keep, atoms) == kernel_by_definition(fam), seed
        shrunk["members"] += keep != (1 << fam.n) - 1
        shrunk["atoms"] += len(atoms) < len(fraclp._atoms(fam)[0])
        full = full_tableau_lp(LpProblem(
            [1] * fam.n,
            [[int(e in s) for s in fam.members] for e in range(fam.ground_size)],
            [1] * fam.ground_size,
        ))
        value, dist = intersection_number(fam)
        tr = fractional_transversal(fam, integer_cap=fam.ground_size)
        check_against_oracle(fam, value, dist, tr, full.value, f"seed {seed}")
        assert tr.integer_tau == oracle_min_cover(fam), seed
        assert all(tr.integer_witness & s for s in fam.members), seed
    assert min(shrunk.values()) > 150, shrunk


@pytest.mark.parametrize(
    "family, wrong, message",
    [
        # the triangle's three atoms are all maximal
        (SetFamily(3, [{0, 1}, {1, 2}, {0, 2}]), lambda keep, atoms: (keep, atoms[1:]),
         "packing row violated"),
        # member 0's only atom is gone, so y_0 has no row
        (SetFamily(2, [{0}, {1}]), lambda keep, atoms: (keep, atoms[1:]),
         "packing LP unbounded"),
        # member 1 is dropped, though it contains no other member
        (SetFamily(2, [{0}, {1}]), lambda keep, atoms: (1, atoms[:1]),
         "covering column violated"),
    ],
    ids=["atom", "every-atom-of-a-member", "member"],
)
def test_wrong_kernel_fails_the_full_certificate(monkeypatch, family, wrong, message):
    real = fraclp._kernel
    monkeypatch.setattr(fraclp, "_kernel", lambda fam: wrong(*real(fam)))
    with pytest.raises(ArithmeticError, match=message):
        fraclp._packing_lp(family)


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda y, w: (y, [(0, -1), *w[1:]]), "sign"),
        # y_0 + y_2 = 3 on atom 0's row
        (lambda y, w: ([(0, 2), *y[1:]], w), "packing row"),
        (lambda y, w: (y, w[1:]), "covering column"),
        (lambda y, w: (y[1:], w), "objectives differ"),
    ],
)
def test_tampered_packing_certificate_rejected(triangle, tamper, message):
    """Each check of the lifted certificate catches its own kind of bad witness."""
    y = w = [(0, 1), (1, 1), (2, 1)]  # the triangle's optimum at det = 2
    fraclp._verify_packing(triangle, y, w, 2)
    with pytest.raises(ArithmeticError, match=message):
        fraclp._verify_packing(triangle, *tamper(y, w), 2)


def random_lp(rng, max_vars=6, max_rows=7):
    """1-max_vars variables, 1-max_rows rows, A and c in {-4..4}, b in {0..6}."""
    nvars = rng.randint(1, max_vars)
    nrows = rng.randint(1, max_rows)
    return LpProblem(
        [rng.randint(-4, 4) for _ in range(nvars)],
        [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(nrows)],
        [rng.randint(0, 6) for _ in range(nrows)],
    )


def scipy_lps(probs):
    """(status, value) of each LP from scipy's HiGHS, in floats.

    x = 0 is feasible in every LP, so one is unbounded exactly when it
    has a ray: d >= 0 with A d <= 0 and c . d > 0.  One stacked solve
    looks for a ray with d <= 1 in every LP, a second solves the rest.
    """

    def block(prob, rhs, upper):
        return {
            "c": [-c for c in prob.objective],
            "A_ub": prob.rows,
            "b_ub": rhs,
            "bounds": [(0, upper)] * len(prob.objective),
        }

    def value(prob, x):
        return sum(c * v for c, v in zip(prob.objective, x))

    rays = solve_stacked([block(p, [0] * len(p.rows), 1) for p in probs])
    unbounded = [value(p, d) > 1e-9 for p, (d, _) in zip(probs, rays)]
    bounded = [p for p, u in zip(probs, unbounded) if not u]
    optima = iter(solve_stacked([block(p, p.rhs, None) for p in bounded]))
    return [
        ("unbounded", None) if u else ("optimal", value(p, next(optima)[0]))
        for p, u in zip(probs, unbounded)
    ]


def test_general_lps_match_scipy():
    probs = [random_lp(random.Random(seed)) for seed in range(2000)]
    for seed, (prob, (status, value)) in enumerate(zip(probs, scipy_lps(probs))):
        sol = solve_lp(prob)
        assert sol.status == status, seed
        if status == "optimal":
            assert abs(float(sol.value) - value) <= 1e-9 * max(1.0, abs(value)), seed


def lp_sweep_families():
    """Acceptance check 01's 200 families and the benchmark's 24/26/28-member
    ones."""
    families = [random_family(random.Random(seed)) for seed in range(200)]
    for n in (24, 26, 28):
        rng = random.Random(f"lp-sweep-large:{n}")
        families.append(SetFamily(
            12, [rng.sample(range(12), rng.randint(3, 8)) for _ in range(n)]
        ))
    return families


def lp_digest(solve):
    """sha256 of i(F) and tau* with their witnesses over lp_sweep_families,
    with solve(family) -> (value, distribution, TransversalResult)."""
    out = []
    for fam in lp_sweep_families():
        value, dist, tr = solve(fam)
        out.append([
            rat_to_json(value),
            {str(e): rat_to_json(w) for e, w in sorted(dist.items())},
            to_json(tr),
        ])
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def test_packing_lp_reports_pinned():
    """The library's reports, read from one packing LP per family."""
    digest = lp_digest(
        lambda fam: (*intersection_number(fam), fractional_transversal(fam))
    )
    assert digest == "8095a386bf38952d6b5e8f50533c131046ebfd2fb351590e687976e3f10ed839"


def check_against_oracle(fam, value, dist, tr, tau, label):
    """tau* equal to the covering LP oracle's, i(F) * tau* = 1, and valid
    witnesses."""
    assert tr.tau_star == tau, label
    assert value * tr.tau_star == 1, label
    assert all(m > 0 for m in dist.values()) and sum(dist.values()) == 1, label
    assert all(w > 0 for w in tr.weights.values()), label
    assert sum(tr.weights.values()) == tr.tau_star, label
    for s in fam.members:
        assert sum(m for e, m in dist.items() if e in s) >= value, label
        assert sum(w for e, w in tr.weights.items() if e in s) >= 1, label


def test_public_functions_match_two_lp_oracle():
    families = lp_sweep_families()
    oracle = zip(intersection_lps(families), transversal_lps(families))
    for i, (fam, ((i_value, _), tr)) in enumerate(zip(families, oracle)):
        value, dist = intersection_number(fam)
        assert value == i_value, f"family {i}"
        check_against_oracle(
            fam, value, dist, fractional_transversal(fam), tr.tau_star, f"family {i}"
        )


def test_packing_lp_matches_two_lp_oracle():
    seeds = range(10_000, 13_000)
    families = [random_family(random.Random(seed)) for seed in seeds]
    for seed, fam, tr in zip(seeds, families, transversal_lps(families)):
        check_against_oracle(
            fam, *intersection_number(fam), fractional_transversal(fam), tr.tau_star,
            f"seed {seed}",
        )


def test_general_lps_match_full_tableau():
    """Same LpSolution as the full tableau, so the same pivots up to the
    optimum; about a third of these LPs are unbounded."""
    statuses = set()
    for seed in range(3000):
        prob = random_lp(random.Random(f"dictionary:{seed}"), 7, 9)
        sol = solve_lp(prob)
        assert sol == full_tableau_lp(prob), seed
        statuses.add(sol.status)
    assert statuses == {"optimal", "unbounded"}


def test_packing_lps_match_full_tableau(solves):
    for fam in lp_sweep_families():
        fractional_transversal(fam)
    assert len(solves) == 203
    for i, prob in enumerate([LpProblem(*args) for args in solves]):
        assert solve_lp(prob) == full_tableau_lp(prob), f"family {i}"


@pytest.fixture
def solves(monkeypatch):
    """The (objective, rows, rhs) passed to _simplex, recorded through the
    module global: the packing LP's solves, and solve_lp's."""
    calls = []
    real = fraclp._simplex

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fraclp, "_simplex", counting)
    return calls


def test_each_function_solves_once(triangle, solves):
    intersection_number(triangle)
    assert len(solves) == 1
    fractional_transversal(triangle, integer_cap=3)
    assert len(solves) == 1


def test_one_solve_and_one_atomization_per_family(monkeypatch, solves):
    columns, kernels = [], []
    real_columns, real_kernel = _backend._columns, fraclp._kernel

    def counting(masks, ground_size):
        columns.append(masks)
        return real_columns(masks, ground_size)

    def recording(family):
        kernels.append(real_kernel(family))
        return kernels[-1]

    monkeypatch.setattr(_backend, "_columns", counting)
    monkeypatch.setattr(fraclp, "_kernel", recording)
    fam = SetFamily(5, [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}])
    value, _ = intersection_number(fam)
    res = fractional_transversal(fam, integer_cap=3)
    assert (value, res.tau_star, res.integer_tau) == (F(2, 5), F(5, 2), 3)
    assert len(solves) == 1 and len(columns) == 1
    # the packing LP and the search read one kernel, built once
    assert len(kernels) == 2 and kernels[0] is kernels[1]
    # a fresh, equal family still solves its own LP on its own kernel
    assert intersection_number(SetFamily(5, fam.members))[0] == value
    assert len(solves) == 2 and len(columns) == 2
    assert len(kernels) == 3 and kernels[2] == kernels[0]
    assert kernels[2] is not kernels[0]


def test_mutated_results_leave_later_answers_alone(triangle):
    value, dist = intersection_number(triangle)
    res = fractional_transversal(triangle)
    want = (value, dict(dist), res.tau_star, dict(res.weights))
    dist.clear()
    dist[7] = F(5)
    res.weights.clear()
    res.weights[0] = F(9)
    again, dist2 = intersection_number(triangle)
    res2 = fractional_transversal(triangle, integer_cap=3)
    assert (again, dist2, res2.tau_star, res2.weights) == want
    assert res2.integer_tau == 2
    # the integer transversal is attached on a cache hit, and only on request
    assert fractional_transversal(triangle).integer_tau is None


@pytest.mark.parametrize(
    "family",
    [SetFamily(3, []), SetFamily(3, [{0, 1}, {1, 2}, set()]), SetFamily(3, [{0}])],
    ids=["no-members", "empty-member", "plain"],
)
def test_negative_integer_cap_refused(family):
    with pytest.raises(ValueError, match="cap must be >= 0"):
        fractional_transversal(family, integer_cap=-1)
    with pytest.raises(ValueError, match="cap must be >= 0"):
        min_transversal_exact(family, cap=-1)


def test_lp_command_solves_once(tmp_path, solves, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"ground": 3, "sets": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["lp", "--family", str(path)]) == 0
    capsys.readouterr()
    assert len(solves) == 1
