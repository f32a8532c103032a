import hashlib
import json
import random
from fractions import Fraction

import pytest

from fhplab import fraclp
from fhplab._jsonutil import rat_to_json, to_json
from fhplab.cli import main
from fhplab.fraclp import (
    LpProblem,
    _family_lp,
    fractional_transversal,
    intersection_number,
    min_transversal_exact,
    solve_lp,
)
from fhplab.setfam import SetFamily

from conftest import oracle_intersection_number, oracle_min_cover, random_family
from lp_oracle import intersection_lp, transversal_lp


def F(a, b=1):
    return Fraction(a, b)


class TestSolveLp:
    def test_max_two_vars(self):
        # max 3x+2y st x+y<=4, x<=2  -> x=2,y=2, value 10
        prob = LpProblem(
            sense="max",
            objective=[F(3), F(2)],
            rows=[[F(1), F(1)], [F(1), F(0)]],
            relations=["<=", "<="],
            rhs=[F(4), F(2)],
        )
        sol = solve_lp(prob)
        assert sol.status == "optimal"
        assert sol.value == 10
        assert sol.primal == (F(2), F(2))

    def test_min_with_equality(self):
        # min x+y st x+2y=4, x>=1 -> x=4? no: y=(4-x)/2, obj=x+(4-x)/2=2+x/2, min at x=1 -> 5/2
        prob = LpProblem(
            sense="min",
            objective=[F(1), F(1)],
            rows=[[F(1), F(2)], [F(1), F(0)]],
            relations=["==", ">="],
            rhs=[F(4), F(1)],
        )
        sol = solve_lp(prob)
        assert sol.value == F(5, 2)

    def test_infeasible(self):
        prob = LpProblem(
            sense="max",
            objective=[F(1)],
            rows=[[F(1)], [F(1)]],
            relations=["<=", ">="],
            rhs=[F(1), F(2)],
        )
        assert solve_lp(prob).status == "infeasible"

    def test_unbounded(self):
        prob = LpProblem(
            sense="max",
            objective=[F(1)],
            rows=[[F(-1)]],
            relations=["<="],
            rhs=[F(0)],
        )
        assert solve_lp(prob).status == "unbounded"

    def test_negative_rhs_normalized(self):
        # max x st -x <= -3, x <= 5 -> 5
        prob = LpProblem(
            sense="max",
            objective=[F(1)],
            rows=[[F(-1)], [F(1)]],
            relations=["<=", "<="],
            rhs=[F(-3), F(5)],
        )
        sol = solve_lp(prob)
        assert sol.value == 5

    def test_duals_satisfy_strong_duality(self):
        prob = LpProblem(
            sense="max",
            objective=[F(3), F(5)],
            rows=[[F(1), F(0)], [F(0), F(2)], [F(3), F(2)]],
            relations=["<=", "<=", "<="],
            rhs=[F(4), F(12), F(18)],
        )
        sol = solve_lp(prob)
        assert sol.value == 36
        assert sum(y * b for y, b in zip(sol.dual, prob.rhs)) == sol.value

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LpProblem("max", [F(1)], [[F(1), F(2)]], ["<="], [F(1)])

    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError):
            LpProblem("max", [F(1)], [[F(1)]], ["<"], [F(1)])


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


def random_lp(rng):
    """1-6 variables, 1-7 rows, entries in {-4..4}/{1..6}, mixed relations."""
    nvars = rng.randint(1, 6)
    nrows = rng.randint(1, 7)

    def q():
        return F(rng.randint(-4, 4), rng.randint(1, 6))

    return LpProblem(
        rng.choice(["max", "min"]),
        [q() for _ in range(nvars)],
        [[q() for _ in range(nvars)] for _ in range(nrows)],
        [rng.choice(["<=", ">=", "=="]) for _ in range(nrows)],
        [q() for _ in range(nrows)],
    )


def scipy_lp(prob):
    """(status, value) of prob from scipy's HiGHS, in floats."""
    from scipy.optimize import linprog

    sign = -1.0 if prob.sense == "max" else 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, rel, b in zip(prob.rows, prob.relations, prob.rhs):
        row = [float(a) for a in row]
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(float(b))
        elif rel == ">=":
            a_ub.append([-a for a in row])
            b_ub.append(-float(b))
        else:
            a_eq.append(row)
            b_eq.append(float(b))
    res = linprog(
        [sign * float(c) for c in prob.objective],
        A_ub=a_ub or None, b_ub=b_ub or None,
        A_eq=a_eq or None, b_eq=b_eq or None,
        bounds=[(0, None)] * len(prob.objective), method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    return status, (sign * res.fun if res.status == 0 else None)


def test_general_lps_match_scipy():
    for seed in range(2000):
        prob = random_lp(random.Random(seed))
        sol = solve_lp(prob)
        status, value = scipy_lp(prob)
        if status == "infeasible" and sol.status == "unbounded":
            # HiGHS may call an unbounded LP infeasible: check feasibility
            zero = LpProblem(
                prob.sense, [0] * len(prob.objective),
                prob.rows, prob.relations, prob.rhs,
            )
            assert solve_lp(zero).status == "optimal", seed
            continue
        assert sol.status == status, seed
        if status == "optimal":
            assert abs(float(sol.value) - value) <= 1e-9 * max(1.0, abs(value)), seed


@pytest.mark.parametrize(
    "prob, value",
    [
        # an artificial left basic at level 0 after phase 1 grew in phase 2
        # ("internal: primal certificate violated")
        (LpProblem("min", [F(1, 2)], [[F(2)], [F(-1)]], ["<=", "<="],
                   [F(1, 3), F(-1, 6)]), F(1, 12)),
        (LpProblem(
            "min", [F(-1), F(-1, 2), F(4, 5)],
            [[F(-4, 5), F(0), F(-2)], [F(1, 5), F(-3), F(-3)],
             [F(3, 4), F(1, 2), F(1, 3)], [F(-4, 3), F(2), F(1, 2)],
             [F(4), F(0), F(-1)]],
            ["==", "<=", "<=", ">=", ">="],
            [F(0), F(1, 3), F(1, 2), F(-1, 2), F(0)],
        ), F(-1, 2)),
        # the same fault once reported this bounded LP as unbounded
        (LpProblem(
            "max", [F(2, 5), F(1, 3), F(0), F(0)],
            [[F(1, 5), F(1, 3), F(-2, 3), F(0)],
             [F(1, 5), F(4, 5), F(1), F(-3, 4)],
             [F(3, 2), F(-3, 5), F(1, 3), F(-4, 3)],
             [F(1, 3), F(0), F(-1), F(1, 2)],
             [F(-1, 2), F(-3, 5), F(1, 6), F(-1, 2)],
             [F(0), F(-3), F(1), F(1, 2)]],
            ["<=", ">=", ">=", ">=", "==", "<="],
            [F(3, 4), F(2, 3), F(1, 2), F(-3), F(0), F(1, 2)],
        ), F(5, 18)),
    ],
)
def test_basic_artificial_regressions(prob, value):
    sol = solve_lp(prob)
    assert sol.status == "optimal"
    assert sol.value == value


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


def test_family_lp_reports_pinned():
    """The two-LP oracle's reports hash to the Fraction-tableau solver's
    output, so solve_lp's phase 1 and Bland pivot path stay as they were."""
    digest = lp_digest(lambda fam: (*intersection_lp(fam), transversal_lp(fam)))
    assert digest == "d1f892d9305c10a8952ea3e7de00c4fab5397cd8a8fd120567ed62df5f04a234"


def test_packing_lp_reports_pinned():
    """The library's reports, read from one packing LP per family."""
    digest = lp_digest(
        lambda fam: (*intersection_number(fam), fractional_transversal(fam))
    )
    assert digest == "f47de4125adf5d321366cadee2d692e067d5be135a53f748ab7e7eb4d45f2b7c"


def check_against_oracle(fam, value, dist, tr, label):
    """Exact values equal to the two-LP oracle's, and valid witnesses."""
    assert value == intersection_lp(fam)[0], label
    assert tr.tau_star == transversal_lp(fam).tau_star, label
    assert value * tr.tau_star == 1, label
    assert all(m > 0 for m in dist.values()) and sum(dist.values()) == 1, label
    assert all(w > 0 for w in tr.weights.values()), label
    assert sum(tr.weights.values()) == tr.tau_star, label
    for s in fam.members:
        assert sum(m for e, m in dist.items() if e in s) >= value, label
        assert sum(w for e, w in tr.weights.items() if e in s) >= 1, label


def test_public_functions_match_two_lp_oracle():
    for i, fam in enumerate(lp_sweep_families()):
        value, dist = intersection_number(fam)
        check_against_oracle(
            fam, value, dist, fractional_transversal(fam), f"family {i}"
        )


def test_packing_lp_matches_two_lp_oracle():
    for seed in range(10_000, 13_000):
        fam = random_family(random.Random(seed))
        check_against_oracle(fam, *_family_lp(fam), f"seed {seed}")


@pytest.fixture
def solves(monkeypatch):
    """The problems passed to solve_lp, recorded through the module global."""
    calls = []

    def counting(problem):
        calls.append(problem)
        return solve_lp(problem)

    monkeypatch.setattr(fraclp, "solve_lp", counting)
    return calls


def test_each_function_solves_once(triangle, solves):
    intersection_number(triangle)
    assert len(solves) == 1
    fractional_transversal(triangle, integer_cap=3)
    assert len(solves) == 2


def test_lp_command_solves_once(tmp_path, solves, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"ground": 3, "sets": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["lp", "--family", str(path)]) == 0
    capsys.readouterr()
    assert len(solves) == 1
