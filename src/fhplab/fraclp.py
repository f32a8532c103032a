"""Exact rational linear programming for intersection numbers and transversals.

A dense two-phase tableau simplex with Bland's anti-cycling rule, kept
fraction-free: every entry is an integer over one common denominator, the
determinant of the current basis, and each pivot divides exactly by the
previous one (Bareiss 1968, Edmonds 1967).  Instances here are small (at
most a few hundred variables), so termination and bit-exact primal/dual
certificates matter more than speed.  Variables are implicitly nonnegative.

Both LP quantities of a family come from one LP over its Venn atoms a,
the fractional matching (packing) LP, and its dual, the covering LP:

    tau* = max sum_F y_F  s.t.  sum_{F containing a} y_F <= 1 for all a
         = min sum_a w_a  s.t.  sum_{a in F} w_a >= 1 for all F

The packing rows are 0/1 with right-hand side 1, so the slack basis is
feasible and phase 1 never runs; the certified dual values of one solve
are the transversal weights w (tau* = nu*, Fueredi 1988).  Kelley's
max-min LP, i(F) = max over distributions mu of min_F mu(F), is the
covering LP rescaled by mu = w / tau*, so i(F) * tau*(F) = 1 whenever
all members are nonempty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._backend import _columns
from ._jsonutil import SCHEMA_VERSION
from .setfam import SetFamily

_REL = ("<=", ">=", "==")


@dataclass(frozen=True)
class LpProblem:
    """max/min objective . x subject to rows {<=,>=,==} rhs, x >= 0."""

    sense: str
    objective: tuple
    rows: tuple
    relations: tuple
    rhs: tuple

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        obj = tuple(Fraction(c) for c in self.objective)
        if not obj:
            raise ValueError("need at least one variable")
        rows = tuple(tuple(Fraction(a) for a in row) for row in self.rows)
        rel = tuple(self.relations)
        rhs = tuple(Fraction(b) for b in self.rhs)
        if not (len(rows) == len(rel) == len(rhs)):
            raise ValueError("rows, relations, rhs must have equal length")
        for row in rows:
            if len(row) != len(obj):
                raise ValueError("row width must match objective length")
        for r in rel:
            if r not in _REL:
                raise ValueError(f"unknown relation {r!r}")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LpSolution:
    """status is 'optimal', 'infeasible', or 'unbounded'.

    When optimal: value is exact, primal is the variable vector, and dual is
    one multiplier per constraint row satisfying exact feasibility,
    complementary slackness, and objective equality (checked before return).
    """

    status: str
    value: Optional[Fraction] = None
    primal: Optional[tuple] = None
    dual: Optional[tuple] = None


@dataclass(frozen=True)
class TransversalResult:
    tau_star: Optional[Fraction]
    weights: dict
    status: str = "optimal"
    integer_tau: Optional[int] = None
    integer_witness: Optional[frozenset] = None

    def to_json_dict(self) -> dict:
        # status first; tau_star and the integer pair only when present
        out = {"schema": SCHEMA_VERSION, "status": self.status}
        if self.tau_star is not None:
            out["tau_star"] = self.tau_star
        out["weights"] = self.weights
        if self.integer_tau is not None:
            out["integer_tau"] = self.integer_tau
            out["integer_witness"] = self.integer_witness
        return out


def _price(tab, basis, costs, det):
    """Set the reduced-cost row tab[-1] to det * (c_j - c_B . column j).

    Its last entry, over the rhs column, is -det * (c_B . b).
    """
    red = [det * c for c in costs]
    red.append(0)
    for row, bv in zip(tab, basis):
        cb = costs[bv]
        if cb:
            red = [r - cb * a for r, a in zip(red, row)]
    tab[-1] = red


def _pivot(tab, basis, prow, pcol, det):
    """Fraction-free pivot on tab[prow][pcol]; returns the new det.

    Every other row i becomes (p*T[i][j] - T[i][pcol]*T[prow][j]) // det,
    an exact division (Bareiss), and the pivot row is left as it is.
    """
    row_p = tab[prow]
    piv = row_p[pcol]
    if piv < 0:
        # only on a zero-rhs row (an artificial driven out after phase 1):
        # negating the row first gives the same tableau and keeps det > 0
        row_p = tab[prow] = [-a for a in row_p]
        piv = -piv
    for i, row in enumerate(tab):
        if i == prow:
            continue
        f = row[pcol]
        if f:
            tab[i] = [(piv * a - f * b) // det for a, b in zip(row, row_p)]
        elif piv != det:
            tab[i] = [piv * a // det for a in row]
    basis[prow] = pcol
    return piv


def _simplex(tab, basis, costs, det, banned):
    """Run Bland-rule simplex to optimality; returns (status, det).

    status is 'optimal' or 'unbounded'; tab[-1] holds the final reduced
    costs.
    """
    _price(tab, basis, costs, det)
    m = len(basis)
    ncols = len(costs)
    while True:
        red = tab[-1]
        pcol = -1
        for j in range(ncols):
            if red[j] > 0 and j not in banned:
                pcol = j
                break
        if pcol < 0:
            return "optimal", det
        # ratio test b_i / a_i over a_i > 0, cross-multiplied (all entries
        # share the denominator det); ties go to the smallest basic index
        prow = -1
        for i in range(m):
            row = tab[i]
            a = row[pcol]
            if a > 0:
                if prow < 0:
                    prow, best_a, best_b = i, a, row[-1]
                    continue
                lhs = row[-1] * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[prow]):
                    prow, best_a, best_b = i, a, row[-1]
        if prow < 0:
            return "unbounded", det
        det = _pivot(tab, basis, prow, pcol, det)


def _scaled(values, scale):
    """The integers scale * v for Fractions v whose denominators divide scale."""
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact optimum with primal and dual witnesses; deterministic given input.

    Infeasible and unbounded problems are reported in the status, never as
    exceptions.
    """
    nvars = len(problem.objective)
    maximize = problem.sense == "max"
    obj = list(problem.objective) if maximize else [-c for c in problem.objective]

    # Clear denominators with one common scale for every row, the LCM of
    # all row and rhs denominators (negated to flip a row with rhs < 0).
    # One scale, not one per row, multiplies every slack and artificial by
    # the same factor, so phase 1's sum of artificials and Bland's pivot
    # path are those of the unscaled problem.
    lcm = math.lcm(
        *(a.denominator for row in problem.rows for a in row),
        *(b.denominator for b in problem.rhs),
    )
    scales = [-lcm if b < 0 else lcm for b in problem.rhs]
    rels = [
        {"<=": ">=", ">=": "<=", "==": "=="}[rel] if s < 0 else rel
        for rel, s in zip(problem.relations, scales)
    ]

    # column layout: structural | per row, its slack, surplus + artificial,
    # or artificial | rhs
    ncols = nvars + sum(2 if rel == ">=" else 1 for rel in rels)
    tab = []
    basis = []
    artificials = set()
    col = nvars
    for row, b, rel, s in zip(problem.rows, problem.rhs, rels, scales):
        t = _scaled(row, s) + [0] * (ncols - nvars) + _scaled([b], s)
        if rel == ">=":
            t[col] = -1
            col += 1
        t[col] = 1
        basis.append(col)
        if rel != "<=":
            artificials.add(col)
        col += 1
        tab.append(t)
    tab.append(None)  # reduced-cost row, set by _price
    unit_cols = list(basis)
    det = 1

    if artificials:
        costs1 = [0] * ncols
        for a in artificials:
            costs1[a] = -1
        # status cannot be 'unbounded': phase-1 objective is bounded above by 0
        _, det = _simplex(tab, basis, costs1, det, banned=())
        if tab[-1][-1] > 0:  # the phase-1 optimum c_B . b is negative
            return LpSolution(status="infeasible")
        # An artificial still basic (at level 0) could grow in phase 2,
        # which bans artificials only from entering: pivot it out on the
        # first other column with a nonzero entry in its row.  A row with
        # no such column is redundant and keeps its artificial at 0.
        for i, bv in enumerate(basis):
            if bv in artificials:
                row = tab[i]
                for j in range(ncols):
                    if row[j] and j not in artificials:
                        det = _pivot(tab, basis, i, j, det)
                        break

    cden = math.lcm(*(c.denominator for c in obj))
    costs2 = _scaled(obj, cden) + [0] * (ncols - nvars)
    status, det = _simplex(tab, basis, costs2, det, banned=artificials)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    primal = [Fraction(0)] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            primal[bv] = Fraction(tab[i][-1], det)
    value = sum((c * v for c, v in zip(obj, primal)), Fraction(0))

    # y_i = -reduced cost of row i's unit column (slack or artificial, cost
    # 0).  red holds det * cden times the scaled problem's reduced costs,
    # whose unit variable in row i is scales[i] times the unscaled one (a
    # negative scale undoes the flip).
    red = tab[-1]
    dual = [Fraction(-red[u] * s, det * cden) for u, s in zip(unit_cols, scales)]
    if not maximize:
        value = -value
        dual = [-y for y in dual]

    sol = LpSolution(
        status="optimal", value=value, primal=tuple(primal), dual=tuple(dual)
    )
    _verify_certificates(problem, sol)
    return sol


def _verify_certificates(problem: LpProblem, sol: LpSolution):
    """Exact feasibility + strong duality check; raises on internal error."""
    x = sol.primal
    y = sol.dual
    for row, rel, b in zip(problem.rows, problem.relations, problem.rhs):
        lhs = sum((a * v for a, v in zip(row, x)), Fraction(0))
        ok = lhs <= b if rel == "<=" else (lhs >= b if rel == ">=" else lhs == b)
        if not ok:
            raise ArithmeticError("internal: primal certificate violated")
    maximize = problem.sense == "max"
    ncon = len(problem.rows)
    for i in range(ncon):
        rel = problem.relations[i]
        if rel == "==":
            continue
        sign = y[i] >= 0 if (rel == "<=") == maximize else y[i] <= 0
        if not sign:
            raise ArithmeticError("internal: dual sign violated")
    for j in range(len(problem.objective)):
        coef = sum(
            (problem.rows[i][j] * y[i] for i in range(ncon)), Fraction(0)
        )
        c = problem.objective[j]
        if maximize:
            ok = coef >= c
        else:
            ok = coef <= c
        if not ok:
            raise ArithmeticError("internal: dual feasibility violated")
    yb = sum((problem.rhs[i] * y[i] for i in range(ncon)), Fraction(0))
    if yb != sol.value:
        raise ArithmeticError("internal: strong duality violated")


def _atoms(family: SetFamily):
    """Venn atoms: ground elements grouped by membership pattern.

    An element's pattern is its kernel column, the bitmask of the member
    indices that contain it.  Elements in no member are dropped (they can
    never help a cover).  Returns (reps, patterns) with reps ascending,
    reps[i] the smallest element of atom i and patterns[i] its column.
    Atomization preserves all intersection patterns of the family.
    """
    first: dict = {}
    for e, col in enumerate(_columns(family.masks, family.ground_size)):
        if col and col not in first:
            first[col] = e
    return list(first.values()), list(first)


def _family_lp(family: SetFamily, integer_cap: Optional[int] = None):
    """(i(F), its distribution, the transversal) from one packing LP solve.

    Edge cases as in intersection_number.  The transversal weights are the
    LP's certified dual values, one per atom, keyed by the atom's smallest
    element; zero weights are dropped.
    """
    if family.n == 0:
        raise ValueError("family has no members")
    if family.empty_members:
        infeasible = TransversalResult(tau_star=None, weights={}, status="infeasible")
        return Fraction(0), {0: Fraction(1)}, infeasible
    reps, patterns = _atoms(family)
    n, na = family.n, len(reps)
    rows = tuple(tuple(pat >> i & 1 for i in range(n)) for pat in patterns)
    sol = solve_lp(LpProblem("max", (1,) * n, rows, ("<=",) * na, (1,) * na))
    if sol.status != "optimal":
        raise ArithmeticError(f"packing LP came back {sol.status}")
    tau = sol.value
    weights = {e: w for e, w in zip(reps, sol.dual) if w}
    hit = None if integer_cap is None else min_transversal_exact(family, integer_cap)
    integer_tau, integer_witness = hit or (None, None)
    tr = TransversalResult(
        tau, weights, integer_tau=integer_tau, integer_witness=integer_witness
    )
    return 1 / tau, {e: w / tau for e, w in weights.items()}, tr


def intersection_number(family: SetFamily):
    """Kelley-style max-min LP: the best worst-case mass a probability
    distribution on the ground set can give every member.

    Returns (value, distribution); the distribution is a witness measure
    supported on atom representatives, the transversal weights over tau*.
    An empty member forces value 0 and a documented degenerate distribution
    (point mass on element 0).
    """
    value, dist, _ = _family_lp(family)
    return value, dist


def fractional_transversal(
    family: SetFamily, integer_cap: Optional[int] = None
) -> TransversalResult:
    """Minimum total weight on ground elements giving every member weight >= 1.

    Families with an empty member are flagged infeasible rather than raising,
    so generators can pipe degenerate instances through.  When integer_cap is
    given, the exact smallest integer transversal up to that size is attached.
    """
    if family.n == 0:
        return TransversalResult(tau_star=Fraction(0), weights={})
    return _family_lp(family, integer_cap)[2]


def min_transversal_exact(family: SetFamily, cap: int):
    """Smallest hitting set of size <= cap, or None.

    Iterative deepening over the target size with branch-on-smallest-member
    search; deterministic, so the witness is reproducible.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if family.n == 0:
        return 0, frozenset()
    if family.empty_members:
        return None
    reps, patterns = _atoms(family)
    # member -> candidate atom reps
    member_reps = []
    for i in range(family.n):
        member_reps.append(
            tuple(e for e, pat in zip(reps, patterns) if pat >> i & 1)
        )
    covers = dict(zip(reps, patterns))

    def exists(budget, members_left, chosen):
        if not members_left:
            return tuple(chosen)
        if budget == 0:
            return None
        target = min(members_left, key=lambda i: len(member_reps[i]))
        for e in member_reps[target]:
            if e in chosen:
                continue
            chosen.append(e)
            rest = frozenset(i for i in members_left if not covers[e] >> i & 1)
            found = exists(budget - 1, rest, chosen)
            chosen.pop()
            if found is not None:
                return found
        return None

    all_members = frozenset(range(family.n))
    for size in range(0, cap + 1):
        found = exists(size, all_members, [])
        if found is not None:
            return len(found), frozenset(found)
    return None
