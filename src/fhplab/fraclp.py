"""Exact rational linear programming for intersection numbers and transversals.

`solve_lp` solves max c . x subject to Ax <= b, x >= 0, with integer
entries and b >= 0, from the slack basis, which is then feasible.  It
runs Bland's rule on a dictionary (Chvatal 1983, ch. 2): one column per
nonbasic variable plus the rhs, (m+1) x (n+1) integers for m rows and n
variables, as the basic columns of a full tableau are det * e_r.  It is
fraction-free: every entry is an integer over the determinant det of
the current basis, and each pivot divides exactly by the previous one
(Bareiss 1968, Edmonds 1967).  The primal and dual certificates of the
optimum are checked in integers at the scale det.

Both LP quantities of a family come from one LP over its Venn atoms a,
the fractional matching (packing) LP, and its dual, the covering LP:

    tau* = max sum_F y_F  s.t.  sum_{F containing a} y_F <= 1 for all a
         = min sum_a w_a  s.t.  sum_{a in F} w_a >= 1 for all F

The packing rows are 0/1 with right-hand side 1; the certified dual
values of one solve are the transversal weights w (tau* = nu*, Fueredi
1988).  Kelley's max-min LP, i(F) = max over distributions mu of
min_F mu(F), is the covering LP rescaled by mu = w / tau*, so
i(F) * tau*(F) = 1 whenever all members are nonempty.

Each family's packing LP is built, solved and certified once: the atoms
and the solution are kept in the family object's __dict__, and every
call builds its own dicts and Fractions from them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._backend import elements
from ._jsonutil import SCHEMA_VERSION
from .setfam import SetFamily


class LpProblem:
    """max objective . x subject to rows . x <= rhs, x >= 0.

    All entries are integers and every rhs is >= 0.
    """

    __slots__ = ("objective", "rows", "rhs")

    def __init__(
        self,
        objective: Sequence[int],
        rows: Sequence[Sequence[int]],
        rhs: Sequence[int],
    ):
        c, A, b = objective, rows, rhs
        if not c:
            raise ValueError("need at least one variable")
        if len(A) != len(b) or any(len(row) != len(c) for row in A):
            raise ValueError("need one rhs per row and one entry per variable in a row")
        if not all(isinstance(v, int) for v in itertools.chain(c, b, *A)):
            raise ValueError("LP entries must be integers")
        if any(v < 0 for v in b):
            raise ValueError("rhs must be >= 0")
        self.objective = objective
        self.rows = rows
        self.rhs = rhs


class LpSolution(NamedTuple):
    """status is 'optimal' or 'unbounded'.

    When optimal: value is exact, primal is the variable vector, and dual is
    one multiplier per constraint row satisfying exact feasibility and
    objective equality (checked before return).
    """

    status: str
    value: Optional[Fraction] = None
    primal: Optional[tuple] = None
    dual: Optional[tuple] = None


class TransversalResult(NamedTuple):
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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Exact optimum with primal and dual witnesses; deterministic given input.

    An unbounded problem is reported in the status, never as an exception.
    """
    nvars = len(problem.objective)
    # row i is basic variable basis[i]'s det * (nonbasic columns | value),
    # the last row det * (reduced costs | -objective value); stored column j
    # is variable cols[j]: v < nvars structural, nvars + i the slack of row i
    tab = [[*row, b] for row, b in zip(problem.rows, problem.rhs)]
    tab.append([*problem.objective, 0])
    cols = list(range(nvars))
    basis = list(range(nvars, nvars + len(problem.rhs)))
    det = 1
    # Bland's rule: the least variable with positive reduced cost enters
    while entering := [(v, j) for j, v in enumerate(cols) if tab[-1][j] > 0]:
        pcol = min(entering)[1]
        # ratio test: least b_i / a_i over a_i > 0, cross-multiplied (all
        # entries share the denominator det), ties to the least basic index
        prow = -1
        for i, row in enumerate(tab[:-1]):
            a, b = row[pcol], row[-1]
            if a > 0 and (
                prow < 0 or (b * a_min, basis[i]) < (b_min * a, basis[prow])
            ):
                prow, a_min, b_min = i, a, b
        if prow < 0:
            return LpSolution(status="unbounded")
        # fraction-free pivot on p = a_min: every other row i becomes
        # (p*T[i][j] - T[i][pcol]*T[prow][j]) // det, an exact division
        # (Bareiss), and det becomes p.  Column pcol turns into the leaving
        # variable's, which was det * e_prow: the old det, and -T[i][pcol]
        row_p = tab[prow]
        for i, row in enumerate(tab):
            if i == prow:
                continue
            f = row[pcol]
            if f:
                tab[i] = [(a_min * a - f * b) // det for a, b in zip(row, row_p)]
                tab[i][pcol] = -f
            elif a_min != det:
                tab[i] = [a_min * a // det for a in row]
        row_p[pcol] = det
        basis[prow], cols[pcol] = cols[pcol], basis[prow]
        det = a_min

    # x = X / det, y = Y / det; y_i is minus the reduced cost of slack i
    x = {v: row[-1] for v, row in zip(basis, tab)}
    y = {v: -r for v, r in zip(cols, tab[-1])}
    X = [x.get(v, 0) for v in range(nvars)]
    Y = [y.get(v, 0) for v in range(nvars, nvars + len(basis))]
    _verify_certificates(problem, X, Y, det)
    return LpSolution(
        status="optimal",
        value=Fraction(sum(c * x for c, x in zip(problem.objective, X)), det),
        primal=tuple(Fraction(x, det) for x in X),
        dual=tuple(Fraction(y, det) for y in Y),
    )


def _verify_certificates(problem: LpProblem, X, Y, det: int):
    """Check in integers that x = X/det and y = Y/det are feasible with
    equal objectives, hence optimal; raise ArithmeticError if not."""
    A, b, c = problem.rows, problem.rhs, problem.objective
    if any(sum(a * x for a, x in zip(row, X)) > det * bi for row, bi in zip(A, b)):
        raise ArithmeticError("internal: primal certificate violated")
    if any(y < 0 for y in Y):
        raise ArithmeticError("internal: dual sign violated")
    for j, cj in enumerate(c):
        if sum(row[j] * y for row, y in zip(A, Y)) < det * cj:
            raise ArithmeticError("internal: dual feasibility violated")
    if sum(cj * x for cj, x in zip(c, X)) != sum(bi * y for bi, y in zip(b, Y)):
        raise ArithmeticError("internal: strong duality violated")


def _atoms(family: SetFamily):
    """Venn atoms: ground elements grouped by membership pattern.

    An element's pattern is its column in `family.columns`, the bitmask of
    the member indices that contain it.  Elements in no member are dropped
    (they can never help a cover).  Returns (reps, patterns) with reps
    ascending, reps[i] the smallest element of atom i and patterns[i] its
    column.  Atomization preserves all intersection patterns of the
    family.  Kept, like the packing LP, in the family's __dict__.
    """
    cache = family.__dict__
    if "_fraclp_atoms" not in cache:
        first: dict = {}
        for e, col in enumerate(family.columns):
            if col and col not in first:
                first[col] = e
        cache["_fraclp_atoms"] = tuple(first.values()), tuple(first)
    return cache["_fraclp_atoms"]


def _packing_lp(family: SetFamily):
    """(tau*, ((e, w), ...)) from the family's packing LP, solved once.

    The pairs are the LP's certified dual values, one per atom, keyed by
    the atom's smallest element; zero weights are dropped.  The family's
    members must all be nonempty.  Kept in the family's __dict__.
    """
    cache = family.__dict__
    if "_fraclp_packing" not in cache:
        reps, patterns = _atoms(family)
        n = family.n
        rows = tuple(tuple(pat >> i & 1 for i in range(n)) for pat in patterns)
        sol = solve_lp(LpProblem((1,) * n, rows, (1,) * len(reps)))
        if sol.status != "optimal":
            raise ArithmeticError(f"packing LP came back {sol.status}")
        weights = tuple((e, w) for e, w in zip(reps, sol.dual) if w)
        cache["_fraclp_packing"] = sol.value, weights
    return cache["_fraclp_packing"]


def _family_lp(family: SetFamily, integer_cap: Optional[int] = None):
    """(i(F), its distribution, the transversal) from one packing LP solve.

    integer_cap is checked first, whatever the family.  A family with no
    members has no i(F): value and distribution are None and tau* is 0.
    Other edge cases as in intersection_number.  The dicts are built
    afresh on every call, so mutating one changes no later answer.
    """
    if integer_cap is not None and integer_cap < 0:
        raise ValueError("cap must be >= 0")
    if family.n == 0:
        return None, None, TransversalResult(tau_star=Fraction(0), weights={})
    if family.empty_members:
        infeasible = TransversalResult(tau_star=None, weights={}, status="infeasible")
        return Fraction(0), {0: Fraction(1)}, infeasible
    tau, weights = _packing_lp(family)
    hit = None if integer_cap is None else min_transversal_exact(family, integer_cap)
    integer_tau, integer_witness = hit or (None, None)
    tr = TransversalResult(
        tau, dict(weights), integer_tau=integer_tau, integer_witness=integer_witness
    )
    return 1 / tau, {e: w / tau for e, w in weights}, tr


def intersection_number(family: SetFamily):
    """Kelley-style max-min LP: the best worst-case mass a probability
    distribution on the ground set can give every member.

    Returns (value, distribution); the distribution is a witness measure
    supported on atom representatives, the transversal weights over tau*.
    An empty member forces value 0 and a documented degenerate distribution
    (point mass on element 0).  A family with no members raises ValueError.
    """
    value, dist, _ = _family_lp(family)
    if value is None:
        raise ValueError("family has no members")
    return value, dist


def fractional_transversal(
    family: SetFamily, integer_cap: Optional[int] = None
) -> TransversalResult:
    """Minimum total weight on ground elements giving every member weight >= 1.

    Families with an empty member are flagged infeasible rather than raising,
    so generators can pipe degenerate instances through; a family with no
    members has tau* = 0.  When integer_cap is given, the exact smallest
    integer transversal up to that size is attached.
    """
    return _family_lp(family, integer_cap)[2]


def min_transversal_exact(family: SetFamily, cap: int):
    """Smallest hitting set of size <= cap, or None.

    Iterative deepening over the target size with branch-on-smallest-member
    search over the atoms: the members still unhit are one bitmask, and
    each branch hits the lowest-index unhit member with the fewest atoms;
    deterministic, so the witness is reproducible.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if family.n == 0:
        return 0, frozenset()
    if family.empty_members:
        return None
    reps, patterns = _atoms(family)
    # member -> the (rep, pattern) pairs of the atoms through it
    through = [
        [(e, pat) for e, pat in zip(reps, patterns) if pat >> i & 1]
        for i in range(family.n)
    ]

    def exists(budget, left, chosen):
        if not left:
            return tuple(chosen)
        if budget == 0:
            return None
        target = min(elements(left), key=lambda i: len(through[i]))
        for e, pat in through[target]:
            chosen.append(e)
            found = exists(budget - 1, left & ~pat, chosen)
            chosen.pop()
            if found is not None:
                return found
        return None

    everyone = (1 << family.n) - 1
    for size in range(0, cap + 1):
        found = exists(size, everyone, [])
        if found is not None:
            return len(found), frozenset(found)
    return None
