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

The LP is solved on the family's kernel (`_kernel`), by the classical
domination reduction for covering LPs.  A member that contains another
member is dropped: a cover of the smaller one covers it.  Then an atom
whose pattern over the kept members lies inside another atom's is
dropped: its packing row is implied by the other's, as y >= 0.  Neither
moves tau*.  The kept rows go largest first, which cuts Bland's pivots
several times over on atom-heavy families.  The solution is lifted
with zeros on what was dropped and checked in integers against the
full packing LP and its dual, so a wrong kernel raises.

Each family's packing LP is built, solved and certified once: the atoms,
the kernel and the solution are kept in the family object's __dict__,
and each public call builds only its own dicts and Fractions from them.
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
        if not all(type(v) is int for v in itertools.chain(c, b, *A)):
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
    found = _simplex(problem.objective, problem.rows, problem.rhs)
    if found is None:
        return LpSolution(status="unbounded")
    X, Y, det = found
    _verify_certificates(problem, X, Y, det)
    return LpSolution(
        status="optimal",
        value=Fraction(sum(c * x for c, x in zip(problem.objective, X)), det),
        primal=tuple(Fraction(x, det) for x in X),
        dual=tuple(Fraction(y, det) for y in Y),
    )


def _simplex(objective, rows, rhs):
    """(X, Y, det) at the optimum of max objective . x s.t. rows . x <= rhs,
    x >= 0: the primal x = X / det and the dual y = Y / det, one entry per
    variable and per row.  None when the problem is unbounded.  The
    entries must be integers and rhs >= 0; nothing is checked here.
    """
    nvars = len(objective)
    # row i is basic variable basis[i]'s det * (nonbasic columns | value),
    # the last row det * (reduced costs | -objective value); stored column j
    # is variable cols[j]: v < nvars structural, nvars + i the slack of row i
    tab = [[*row, b] for row, b in zip(rows, rhs)]
    tab.append([*objective, 0])
    cols = list(range(nvars))
    basis = list(range(nvars, nvars + len(rhs)))
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
            return None
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

    # y_i is minus the reduced cost of slack i
    x = {v: row[-1] for v, row in zip(basis, tab)}
    y = {v: -r for v, r in zip(cols, tab[-1])}
    X = [x.get(v, 0) for v in range(nvars)]
    Y = [y.get(v, 0) for v in range(nvars, nvars + len(basis))]
    return X, Y, det


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


def _kernel(family: SetFamily):
    """(keep, atoms): the packing LP's members and atoms after domination.

    keep is the bitmask of the minimal members: a member that contains
    another member's points is dropped, and of equal members the lowest
    index stays.  atoms are the (rep, pattern) pairs of `_atoms`, each
    pattern restricted to keep, of the maximal atoms among them: an atom
    whose restricted pattern lies inside another's is dropped, and of
    equal patterns the lowest rep stays.  One pass of each, not a fixed
    point.  Every kept member lies in a kept atom.  The family's members
    must all be nonempty.  Kept in the family's __dict__.
    """
    cache = family.__dict__
    if "_fraclp_kernel" not in cache:
        masks = family.masks
        keep, minimal = 0, []
        # by size, so a member's subsets come first; ties by index
        for i in sorted(range(family.n), key=lambda i: masks[i].bit_count()):
            m = masks[i]
            if all(s & m != s for s in minimal):
                minimal.append(m)
                keep |= 1 << i
        reps, patterns = _atoms(family)
        restricted = [pat & keep for pat in patterns]
        inside = [elements(pat) for pat in restricted]
        # kept member -> bitmask of the atom indices through it
        through = [0] * family.n
        for k, members in enumerate(inside):
            for i in members:
                through[i] |= 1 << k
        atoms = []
        for k, (pat, members) in enumerate(zip(restricted, inside)):
            if not members:
                continue
            over = -1  # the atoms whose patterns contain pat, k among them
            for i in members:
                over &= through[i]
            if all(j > k and restricted[j] == pat for j in elements(over ^ 1 << k)):
                atoms.append((reps[k], pat))
        cache["_fraclp_kernel"] = keep, tuple(atoms)
    return cache["_fraclp_kernel"]


def _packing_lp(family: SetFamily):
    """(total, det, ((e, w), ...)) from the family's packing LP, solved once.

    tau* is total / det.  The pairs are the certified dual values w / det,
    one per atom, keyed by the atom's smallest element, ascending; zero
    weights are dropped.  The LP is solved over the kernel, with its rows
    ordered by size, largest first; the solution is lifted with y_F = 0
    on dropped members and w_a = 0 on dropped atoms and checked against
    the full packing LP.  The family's members must all be nonempty.
    Kept in the family's __dict__.
    """
    cache = family.__dict__
    if "_fraclp_packing" not in cache:
        keep, atoms = _kernel(family)
        members = elements(keep)
        # ties keep ascending atom order: the sort is stable
        rows = sorted(atoms, key=lambda atom: -atom[1].bit_count())
        found = _simplex(
            (1,) * len(members),
            [[pat >> i & 1 for i in members] for _, pat in rows],
            (1,) * len(rows),
        )
        # every kept member lies in a kept atom, so every y_F is bounded by
        # a row; only a wrong kernel gets here
        if found is None:
            raise ArithmeticError("internal: packing LP unbounded on its kernel")
        X, Y, det = found
        y = [(i, v) for i, v in zip(members, X) if v]
        w = sorted((e, v) for (e, _), v in zip(rows, Y) if v)
        _verify_packing(family, y, w, det)
        cache["_fraclp_packing"] = sum(X), det, tuple(w)
    return cache["_fraclp_packing"]


def _verify_packing(family: SetFamily, y, w, det: int):
    """Check in integers that y and w, (index, value) pairs of the nonzero
    y_F * det per member and w_a * det per atom rep, are optimal for the
    family's full packing LP and its covering dual: signs, every atom's
    row, every member's column and equal objectives; raise ArithmeticError
    if not.  Read from the bitmask patterns: atom rep e's is columns[e]."""
    if any(v < 0 for _, v in y) or any(v < 0 for _, v in w):
        raise ArithmeticError("internal: packing certificate sign violated")
    load = dict(y)
    support = sum(1 << i for i in load)
    for pat in _atoms(family)[1]:
        if sum(load[i] for i in elements(pat & support)) > det:
            raise ArithmeticError("internal: packing row violated")
    cover = [0] * family.n
    for e, v in w:
        for i in elements(family.columns[e]):
            cover[i] += v
    if min(cover) < det:
        raise ArithmeticError("internal: covering column violated")
    if sum(load.values()) != sum(v for _, v in w):
        raise ArithmeticError("internal: packing objectives differ")


def intersection_number(family: SetFamily):
    """Kelley-style max-min LP: the best worst-case mass a probability
    distribution on the ground set can give every member.

    Returns (value, distribution); the distribution is a witness measure
    supported on atom representatives, the transversal weights over tau*.
    An empty member forces value 0 and a documented degenerate distribution
    (point mass on element 0).  A family with no members raises ValueError.
    The dict is built afresh on every call.
    """
    if family.n == 0:
        raise ValueError("family has no members")
    if family.empty_members:
        return Fraction(0), {0: Fraction(1)}
    total, det, weights = _packing_lp(family)
    return Fraction(det, total), {e: Fraction(w, total) for e, w in weights}


def fractional_transversal(
    family: SetFamily, integer_cap: Optional[int] = None
) -> TransversalResult:
    """Minimum total weight on ground elements giving every member weight >= 1.

    Families with an empty member are flagged infeasible rather than raising,
    so generators can pipe degenerate instances through; a family with no
    members has tau* = 0.  When integer_cap is given, the exact smallest
    integer transversal up to that size is attached; integer_cap is checked
    first, whatever the family.  The weights are built afresh on every call.
    """
    if integer_cap is not None and integer_cap < 0:
        raise ValueError("cap must be >= 0")
    if family.n == 0:
        return TransversalResult(tau_star=Fraction(0), weights={})
    if family.empty_members:
        return TransversalResult(tau_star=None, weights={}, status="infeasible")
    total, det, weights = _packing_lp(family)
    hit = None if integer_cap is None else min_transversal_exact(family, integer_cap)
    integer_tau, integer_witness = hit or (None, None)
    return TransversalResult(
        Fraction(total, det),
        {e: Fraction(w, det) for e, w in weights},
        integer_tau=integer_tau,
        integer_witness=integer_witness,
    )


def min_transversal_exact(family: SetFamily, cap: int):
    """Smallest hitting set of size <= cap, or None.

    Iterative deepening over the target size with branch-on-smallest-member
    search over the family's kernel (see `_kernel`): only the minimal
    members need hitting, since each other member contains one, and only
    the maximal atoms are tried, since a dominated atom can be swapped for
    its dominator in any cover.  The members still unhit are one bitmask,
    and each branch hits the lowest-index unhit member with the fewest
    atoms, trying its atoms by ascending representative; deterministic,
    so the witness is reproducible.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if family.n == 0:
        return 0, frozenset()
    if family.empty_members:
        return None
    keep, atoms = _kernel(family)
    # member -> the (rep, pattern) pairs of the kept atoms through it
    through = [[(e, pat) for e, pat in atoms if pat >> i & 1] for i in range(family.n)]

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

    for size in range(0, cap + 1):
        found = exists(size, keep, [])
        if found is not None:
            return len(found), frozenset(found)
    return None
