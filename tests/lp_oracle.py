"""The two-LP path: i(F) and tau* each from its own LP, as an exact oracle.

The library reads both quantities from one packing LP and its dual.
These solve Kelley's max-min LP and the covering LP separately, with
`>=` and `==` rows, so they also exercise `solve_lp`'s phase 1 and its
Bland pivot path on the families the library sees.
"""

from fractions import Fraction

from fhplab.fraclp import LpProblem, TransversalResult, _atoms, solve_lp


def intersection_lp(family):
    """(i(F), distribution) from the max-min LP over the Venn atoms.

    Variables are the atom masses p_a, then t: max t subject to
    p(F) - t >= 0 for every member F and sum p = 1.  Needs a family with
    members, none of them empty.
    """
    reps, patterns = _atoms(family)
    na = len(reps)
    rows = [
        tuple(Fraction(pat >> i & 1) for pat in patterns) + (Fraction(-1),)
        for i in range(family.n)
    ]
    rows.append(tuple([Fraction(1)] * na + [Fraction(0)]))
    sol = solve_lp(
        LpProblem(
            "max",
            tuple([Fraction(0)] * na + [Fraction(1)]),
            tuple(rows),
            tuple([">="] * family.n + ["=="]),
            tuple([Fraction(0)] * family.n + [Fraction(1)]),
        )
    )
    assert sol.status == "optimal", sol.status
    dist = {reps[i]: sol.primal[i] for i in range(na) if sol.primal[i]}
    return sol.value, dist


def transversal_lp(family):
    """TransversalResult from the covering LP's primal over the Venn atoms.

    min sum w subject to w(F) >= 1 for every member F.  Needs a family
    with members, none of them empty.
    """
    reps, patterns = _atoms(family)
    na = len(reps)
    sol = solve_lp(
        LpProblem(
            "min",
            tuple([Fraction(1)] * na),
            tuple(
                tuple(Fraction(pat >> i & 1) for pat in patterns)
                for i in range(family.n)
            ),
            tuple([">="] * family.n),
            tuple([Fraction(1)] * family.n),
        )
    )
    assert sol.status == "optimal", sol.status
    weights = {reps[i]: sol.primal[i] for i in range(na) if sol.primal[i]}
    return TransversalResult(tau_star=sol.value, weights=weights)
