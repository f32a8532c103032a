"""i(F) and tau* each from its own LP, solved by scipy's HiGHS, certified exactly.

The library reads both quantities from one packing LP and its dual.
These solve Kelley's max-min LP and the covering LP separately, over
the raw ground set rather than the Venn atoms, with a solver that
shares no code with `fhplab.fraclp`.  HiGHS works in floats, so its
primal and dual values are rounded to rationals with
`Fraction.limit_denominator`; a value is returned only when the
rounded pair is an exact certificate: both sides feasible and both
objectives equal.  Otherwise the calling test fails.

The plural forms solve many families in one HiGHS call: their LPs are
stacked block-diagonally, and since the objective is a sum over the
blocks, an optimum restricted to one block is an optimum of that
family's LP.  One call per family would cost more in scipy's setup
than in the solve.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import block_diag

from fhplab.fraclp import TransversalResult

# largest denominator tried when rounding a HiGHS value; a vertex of
# these 0/1 LPs has a basis determinant far below it
MAX_DEN = 10**6


def _incidence(family):
    """members x ground 0/1 matrix."""
    inc = np.zeros((family.n, family.ground_size))
    for i, s in enumerate(family.members):
        inc[i, list(s)] = 1.0
    return inc


def _scaled(values):
    """(V, d): HiGHS values rounded to rationals, written as V[i] / d."""
    qs = [Fraction(float(v)).limit_denominator(MAX_DEN) for v in values]
    d = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (d // q.denominator) for q in qs], d


def solve_stacked(blocks):
    """One HiGHS solve of LPs given per block as linprog's keyword
    arguments (c, A_ub, b_ub, bounds, and A_eq, b_eq when every block
    has them), stacked block-diagonally.  Every block must have an
    optimum.

    Returns per block its x and the duals of its <= rows, in floats; the
    duals are signed so that a valid one is >= 0.
    """
    kw = {}
    for key in blocks[0]:
        parts = [b[key] for b in blocks]
        if key.startswith("A_"):
            kw[key] = block_diag([np.asarray(a, float) for a in parts], format="csr")
        else:
            kw[key] = np.concatenate(parts)
    res = linprog(method="highs", **kw)
    assert res.status == 0, res.message
    out = []
    col = row = 0
    for block in blocks:
        ncol, nrow = len(block["c"]), len(block["b_ub"])
        out.append((res.x[col:col + ncol], -res.ineqlin.marginals[row:row + nrow]))
        col += ncol
        row += nrow
    return out


def _loads(family, Y):
    """sum of Y[F] over the members F containing e, for each element e."""
    load = [0] * family.ground_size
    for y, s in zip(Y, family.members):
        for e in s:
            load[e] += y
    return load


def intersection_lps(families):
    """(i(F), distribution) per family, from the max-min LP over the ground set.

    Primal: max t subject to p(F) >= t for every member F, sum p = 1,
    p >= 0.  Dual: a distribution mu on the members whose largest
    element load sum_{F containing e} mu_F is the same t.  Needs
    families with members, none of them empty.
    """
    blocks = []
    for fam in families:
        g = fam.ground_size
        blocks.append({
            "c": [0.0] * g + [-1.0],
            "A_ub": np.hstack([-_incidence(fam), np.ones((fam.n, 1))]),
            "b_ub": np.zeros(fam.n),
            "A_eq": [[1.0] * g + [0.0]],
            "b_eq": [1.0],
            "bounds": [(0, None)] * g + [(None, None)],
        })
    out = []
    for fam, (x, mu) in zip(families, solve_stacked(blocks)):
        (P, dx), (M, dm) = _scaled(x[:-1]), _scaled(mu)
        assert min(P) >= 0 and sum(P) == dx, "max-min primal not a distribution"
        assert min(M) >= 0 and sum(M) == dm, "max-min dual not a distribution"
        low = min(sum(P[e] for e in s) for s in fam.members)
        high = max(_loads(fam, M))
        assert low * dm == high * dx, "max-min certificate open"
        out.append((
            Fraction(low, dx),
            {e: Fraction(v, dx) for e, v in enumerate(P) if v},
        ))
    return out


def transversal_lps(families):
    """TransversalResult per family, from the covering LP over the ground set.

    Primal: min sum w subject to w(F) >= 1 for every member F, w >= 0.
    Dual: a fractional matching y >= 0 with load <= 1 on every element
    and the same total.  Needs families with members, none of them empty.
    """
    blocks = [
        {
            "c": [1.0] * fam.ground_size,
            "A_ub": -_incidence(fam),
            "b_ub": -np.ones(fam.n),
            "bounds": [(0, None)] * fam.ground_size,
        }
        for fam in families
    ]
    out = []
    for fam, (w, y) in zip(families, solve_stacked(blocks)):
        (W, dw), (Y, dy) = _scaled(w), _scaled(y)
        assert min(W) >= 0 and min(Y) >= 0, "covering certificate has a negative entry"
        assert all(sum(W[e] for e in s) >= dw for s in fam.members), "w is no cover"
        assert max(_loads(fam, Y)) <= dy, "y is no fractional matching"
        assert sum(W) * dy == sum(Y) * dw, "covering certificate open"
        out.append(TransversalResult(
            tau_star=Fraction(sum(W), dw),
            weights={e: Fraction(v, dw) for e, v in enumerate(W) if v},
        ))
    return out


def intersection_lp(family):
    """intersection_lps for one family."""
    return intersection_lps([family])[0]
