"""Definable set families over small prime fields, with counting-measure fits.

Ground sets are F_p^d for a verified prime field F_p; families come from a
membership formula phi(x; y) whose parameters b range over a definable set
psi(y; z) at a fixed z = e.  Point counts of members are then matched
against the mu * q^d + O(q^(d-1/2)) shape: dim_meas_fit snaps mu to a
small-denominator rational and reports dimension, measure, and residual
exactly.  Everything is exhaustive; the caps keep that honest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from ._primes import isprime
from .formulas import evaluate_formula
from .setfam import (
    ColorfulReport,
    FhpReport,
    MeasureReport,
    RationalWeights,
    SetFamily,
    check_fhp_instance,
    check_ground_size,
    colorful_check,
    measure_fhp_check,
)

FIELD_CAP = 61
ARITY_CAP = 3
# dim_meas_fit's measures: denominator and value at most these
DEN_CAP = 8
MU_CAP = 8
# dim_meas_fit refuses n * bit_length(q) above this before q**n is built.
# It walks every d <= n with exact q**(2d - 1); at the cap a fit takes
# 0.5-0.9 s on a 2-vCPU VM (q = 3, n = 5000; q = 31, n = 2000).
FIT_BITS_CAP = 10000


class FieldStructure:
    """F_p with explicit +, *, - and neg tables, axioms verified when first built.

    Use FieldStructure.for_prime(p); instances are cached per p.  The
    constructor only checks that p is a prime within FIELD_CAP.  tables()
    builds uint8 arrays over F_p = {0, ..., p-1}, which is also the
    universe's index order, so elements are their own indices; it verifies
    the field axioms on them once, on first call.  Work that evaluates no
    formula, such as line_family, never builds them or loads numpy.
    """

    __slots__ = ("p", "_tables")

    def __init__(self, p: int):
        if not isprime(p):
            raise ValueError(f"p = {p} is not prime")
        if p > FIELD_CAP:
            raise ValueError(f"p = {p} exceeds the field cap {FIELD_CAP}")
        self.p = p
        self._tables = None

    @classmethod
    @lru_cache(maxsize=32)
    def for_prime(cls, p: int) -> "FieldStructure":
        return cls(p)

    @property
    def universe(self):
        return range(self.p)

    def const_index(self, v) -> int:
        """v mod p for a Python int v; bools, floats and strings are refused."""
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"constant {v!r} is not an integer")
        return v % self.p

    def tables(self):
        """(functions, relations) for the formula evaluator; F_p has no relations.

        Built and axiom-checked on first call, then kept.
        """
        if self._tables is None:
            import numpy as np  # only the formula evaluator needs these

            p = self.p
            r = np.arange(p)
            add = (r[:, None] + r[None, :]) % p
            mul = (r[:, None] * r[None, :]) % p
            _verify_field_axioms(p, add, mul)
            functions = {
                "+": (2, add.astype(np.uint8)),
                "*": (2, mul.astype(np.uint8)),
                "-": (2, ((r[:, None] - r[None, :]) % p).astype(np.uint8)),
                "neg": (1, ((-r) % p).astype(np.uint8)),
            }
            self._tables = (functions, {})
        return self._tables


def _verify_field_axioms(p: int, add, mul):
    import numpy as np

    r = np.arange(p)
    i, j, k = np.meshgrid(r, r, r, indexing="ij", sparse=False)
    checks = [
        (add == add.T).all(),
        (mul == mul.T).all(),
        (add[0] == r).all(),
        (mul[1] == r).all(),
        (add[add[i, j], k] == add[i, add[j, k]]).all(),
        (mul[mul[i, j], k] == mul[i, mul[j, k]]).all(),
        (mul[i, add[j, k]] == add[mul[i, j], mul[i, k]]).all(),
        all(0 in add[a] for a in range(p)),
        all(1 in mul[a] for a in range(1, p)),
        (mul[0] == 0).all(),
    ]
    if not all(bool(c) for c in checks):
        raise ArithmeticError(f"field axiom verification failed for p={p}")


def definable_family(
    field: FieldStructure,
    phi,
    x_arity: int,
    psi,
    y_arity: int,
    e: Sequence[int] = (),
) -> SetFamily:
    """One member per parameter b with psi(b; e); member = {x : phi(x; b)}.

    phi's variables are x (indices 0..x_arity-1) then y; psi's are y
    (indices 0..y_arity-1) then z, with z fixed to e.  Ground points are
    the tuples of F_p^x_arity in lexicographic order; labels name b.  An
    empty parameter set yields a family with zero members (callers that
    need members should treat that as a flag).  psi is one evaluator call
    with y as its x-variables and e as its one parameter tuple: its mask
    names the parameter set, in lexicographic order.  phi is one call that
    returns the members' masks.
    """
    if not 1 <= x_arity <= ARITY_CAP:
        raise ValueError(f"x_arity must be in 1..{ARITY_CAP}")
    if not 1 <= y_arity <= ARITY_CAP:
        raise ValueError(f"y_arity must be in 1..{ARITY_CAP}")
    p = field.p
    npoints = p**x_arity
    check_ground_size(npoints)
    (ymask,) = evaluate_formula(field, psi, y_arity, len(e), [tuple(e)])
    # bit i of ymask is the i-th y-tuple; bin() lists the bits high to low
    ygrid = itertools.product(range(p), repeat=y_arity)
    params = [b for b, bit in zip(ygrid, bin(ymask)[:1:-1]) if bit == "1"]
    masks = evaluate_formula(field, phi, x_arity, y_arity, params)
    labels = [f"b={b!r}" for b in params]
    return SetFamily.from_masks(npoints, masks, labels)


def line_family(field: FieldStructure) -> SetFamily:
    """All q^2 non-vertical lines x1 = a*x0 + b over F_q^2, labeled by (a,b).

    The family definable_family builds from phi = (x1 = y0*x0 + y1) over
    all (y0, y1), written as masks without evaluating phi.  Point (x0, x1)
    is bit x0*q + x1, so a line holds one bit in each q-bit block x0: at
    b = 0 bit a*x0 mod q, and each next b rotates every block up by one.
    """
    q = field.p
    check_ground_size(q * q)
    top = sum(1 << (x0 * q + q - 1) for x0 in range(q))
    rest = ((1 << q * q) - 1) ^ top
    masks = []
    for a in range(q):
        m = sum(1 << (x0 * q + a * x0 % q) for x0 in range(q))
        for _ in range(q):
            masks.append(m)
            m = ((m & rest) << 1) | ((m & top) >> (q - 1))
    labels = [f"b={(a, b)}" for a in range(q) for b in range(q)]
    return SetFamily.from_masks(q * q, masks, labels)


class DimMeasFit(NamedTuple):
    """count ~ mu * q^d with residual |count - mu*q^d| <= C*q^(d-1/2).

    ok is False when no (d, mu) within the caps meets the residual bound
    (the returned pair is then the best effort); ambiguous is True when
    more than one dimension admits an in-bound fit.
    """

    d: int
    mu: Fraction
    residual: Fraction
    ok: bool
    ambiguous: bool


def _walk_fit(count: int, q: int, d: int, bound2: Fraction):
    """Stern-Brocot walk toward count/q^d.

    Returns (first admissible (residual, mu) or None, best-seen (residual,
    mu)).  The first mediant on the path meeting the residual bound is the
    simplest admissible measure for this dimension.
    """
    qd = Fraction(q) ** d
    tau = Fraction(count) / qd
    ln, ld, rn, rd = 0, 1, 1, 0
    first = None
    best = None
    while True:
        mn, md = ln + rn, ld + rd
        if md > DEN_CAP:
            break
        mu = Fraction(mn, md)
        if mu <= MU_CAP:
            resid = abs(count - mu * qd)
            if best is None or (resid, mu) < best:
                best = (resid, mu)
            if first is None and resid * resid <= bound2:
                first = (resid, mu)
                break
        if tau == mu:
            break
        if tau < mu:
            rn, rd = mn, md
        else:
            if mu > MU_CAP:
                break
            ln, ld = mn, md
    return first, best


def dim_meas_fit(count: int, q: int, n: int, C=1) -> DimMeasFit:
    """Snap a point count to (dimension, measure) against powers of q.

    For each d in 0..n the walk finds the simplest rational mu (denominator
    at most DEN_CAP, value at most MU_CAP) with
    |count - mu*q^d| <= C*q^(d-1/2); among admissible dimensions the fit
    minimizing (residual, |mu-1|, d) wins.
    count = 0 returns the conventional (0, 0).
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if q < 2:
        raise ValueError("q must be >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n * q.bit_length() > FIT_BITS_CAP:
        raise ValueError(
            f"n * bit_length(q) = {n * q.bit_length()} exceeds FIT_BITS_CAP {FIT_BITS_CAP}"
        )
    if count > q**n:
        raise ValueError(f"count {count} exceeds q^n = {q ** n}")
    C = Fraction(C)
    if C <= 0:
        raise ValueError("C must be positive")
    if count == 0:
        return DimMeasFit(
            d=0, mu=Fraction(0), residual=Fraction(0), ok=True, ambiguous=False
        )
    admissible = []
    fallback = []
    for d in range(n + 1):
        bound2 = C * C * Fraction(q) ** (2 * d - 1)
        first, best = _walk_fit(count, q, d, bound2)
        if first is not None:
            resid, mu = first
            admissible.append((resid, abs(mu - 1), d, mu))
        if best is not None:
            resid, mu = best
            fallback.append((resid, abs(mu - 1), d, mu))
    if admissible:
        resid, _, d, mu = min(admissible)
        return DimMeasFit(
            d=d, mu=mu, residual=resid, ok=True, ambiguous=len(admissible) > 1
        )
    resid, _, d, mu = min(fallback)
    return DimMeasFit(d=d, mu=mu, residual=resid, ok=False, ambiguous=False)


class FfReport(NamedTuple):
    """FHP statistics of a definable family, stamped with the field size."""

    q: int
    k: int
    alpha: Fraction
    fhp: FhpReport


def ff_fhp_experiment(
    field: FieldStructure,
    phi,
    x_arity: int,
    psi,
    y_arity: int,
    e: Sequence[int],
    k: int,
    alpha,
) -> FfReport:
    """Build the definable family and run the instance-level FHP check."""
    family = definable_family(field, phi, x_arity, psi, y_arity, e)
    if family.n == 0:
        raise ValueError("parameter set is empty; no family members")
    alpha = Fraction(alpha)
    return FfReport(
        q=field.p, k=k, alpha=alpha, fhp=check_fhp_instance(family, k, alpha)
    )


class ColorfulFfReport(NamedTuple):
    q: int
    alpha: Fraction
    colorful: ColorfulReport
    measures: tuple


def colorful_ff_experiment(
    field: FieldStructure, specs: Sequence[tuple], alpha
) -> ColorfulFfReport:
    """Rainbow check over several definable families on one point sort.

    specs is a sequence of (phi, x_arity, psi, y_arity, e); all x_arities
    must agree.  Each family also gets a product-measure check under the
    uniform counting measure on its parameter set, with tuple arity d =
    number of families.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one family spec")
    arities = {s[1] for s in specs}
    if len(arities) != 1:
        raise ValueError("families must share the point sort (equal x_arity)")
    families = [
        definable_family(field, phi, xa, psi, ya, e)
        for phi, xa, psi, ya, e in specs
    ]
    for idx, fam in enumerate(families):
        if fam.n == 0:
            raise ValueError(f"family {idx}: parameter set is empty")
    alpha = Fraction(alpha)
    d = len(families)
    colorful = colorful_check(families, alpha)
    measures = tuple(
        measure_fhp_check(fam, RationalWeights.uniform(fam.n), d, alpha)
        for fam in families
    )
    return ColorfulFfReport(
        q=field.p, alpha=alpha, colorful=colorful, measures=measures
    )
