"""Shattering, VC dimension, and dual shatter growth for finite set families.

The dual shatter function pi*(n) counts the most cells (distinct membership
patterns, the empty pattern included when realized) an n-member subfamily
cuts the ground set into.  Families whose pi* grows strictly slower than n^d
are exactly the ones covered by the fractional Helly machinery for
dimension d, which is why the report carries a log-log growth-rate estimate
next to the exact combinatorial quantities.

The VC search extends each shattered set s by every larger element at once:
one pass over the members groups them by their trace on s, and s + (e,) is
shattered iff every trace class has members with and without e.  The dual
shatter count refines the ground into cells, one split per member.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from ._jsonutil import SCHEMA_VERSION
from .setfam import SetFamily

# exhaustive subfamily enumeration only below this many candidate subfamilies
EXHAUSTIVE_LIMIT = 20000
DEFAULT_TRIALS = 200


class DualShatterResult(NamedTuple):
    values: dict
    mode: str
    seed: Optional[int]


class ShatterReport(NamedTuple):
    """vc_exact is None when the search stopped at the cap; vc_lower always
    holds.  dual_values/density_fit are filled only when dual sizes were
    requested; density_fit is a finite-sample estimate, not a limit."""

    vc_lower: int
    vc_exact: Optional[int]
    witness: frozenset
    dual_values: Optional[dict] = None
    density_fit: Optional[Fraction] = None
    dual_mode: Optional[str] = None

    def to_json_dict(self) -> dict:
        # the dual shatter keys only when dual sizes were requested
        out = {
            "schema": SCHEMA_VERSION,
            "vc_lower": self.vc_lower,
            "vc_exact": self.vc_exact,
            "witness": self.witness,
        }
        if self.dual_values:
            out["dual_values"] = self.dual_values
            out["dual_mode"] = self.dual_mode
        if self.density_fit is not None:
            out["density_fit"] = self.density_fit
        return out


def _extensions(masks, s: tuple) -> int:
    """Bitmask of the elements e with s + (e,) shattered, s itself shattered.

    One pass groups the members by their trace on s.  s + (e,) is shattered
    iff every trace class has a member with e and a member without it, that
    is iff bit e lies in OR_c & ~AND_c for every class c.
    """
    smask = 0
    for e in s:
        smask |= 1 << e
    classes: dict = {}
    for m in masks:
        t = m & smask
        c = classes.get(t)
        if c is None:
            classes[t] = [m, m]
        else:
            c[0] |= m
            c[1] &= m
    if not classes:
        return 0
    good = -1
    for union, common in classes.values():
        good &= union & ~common
    return good


def _shattered_levels(family: SetFamily, cap: int):
    """Yield the shattered sets of size 1, 2, ..., cap, one level at a time.

    Each level is a list of sorted tuples in lexicographic order; the walk
    ends early at the first empty level.  A set is only extended by elements
    above its largest one, so each shattered set is found once, from its
    largest-but-one prefix.
    """
    masks = family.masks
    level = [()]
    for _ in range(cap):
        nxt = []
        for s in level:
            start = s[-1] + 1 if s else 0
            good = _extensions(masks, s) >> start << start
            while good:
                low = good & -good
                nxt.append(s + (low.bit_length() - 1,))
                good ^= low
        if not nxt:
            return
        level = nxt
        yield level


def vc_dimension(
    family: SetFamily,
    cap: int,
    dual_sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> ShatterReport:
    """Largest shattered subset up to size cap, by levelwise extension.

    Search visits candidate sets in lexicographic order, so the witness is
    deterministic.  vc_exact is set when no shattered set above the reported
    size can exist (search closed below cap, or cap covers the whole ground).
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    best = ()
    d = 0
    for level in _shattered_levels(family, cap):
        best = level[0]
        d += 1
    exact = d if (d < cap or cap >= family.ground_size) else None
    dual_values: dict = {}
    mode = None
    fit = None
    if dual_sizes:
        res = dual_shatter(family, dual_sizes, seed=seed)
        dual_values = res.values
        mode = res.mode
        fit = density_fit(dual_values)
    return ShatterReport(
        vc_lower=d,
        vc_exact=exact,
        witness=frozenset(best),
        dual_values=dual_values,
        density_fit=fit,
        dual_mode=mode,
    )


def _atom_count(masks, ground_size: int) -> int:
    """Number of distinct membership patterns over the ground elements.

    Refines the ground into cells, splitting every cell by every member;
    each nonempty cell is one realized pattern.
    """
    cells = [(1 << ground_size) - 1]
    for m in masks:
        cells = [p for c in cells for p in (c & m, c & ~m) if p]
    return len(cells)


def dual_shatter(
    family: SetFamily,
    sizes: Sequence[int],
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> DualShatterResult:
    """max cells cut by an n-member subfamily, for each requested n.

    Exhaustive when every C(members, n) fits under EXHAUSTIVE_LIMIT;
    otherwise seeded sampling of member orderings, scoring every prefix, so
    the sampled values stay non-decreasing in n.  One mode covers the whole
    call and is recorded in the result.
    """
    sizes = sorted(set(sizes))
    if not sizes:
        return DualShatterResult({}, "exhaustive", None)
    if sizes[0] < 1 or sizes[-1] > family.n:
        raise ValueError("sizes must lie in 1..number of members")
    masks = family.masks
    exhaustive = all(math.comb(family.n, n) <= EXHAUSTIVE_LIMIT for n in sizes)
    values = {}
    if exhaustive:
        for n in sizes:
            best = 0
            for combo in itertools.combinations(range(family.n), n):
                sub = [masks[i] for i in combo]
                best = max(best, _atom_count(sub, family.ground_size))
            values[n] = best
        return DualShatterResult(values, "exhaustive", None)
    rng = random.Random(seed)
    values = {n: 0 for n in sizes}
    order = list(range(family.n))
    for _ in range(trials):
        rng.shuffle(order)
        for n in sizes:
            sub = [masks[i] for i in order[:n]]
            values[n] = max(values[n], _atom_count(sub, family.ground_size))
    return DualShatterResult(values, "sampled", seed)


def density_fit(dual_values: dict) -> Optional[Fraction]:
    """Least-squares slope of log pi*(n) vs log n, as a small rational.

    An estimate of the polynomial growth rate; needs at least two distinct
    sizes with positive values, else None.
    """
    pts = [(n, v) for n, v in sorted(dual_values.items()) if n >= 1 and v >= 1]
    if len(pts) < 2:
        return None
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(v) for _, v in pts]
    # logs within 1e-8 + 1e-5*|x0| of the first one give no slope
    if all(abs(x - xs[0]) <= 1e-8 + 1e-5 * abs(xs[0]) for x in xs):
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return Fraction(sxy / sxx).limit_denominator(1000)
