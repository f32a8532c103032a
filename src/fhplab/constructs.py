"""Deterministic generators for the benchmark set families.

Each builder returns a plain SetFamily with human-readable labels;
nothing downstream trusts the construction, so every structural claim a
builder makes (intersection counts, disjointness, depth) can be re-checked
with the setfam operations.  Every builder refuses a ground set above
`setfam.SIZE_CAP` before building anything; it raises instead of
truncating.

Each builder numbers its points so that a member is the points with one
base-b digit in a given set, or a union of such sets shifted into blocks
of points; `_digit_mask` writes each as one mask without visiting a point.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Optional

from ._backend import elements
from .setfam import SetFamily, capped_power, check_ground_size


class BlockParams:
    """Parameters for the block family: r blocks of m sets, tuple width k.

    Validation enforces prod_{j<k}(1 - j/r) > alpha exactly in rationals,
    and m >= ceil(p_prime / gamma) so every gamma-fraction subfamily is
    large enough to contain p_prime sets from one block.
    """

    __slots__ = ("k", "alpha", "gamma", "p_prime", "k_prime", "r", "m")

    def __init__(
        self, k: int, alpha, gamma, p_prime: int, k_prime: int, r: int, m: int
    ):
        if k < 2:
            raise ValueError("k must be >= 2")
        alpha = Fraction(alpha)
        gamma = Fraction(gamma)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0,1)")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must lie in (0,1]")
        if k_prime < 2 or p_prime < k_prime:
            raise ValueError("need p_prime >= k_prime >= 2")
        if r < k:
            raise ValueError("r must be >= k")
        m_floor = math.ceil(Fraction(p_prime) / gamma)
        if m < m_floor:
            raise ValueError(f"m must be >= ceil(p_prime/gamma) = {m_floor}")
        # m^k ground points per block tuple: bounds k before the product
        capped_power(m, k)
        prod = Fraction(1)
        for j in range(k):
            prod *= 1 - Fraction(j, r)
        if not prod > alpha:
            raise ValueError(
                f"r={r} too small: prod_(j<k)(1-j/r) is not > alpha = {alpha}"
            )
        self.k = k
        self.alpha = alpha
        self.gamma = gamma
        self.p_prime = p_prime
        self.k_prime = k_prime
        self.r = r
        self.m = m


def _digit_mask(base: int, ndigits: int, stride: int, values) -> int:
    """Mask of the t in [0, base**ndigits) whose base-`base` digit of place
    value `stride` lies in `values`: one period of base*stride bits (a run
    of `stride` bits at each v*stride) times the repunit with one bit per
    period, (2^N - 1) / (2^period - 1), which repeats it without carries.
    """
    cell = 0
    for v in values:
        cell |= ((1 << stride) - 1) << (v * stride)
    return ((1 << base**ndigits) - 1) // ((1 << base * stride) - 1) * cell


def build_block_counterexample(params: BlockParams) -> SetFamily:
    """Family of r*m sets indexed by (block, slot) over transversal tuples.

    Ground points are the k-subsets touching k distinct blocks, one slot
    each; the set for (b, s) collects the points using slot s of block b.
    Points run block tuple by block tuple, slots in product order.  Exactly
    C(r,k)*m^k of the k-element index subsets intersect, while the m sets
    inside one block are pairwise disjoint.
    """
    k, r, m = params.k, params.r, params.m
    cell = capped_power(m, k)
    npoints = math.comb(r, k) * cell
    check_ground_size(npoints)
    # slot s at tuple position p, within one block tuple's m^k points
    slot = [[_digit_mask(m, k, m ** (k - 1 - p), (s,)) for s in range(m)]
            for p in range(k)]
    masks = [0] * (r * m)
    for c, blocks in enumerate(itertools.combinations(range(r), k)):
        for p, b in enumerate(blocks):
            for s, piece in enumerate(slot[p]):
                masks[b * m + s] |= piece << (c * cell)
    labels = [f"S[{b},{s}]" for b in range(r) for s in range(m)]
    return SetFamily.from_masks(npoints, masks, labels)


def build_tp2_grid(k: int, m: int, d: int = 2) -> SetFamily:
    """k rows of m sets over the m^k functions [k] -> [m].

    Row i, column j is {f : f(i) in the cyclic window of d-1 values at j}.
    Any d distinct sets of one row miss a common point (each value lies in
    exactly d-1 windows), while one set per row always intersects, so every
    row transversal is consistent.  d=2 is the plain grid f(i) = j.
    Functions are numbered in product order: f(i) is digit k-1-i in base m.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    if m < d - 1:
        raise ValueError("need m >= d-1 so windows do not wrap onto themselves")
    npoints = capped_power(m, k)
    windows = [{(j + t) % m for t in range(d - 1)} for j in range(m)]
    masks = [_digit_mask(m, k, m ** (k - 1 - i), w) for i in range(k) for w in windows]
    labels = [f"S[{i},{j}]" for i in range(k) for j in range(m)]
    return SetFamily.from_masks(npoints, masks, labels)


def build_two_order_cross(n: int) -> SetFamily:
    """n crosses on the n-by-n grid: V_t = row t union column t.

    Any two members meet (at the two swapped coordinate pairs), any three
    have empty intersection, and the deepest point lies in exactly 2 sets.
    Point (i, j) is i*n + j, so row t and column t are base-n digit masks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    check_ground_size(n * n)
    masks = [_digit_mask(n, 2, n, (t,)) | _digit_mask(n, 2, 1, (t,)) for t in range(n)]
    return SetFamily.from_masks(n * n, masks, [f"V[{t}]" for t in range(n)])


def build_caps_family(W: int, D: int) -> SetFamily:
    """Prefix-tree family: atoms are nonempty strings over [W], length <= D.

    Member F[i,j] holds the strings with character j in position i.  Members
    in one row (fixed i) are pairwise disjoint, and for any branch choice
    f the intersection of F[i, f(i)] over i < n contains the length-n string
    following f, so it is nonempty.  Strings run by length, each length in
    product order: position i of a length-L string is its digit L-1-i.
    """
    if W < 1 or D < 1:
        raise ValueError("W and D must be >= 1")
    natoms = D if W == 1 else (capped_power(W, D) - 1) * W // (W - 1)
    check_ground_size(natoms)
    masks = [0] * (D * W)
    start = 0  # index of the first string of length L
    for L in range(1, D + 1):
        for i in range(L):
            for j in range(W):
                masks[i * W + j] |= _digit_mask(W, L, W ** (L - 1 - i), (j,)) << start
        start += W**L
    labels = [f"F[{i},{j}]" for i in range(D) for j in range(W)]
    return SetFamily.from_masks(natoms, masks, labels)


def build_shattered_pairs(m: int) -> SetFamily:
    """One member per ordered pair (a,b) of distinct points of an m-set.

    Ground elements are the 2^m subsets e, indexed by bitmask; the member
    for (a,b) is {e : a in e, b not in e}, of size 2^(m-2).  The ground
    family shatters the m-set, and the members satisfy strong intersection
    patterns despite the base family being as wild as possible.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    npoints = capped_power(2, m)
    has = [_digit_mask(2, m, 1 << a, (1,)) for a in range(m)]  # e with a in e
    pairs = list(itertools.permutations(range(m), 2))
    masks = [has[a] & ~has[b] for a, b in pairs]
    return SetFamily.from_masks(npoints, masks, [f"P[{a},{b}]" for a, b in pairs])


class FurediResult(NamedTuple):
    parts: tuple
    indices: tuple
    trial: int
    seed: int
    target: int


def furedi_extract(
    family: SetFamily, trials: int, seed: int
) -> Optional[FurediResult]:
    """Seeded search for a rainbow subfamily of size >= floor((k!/k^k)*n).

    Members must all have exactly k elements.  Each trial colors the ground
    set uniformly with k colors (one shared Mersenne Twister stream); a
    member is rainbow when it meets every color class exactly once.  Under
    a uniform coloring the expected rainbow fraction is exactly k!/k^k, so
    the threshold is hit with positive probability each trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if family.n == 0:
        raise ValueError("family has no members")
    members = [elements(m) for m in family.masks]
    k = len(members[0])
    if k == 0:
        raise ValueError("member 0 is empty; members must have a uniform size >= 1")
    for i, s in enumerate(members):
        if len(s) != k:
            raise ValueError(f"member {i} has size {len(s)}, expected {k}")
    target = (math.factorial(k) * family.n) // (k**k)
    rng = random.Random(seed)
    for trial in range(trials):
        color = [rng.randrange(k) for _ in range(family.ground_size)]
        rainbow = []
        for i, s in enumerate(members):
            if len({color[e] for e in s}) == k:
                rainbow.append(i)
        if len(rainbow) >= target:
            parts = tuple(
                frozenset(
                    e for e in range(family.ground_size) if color[e] == t
                )
                for t in range(k)
            )
            return FurediResult(
                parts=parts,
                indices=tuple(rainbow),
                trial=trial,
                seed=seed,
                target=target,
            )
    return None
