"""Deterministic generators for the benchmark set families.

Each builder returns a plain SetFamily with human-readable labels;
nothing downstream trusts the construction, so every structural claim a
builder makes (intersection counts, disjointness, depth) can be re-checked
with the setfam operations.  Every builder refuses a ground set above
`setfam.SIZE_CAP` before building anything; it raises instead of
truncating.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .setfam import SetFamily, capped_power, check_ground_size


@dataclass(frozen=True)
class BlockParams:
    """Parameters for the block family: r blocks of m sets, tuple width k.

    Validation enforces prod_{j<k}(1 - j/r) > alpha exactly in rationals,
    and m >= ceil(p_prime / gamma) so every gamma-fraction subfamily is
    large enough to contain p_prime sets from one block.
    """

    k: int
    alpha: Fraction
    gamma: Fraction
    p_prime: int
    k_prime: int
    r: int
    m: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        alpha = Fraction(self.alpha)
        gamma = Fraction(self.gamma)
        if not 0 < alpha < 1:
            raise ValueError("alpha must lie in (0,1)")
        if not 0 < gamma <= 1:
            raise ValueError("gamma must lie in (0,1]")
        if self.k_prime < 2 or self.p_prime < self.k_prime:
            raise ValueError("need p_prime >= k_prime >= 2")
        if self.r < self.k:
            raise ValueError("r must be >= k")
        m_floor = math.ceil(Fraction(self.p_prime) / gamma)
        if self.m < m_floor:
            raise ValueError(f"m must be >= ceil(p_prime/gamma) = {m_floor}")
        # m^k ground points per block tuple: bounds k before the product
        capped_power(self.m, self.k)
        prod = Fraction(1)
        for j in range(self.k):
            prod *= 1 - Fraction(j, self.r)
        if not prod > alpha:
            raise ValueError(
                f"r={self.r} too small: prod_(j<k)(1-j/r) is not > alpha = {alpha}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)


def build_block_counterexample(params: BlockParams) -> SetFamily:
    """Family of r*m sets indexed by (block, slot) over transversal tuples.

    Ground points are the k-subsets touching k distinct blocks, one slot
    each; the set for (b, s) collects the points using slot s of block b.
    Exactly C(r,k)*m^k of the k-element index subsets intersect, while the
    m sets inside one block are pairwise disjoint.
    """
    k, r, m = params.k, params.r, params.m
    npoints = math.comb(r, k) * capped_power(m, k)
    check_ground_size(npoints)
    point_index = {}
    for blocks in itertools.combinations(range(r), k):
        for slots in itertools.product(range(m), repeat=k):
            point = frozenset(zip(blocks, slots))
            point_index[point] = len(point_index)
    members = []
    labels = []
    for b in range(r):
        for s in range(m):
            members.append(
                frozenset(
                    idx for point, idx in point_index.items() if (b, s) in point
                )
            )
            labels.append(f"S[{b},{s}]")
    return SetFamily(
        ground_size=npoints, members=tuple(members), labels=tuple(labels)
    )


def build_tp2_grid(k: int, m: int, d: int = 2) -> SetFamily:
    """k rows of m sets over the m^k functions [k] -> [m].

    Row i, column j is {f : f(i) in the cyclic window of d-1 values at j}.
    Any d distinct sets of one row miss a common point (each value lies in
    exactly d-1 windows), while one set per row always intersects, so every
    row transversal is consistent.  d=2 is the plain grid f(i) = j.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    if m < d - 1:
        raise ValueError("need m >= d-1 so windows do not wrap onto themselves")
    npoints = capped_power(m, k)
    functions = list(itertools.product(range(m), repeat=k))
    members = []
    labels = []
    for i in range(k):
        for j in range(m):
            window = {(j + t) % m for t in range(d - 1)}
            members.append(
                frozenset(
                    idx for idx, f in enumerate(functions) if f[i] in window
                )
            )
            labels.append(f"S[{i},{j}]")
    return SetFamily(
        ground_size=npoints, members=tuple(members), labels=tuple(labels)
    )


def build_two_order_cross(n: int) -> SetFamily:
    """n crosses on the n-by-n grid: V_t = row t union column t.

    Any two members meet (at the two swapped coordinate pairs), any three
    have empty intersection, and the deepest point lies in exactly 2 sets.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    check_ground_size(n * n)
    members = []
    labels = []
    for t in range(n):
        members.append(
            frozenset(
                i * n + j
                for i in range(n)
                for j in range(n)
                if i == t or j == t
            )
        )
        labels.append(f"V[{t}]")
    return SetFamily(ground_size=n * n, members=tuple(members), labels=tuple(labels))


def build_caps_family(W: int, D: int) -> SetFamily:
    """Prefix-tree family: atoms are nonempty strings over [W], length <= D.

    Member F[i,j] holds the strings with character j in position i.  Members
    in one row (fixed i) are pairwise disjoint, and for any branch choice
    f the intersection of F[i, f(i)] over i < n contains the length-n string
    following f, so it is nonempty.
    """
    if W < 1 or D < 1:
        raise ValueError("W and D must be >= 1")
    natoms = D if W == 1 else (capped_power(W, D) - 1) * W // (W - 1)
    check_ground_size(natoms)
    strings = []
    for L in range(1, D + 1):
        strings.extend(itertools.product(range(W), repeat=L))
    index = {s: i for i, s in enumerate(strings)}
    members = []
    labels = []
    for i in range(D):
        for j in range(W):
            members.append(
                frozenset(
                    idx
                    for s, idx in index.items()
                    if len(s) > i and s[i] == j
                )
            )
            labels.append(f"F[{i},{j}]")
    return SetFamily(
        ground_size=natoms, members=tuple(members), labels=tuple(labels)
    )


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
    members = []
    labels = []
    for a, b in itertools.permutations(range(m), 2):
        members.append(
            frozenset(
                e
                for e in range(npoints)
                if (e >> a) & 1 and not (e >> b) & 1
            )
        )
        labels.append(f"P[{a},{b}]")
    return SetFamily(
        ground_size=npoints, members=tuple(members), labels=tuple(labels)
    )


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
    k = len(family.members[0])
    if k == 0:
        raise ValueError("member 0 is empty; members must have a uniform size >= 1")
    for i, s in enumerate(family.members):
        if len(s) != k:
            raise ValueError(f"member {i} has size {len(s)}, expected {k}")
    target = (math.factorial(k) * family.n) // (k**k)
    rng = random.Random(seed)
    for trial in range(trials):
        color = [rng.randrange(k) for _ in range(family.ground_size)]
        rainbow = []
        for i, s in enumerate(family.members):
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
