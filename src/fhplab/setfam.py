"""Finite set systems and their intersection-pattern checks.

The universal object is a SetFamily: an ordered tuple of subsets of a finite
ground set {0, ..., ground_size-1}, stored as one bitmask per member, which
every check here reads.  Repeats are allowed; every counting notion is
indexed by member position, so two identical sets at different indices
are distinct members.  All fractions are exact rationals; verdicts never
touch floating point.

The two counting searches (`cons_k` through `_backend.count_intersecting_k`,
and one rainbow walk, `_rainbow_count`, behind both `colorful_check` and
`measure_fhp_check`) keep the running intersection of the members chosen so
far.  A branch dies when it is empty.  It stops when it is a single point
e, because every completion then consists of members that contain e, and
those are counted in closed form from e's depth: a binomial for `cons_k`,
a product of the later rows' weighted depths for the rainbow walk.  The
measure is the rainbow count over d copies of the mu-weighted family.
`cons_k` also stops a branch whose intersection has a few points, by
summing such binomials over them while no later member holds two of the
points (see `_backend`).  It reads the depths from the family's `columns`,
the table `max_intersecting` and the LP atomization read too, built once
per family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm
from typing import NamedTuple, Optional, Sequence

from . import _backend as backend
from ._jsonutil import SCHEMA_VERSION

# largest ground size a family builder (constructs, pseudofield) makes
SIZE_CAP = 250000


def check_ground_size(npoints: int) -> None:
    """Refuse a family of npoints ground points before it is built."""
    if npoints > SIZE_CAP:
        raise ValueError(f"ground size {npoints} exceeds SIZE_CAP {SIZE_CAP}")


def capped_power(base: int, exp: int) -> int:
    """base**exp as a ground size, refused above SIZE_CAP before it is built."""
    if base > 1 and exp >= SIZE_CAP.bit_length():  # base**exp >= 2**exp
        raise ValueError(f"ground size {base}**{exp} exceeds SIZE_CAP {SIZE_CAP}")
    npoints = base**exp
    check_ground_size(npoints)
    return npoints


def _pack(idx: int, members, ground_size: int) -> int:
    """Member idx as a mask, each element checked against the ground."""
    for e in members:
        if type(e) is not int or not 0 <= e < ground_size:
            raise ValueError(
                f"set {idx}: element {e!r} outside ground range [0, {ground_size})"
            )
    flags = bytearray(max(members, default=-1) + 1)
    for e in members:
        flags[e] = 1
    return backend.from_flags(flags)


class SetFamily:
    """Ordered family of subsets of {0..ground_size-1}, repeats allowed.

    The family is its masks (bit e of masks[i] set iff e is in member i),
    packed from element collections here or given whole to `from_masks`;
    `members` decodes them to frozensets and `columns` transposes them, each
    on first use.  Empty member sets are legal but surface in
    `empty_members`; one empty member makes every index subset through it
    inconsistent.
    """

    def __init__(self, ground_size: int, members=(), labels=None):
        # _store checks ground_size before it draws the first packed member
        packed = (_pack(i, s, ground_size) for i, s in enumerate(members))
        self._store(ground_size, packed, labels)

    @classmethod
    def from_masks(cls, ground_size: int, masks, labels=None) -> "SetFamily":
        family = cls.__new__(cls)
        family._store(ground_size, masks, labels)
        return family

    def _store(self, ground_size, masks, labels) -> None:
        if type(ground_size) is not int or ground_size < 1:
            raise ValueError("ground_size must be a positive integer")
        masks = tuple(masks)
        for idx, m in enumerate(masks):
            if type(m) is not int or m < 0 or m >> ground_size:
                raise ValueError(f"set {idx}: not an int mask in [0, 2**{ground_size})")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(masks):
                raise ValueError("labels length must match number of members")
        self.ground_size = ground_size
        self.masks = masks
        self.labels = labels

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ground_size, self.masks, self.labels) == (
            other.ground_size, other.masks, other.labels
        )

    def __hash__(self):
        return hash((self.ground_size, self.masks, self.labels))

    def __repr__(self) -> str:  # hex: decimal str() refuses ints past 4300 digits
        masks = ", ".join(map(hex, self.masks))
        return f"SetFamily({self.ground_size}, masks=({masks}), labels={self.labels!r})"

    @property
    def n(self) -> int:
        return len(self.masks)

    @cached_property
    def members(self) -> tuple:
        """Each member as a frozenset of its elements."""
        return tuple(frozenset(backend.elements(m)) for m in self.masks)

    @cached_property
    def columns(self) -> tuple:
        """Per ground element, the bitmask of the member indices that contain it."""
        return tuple(backend._columns(self.masks, self.ground_size))

    @cached_property
    def empty_members(self) -> tuple:
        return tuple(i for i, m in enumerate(self.masks) if not m)

    def to_json_dict(self) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "ground": self.ground_size,
            "sets": [backend.elements(m) for m in self.masks],
        }
        if self.labels is not None:
            out["labels"] = [str(l) for l in self.labels]
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict):
            raise ValueError("family document must be a JSON object")
        try:
            ground = obj["ground"]
            sets = obj["sets"]
        except KeyError as exc:
            raise ValueError(f"family document missing key {exc}") from None
        if type(ground) is not int or ground < 1:
            raise ValueError("'ground' must be a positive integer")
        check_ground_size(ground)
        if not isinstance(sets, list):
            raise ValueError("'sets' must be a list of lists")
        for idx, s in enumerate(sets):
            if not isinstance(s, list):
                raise ValueError(f"set {idx}: not a list")
        labels = obj.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or len(labels) != len(sets):
                raise ValueError("'labels' must be a list matching 'sets' in length")
            labels = tuple(labels)
        return cls(ground_size=ground, members=sets, labels=labels)


class RationalWeights:
    """Finitely supported probability weights over member indices."""

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        clean = {}
        for idx, w in dict(weights).items():
            if type(idx) is not int or idx < 0:
                raise ValueError(f"weight index {idx!r} is not a member index")
            w = Fraction(w)
            if w < 0:
                raise ValueError(f"weight at index {idx} is negative")
            if w > 0:
                clean[idx] = w
        if sum(clean.values(), Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")
        self.weights = clean

    @classmethod
    def uniform(cls, n: int) -> "RationalWeights":
        if n < 1:
            raise ValueError("uniform weights need at least one index")
        return cls({i: Fraction(1, n) for i in range(n)})


class ConsReport:
    """How many k-element index subsets have intersecting members."""

    __slots__ = ("k", "cons_count", "total", "fraction")

    def __init__(self, k: int, cons_count: int, total: int):
        if not 0 <= cons_count <= total:
            raise ValueError("cons_count outside [0, total]")
        self.k = k
        self.cons_count = cons_count
        self.total = total
        self.fraction = Fraction(cons_count, total)

    def to_json_dict(self) -> dict:
        # the one report without a schema tag
        return {
            "k": self.k,
            "cons_count": self.cons_count,
            "total": self.total,
            "fraction": self.fraction,
        }


class MaxIntersecting(NamedTuple):
    size: int
    element: int
    indices: frozenset


class FhpReport(NamedTuple):
    """Instance-level fractional Helly report.

    best_beta * n is the maximum depth over ground elements, i.e. the size of
    the largest subfamily with a common point; witness_element is the
    smallest ground element attaining it.
    """

    n: int
    k: int
    alpha: Fraction
    cons: ConsReport
    best_beta: Fraction
    witness_element: int
    witness_indices: frozenset
    hypothesis_holds: bool
    empty_members: tuple = ()


class PkResult(NamedTuple):
    holds: bool
    counterexample: Optional[tuple]


class ColorfulReport(NamedTuple):
    """Rainbow-tuple intersection statistics for several families."""

    d: int
    alpha: Fraction
    rainbow_count: int
    total: int
    fraction: Fraction
    per_family_beta: tuple
    best_beta: Fraction
    holds: bool
    # reference constant from the convex colorful bound, carried as metadata
    beta_reference: Fraction


class MeasureReport(NamedTuple):
    """Product-measure mass of consistent d-tuples plus max weighted depth."""

    d: int
    alpha: Fraction
    tuple_measure: Fraction
    weighted_depth: Fraction
    holds: bool


def cons_k(family: SetFamily, k: int) -> ConsReport:
    """Count k-element index subsets whose member sets share a ground element."""
    n = family.n
    if k < 1 or k > n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    count = backend.count_intersecting_k(
        family.masks, family.ground_size, k, lambda: family.columns
    )
    return ConsReport(k=k, cons_count=count, total=comb(n, k))


def max_intersecting(family: SetFamily) -> MaxIntersecting:
    """Largest subfamily with a common element, via the depths of its columns.

    Ties go to the smallest ground element.  If every member is empty the
    size is 0 and the witness degenerates to element 0 with no indices.
    """
    if family.n == 0:
        raise ValueError("family has no members")
    cols = family.columns
    depths = [c.bit_count() for c in cols]
    size = max(depths)
    element = depths.index(size)
    return MaxIntersecting(size, element, frozenset(backend.elements(cols[element])))


def check_fhp_instance(family: SetFamily, k: int, alpha) -> FhpReport:
    alpha = Fraction(alpha)
    cons = cons_k(family, k)
    best = max_intersecting(family)
    return FhpReport(
        n=family.n,
        k=k,
        alpha=alpha,
        cons=cons,
        best_beta=Fraction(best.size, family.n),
        witness_element=best.element,
        witness_indices=best.indices,
        hypothesis_holds=cons.fraction >= alpha,
        empty_members=family.empty_members,
    )


def check_pk_property(family: SetFamily, p: int, k: int) -> PkResult:
    """Does every p-tuple of members (repetition allowed) contain k with a
    common element?

    A tuple passes iff some ground element appears in at least k of its
    positions, which is invariant under permuting the tuple; the search
    therefore walks the p-multisets depth-first in nondecreasing
    lexicographic order, and the first failing multiset is exactly the
    lexicographically first failing tuple.  A prefix in which some
    element already reaches depth k passes with every extension, so its
    subtree is skipped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < k:
        raise ValueError(f"need p >= k, got p={p}, k={k}")
    if family.n == 0:
        raise ValueError("family has no members")
    masks = family.masks
    combo = []
    planes = [[-1] + [0] * (k - 1)]  # planes[j][d]: depth >= d in combo[:j]
    i = 0
    while True:
        if i == family.n:
            if not combo:
                return PkResult(True, None)
            i = combo.pop() + 1
            planes.pop()
            continue
        at, mask = planes[-1], masks[i]
        if at[k - 1] & mask:
            i += 1
        elif len(combo) + 1 == p:
            return PkResult(False, (*combo, i))
        else:
            combo.append(i)
            planes.append([-1] + [at[d] | at[d - 1] & mask for d in range(1, k)])


def sequence_ratio(family: SetFamily, index_sequence: Sequence[int]) -> Fraction:
    """(largest intersecting sub-multiset size) / (sequence length).

    A sub-multiset of positions is intersecting iff a ground element lies in
    all of them, so the numerator is the maximum multiplicity-weighted depth.
    A singleton of a nonempty set counts; a sequence of empty sets scores 0.
    """
    seq = tuple(index_sequence)
    if not seq:
        raise ValueError("index sequence must be nonempty")
    for i in seq:
        if not 0 <= i < family.n:
            raise ValueError(f"index {i} out of range")
    depths = backend.depth_counts([family.masks[i] for i in seq], family.ground_size)
    return Fraction(max(depths), len(seq))


def min_sequence_ratio(family: SetFamily, max_len: int) -> Fraction:
    """Minimum of sequence_ratio over all index sequences of length <= max_len.

    sequence_ratio is permutation-invariant, so only multisets matter.  Let
    D(p) be the least largest depth over all p-multisets; the minimum is
    min_p D(p)/p.  The (p, k)-property holds exactly when k <= D(p), and
    D(p + 1) >= D(p) because dropping a member never deepens a point, so
    k only climbs: the sweep over p makes at most 2*max_len calls of
    check_pk_property, which is the one multiset search.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    k = 0
    best = Fraction(1)  # D(p) <= p
    for p in range(1, max_len + 1):
        while k < p and check_pk_property(family, p, k + 1).holds:
            k += 1
        best = min(best, Fraction(k, p))
    return best


def _rainbow_count(rows, depths, ground: int) -> int:
    """Weighted count of tuples, one (mask, weight) pair from each row, whose
    masks share a point; a tuple weighs the product of its weights.

    depths[j][e] is the total weight of row j's masks through e.  A branch
    whose running intersection is one point e is finished in closed form:
    its weight times the product of the later rows' depths at e.
    """
    d = len(rows)
    # tails[level][e]: the weight of the completions through e after `level`
    tails = [[1] * ground]
    for dep in reversed(depths[1:]):
        tails.append([t * c for t, c in zip(tails[-1], dep)])
    tails.reverse()

    def rec(level: int, acc: int) -> int:
        hits = 0
        if level == d - 1:
            for m, w in rows[level]:
                if acc & m:
                    hits += w
            return hits
        tail = tails[level]
        for m, w in rows[level]:
            a = acc & m
            if not a:
                continue
            if a & (a - 1):
                hits += w * rec(level + 1, a)
            else:
                hits += w * tail[a.bit_length() - 1]
        return hits

    return rec(0, -1)  # -1: the whole ground


def colorful_check(families: Sequence[SetFamily], alpha) -> ColorfulReport:
    """Count rainbow index tuples (one member per family) with a common element."""
    alpha = Fraction(alpha)
    fams = list(families)
    if not fams:
        raise ValueError("need at least one family")
    ground = fams[0].ground_size
    for f in fams:
        if f.ground_size != ground:
            raise ValueError("families must share one ground set")
        if f.n == 0:
            raise ValueError("families must be nonempty")
    d = len(fams)
    total = 1
    for f in fams:
        total *= f.n

    depths = [backend.depth_counts(f.masks, ground) for f in fams]
    rows = [[(m, 1) for m in f.masks] for f in fams]
    count = _rainbow_count(rows, depths, ground)
    betas = tuple(Fraction(max(dep), f.n) for dep, f in zip(depths, fams))
    fraction = Fraction(count, total)
    return ColorfulReport(
        d=d,
        alpha=alpha,
        rainbow_count=count,
        total=total,
        fraction=fraction,
        per_family_beta=betas,
        best_beta=max(betas),
        holds=fraction >= alpha,
        beta_reference=alpha / (d + 1),
    )


def measure_fhp_check(
    family: SetFamily, weights: RationalWeights, d: int, alpha
) -> MeasureReport:
    """Product-measure mass of consistent ordered d-tuples of indices.

    Ordered tuples include the diagonal; a tuple is consistent iff the
    member sets at its support have a common element.  Also reports the
    maximum weighted depth max_a mu({i : a in S_i}).

    The weights are scaled once to integers W_i over their common
    denominator D, and both sums are divided by D^d and D at the end.  The
    mass under mu^d is the rainbow count over d copies of the support, each
    member weighing W_i, so it runs the same walk as `colorful_check`.
    """
    alpha = Fraction(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    w = weights.weights
    for idx in w:
        if idx >= family.n:
            raise ValueError(f"weight index {idx} beyond family size {family.n}")
    scale = lcm(*(x.denominator for x in w.values()))
    row = [
        (family.masks[i], w[i].numerator * (scale // w[i].denominator))
        for i in sorted(w)
    ]
    depth = [0] * family.ground_size
    for m, wi in row:
        for e in backend.elements(m):
            depth[e] += wi
    count = _rainbow_count([row] * d, [depth] * d, family.ground_size)
    tuple_measure = Fraction(count, scale**d)
    return MeasureReport(
        d=d,
        alpha=alpha,
        tuple_measure=tuple_measure,
        weighted_depth=Fraction(max(depth), scale),
        holds=tuple_measure >= alpha,
    )


def wfhp_counting_bound(n: int, p: int, k: int) -> Fraction:
    """Guaranteed cons_k count for any n-member family with the (p,k)-property.

    Every k-subset lies in C(n-k, p-k) many p-subsets and every p-subset
    contains an intersecting k-subset, so cons_k >= C(n,p)/C(n-k,p-k).
    """
    if not (n >= p >= k >= 1):
        raise ValueError(f"need n >= p >= k >= 1, got n={n}, p={p}, k={k}")
    return Fraction(comb(n, p), comb(n - k, p - k))
