"""The counting searches against brute force.

Each search stops as soon as its running intersection is a single point and
finishes that branch in closed form; `count_intersecting_k` also finishes a
branch with a few points from their columns, and falls back to its members
when a later member holds two of the points.  Every test here compares a
search with plain enumeration (itertools, `is_shattered`, a Fraction
multiset sum).  Sparse random masks and the pinned families (lines over
F_q, shattered pairs) make many branches end in the closed forms.
"""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhplab import _backend
from fhplab.constructs import build_shattered_pairs, build_tp2_grid, build_two_order_cross
from fhplab.setfam import (
    RationalWeights,
    SetFamily,
    colorful_check,
    cons_k,
    max_intersecting,
    measure_fhp_check,
)
from fhplab.vc import _shattered_levels, vc_dimension

from conftest import is_shattered, oracle_tuple_measure


def random_masks(rng, n, ground):
    """n masks over `ground` bits, of one random density from sparse to full."""
    density = rng.random()
    return [
        sum(1 << e for e in range(ground) if rng.random() < density)
        for _ in range(n)
    ]


def family_of(masks, ground):
    return SetFamily(ground, [[e for e in range(ground) if m >> e & 1] for m in masks])


def line_masks(q):
    """Lines x1 = a*x0 + b over F_q, point (x0, x1) numbered x0*q + x1."""
    return [
        sum(1 << (x0 * q + (a * x0 + b) % q) for x0 in range(q))
        for a in range(q)
        for b in range(q)
    ]


def brute_count(masks, k):
    hits = 0
    for combo in itertools.combinations(masks, k):
        acc = -1
        for m in combo:
            acc &= m
        if acc:
            hits += 1
    return hits


def brute_rainbow(parts):
    hits = 0
    for combo in itertools.product(*(p.masks for p in parts)):
        acc = -1
        for m in combo:
            acc &= m
        if acc:
            hits += 1
    return hits


def shattered_pairs_cons(m, k):
    """k-sets of ordered pairs (a, b), a != b, whose sources and sinks are disjoint.

    The members of build_shattered_pairs(m) at such pairs share the subsets
    that hold every source and no sink.  Count the labelings of the m points
    as source set S and sink set T, times the k-subsets of S x T that use
    every point of S and T (inclusion-exclusion).
    """
    total = 0
    for s in range(1, m + 1):
        for t in range(1, m - s + 1):
            onto = sum(
                (-1) ** (i + j) * comb(s, i) * comb(t, j) * comb((s - i) * (t - j), k)
                for i in range(s + 1)
                for j in range(t + 1)
            )
            total += comb(m, s) * comb(m - s, t) * onto
    return total


def levelwise_oracle(family, cap):
    """Shattered-set levels by one `is_shattered` call per candidate."""
    levels = []
    level = [()]
    for _ in range(cap):
        level = [
            s + (e,)
            for s in level
            for e in range(s[-1] + 1 if s else 0, family.ground_size)
            if is_shattered(family, s + (e,))
        ]
        if not level:
            break
        levels.append(level)
    return levels


class TestCountIntersectingK:
    def test_seeded_every_k(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(0, 11)
            ground = rng.randint(1, 16)
            masks = random_masks(rng, n, ground)
            for k in range(1, n + 2):
                assert _backend.count_intersecting_k(masks, ground, k) == (
                    brute_count(masks, k)
                ), (seed, k)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**10 - 1), max_size=10),
        st.integers(min_value=1, max_value=11),
    )
    def test_property(self, masks, k):
        assert _backend.count_intersecting_k(masks, 10, k) == brute_count(masks, k)

    def test_edges(self):
        assert _backend.count_intersecting_k([], 3, 1) == 0
        assert _backend.count_intersecting_k([], 3, 2) == 0
        assert _backend.count_intersecting_k([0, 0, 0], 3, 1) == 0
        assert _backend.count_intersecting_k([0b11, 0, 0b10], 2, 2) == 1
        # ground 1: every nonempty member is the single point
        assert _backend.count_intersecting_k([1, 1, 0, 1], 1, 3) == 1
        assert _backend.count_intersecting_k([1, 1, 1, 1], 1, 4) == 1
        # k = n
        assert _backend.count_intersecting_k([0b110, 0b011, 0b010], 3, 3) == 1
        assert _backend.count_intersecting_k([0b100, 0b011, 0b010], 3, 3) == 0

    @pytest.mark.parametrize("q", [13, 17, 31])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_lines_closed_form(self, q, k):
        # distinct lines meet in at most one point, and each point lies on q lines
        assert _backend.count_intersecting_k(line_masks(q), q * q, k) == (
            q * q * comb(q, k)
        )

    def test_lines_f31_k4_pinned(self):
        assert _backend.count_intersecting_k(line_masks(31), 961, 4) == 30_237_865

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_shattered_pairs_formula(self, m, k):
        fam = build_shattered_pairs(m)
        got = _backend.count_intersecting_k(fam.masks, fam.ground_size, k)
        assert got == shattered_pairs_cons(m, k)
        if m <= 4:
            assert got == brute_count(fam.masks, k)


class TestCountByPoints:
    """The two sides of a branch of `count_intersecting_k`: by members and by
    the columns of its points."""

    def test_shared_pair_falls_back_to_members(self):
        # every later member holds both points of the first, so the first
        # branch tries its points, finds the overlap and goes by members
        assert _backend.POINT_STEP * 2 < _backend.MEMBER_STEP * 11
        masks = [0b11] * 12
        for k in (2, 3, 4):
            assert _backend.count_intersecting_k(masks, 2, k) == comb(12, k)

    def test_seeded_overlaps(self):
        # few points per member and many members: branches go by points at
        # first and by members deeper down, and later members often hold
        # two points of a branch
        for seed in range(200):
            rng = random.Random(seed)
            ground = rng.randint(2, 6)
            masks = [
                sum(1 << e for e in rng.sample(range(ground), rng.randint(1, ground)))
                for _ in range(rng.randint(10, 22))
            ]
            for k in (2, 3, 4):
                assert _backend.count_intersecting_k(masks, ground, k) == (
                    brute_count(masks, k)
                ), (seed, k)

    @pytest.mark.parametrize("point_step", [0, 10**9])
    def test_each_side_alone(self, monkeypatch, point_step):
        # 0: every branch with room after it tries its points; 10**9: only
        # one-point branches do
        monkeypatch.setattr(_backend, "POINT_STEP", point_step)
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(0, 12)
            ground = rng.randint(1, 12)
            masks = random_masks(rng, n, ground)
            for k in range(1, min(n, 5) + 1):
                assert _backend.count_intersecting_k(masks, ground, k) == (
                    brute_count(masks, k)
                ), (seed, k)

    def test_side_flips_with_depth(self):
        # a line of F_11 has 11 points: the branch opened by line i goes by
        # points while POINT_STEP * 11 < MEMBER_STEP * (120 - i), and by
        # members for the last lines
        q = 11
        assert _backend.POINT_STEP * q < _backend.MEMBER_STEP * (q * q - 1)
        for k in (2, 3, 4, 5):
            assert _backend.count_intersecting_k(line_masks(q), q * q, k) == (
                q * q * comb(q, k)
            )

    def test_getter_called_at_most_once(self):
        masks = line_masks(7)
        table = tuple(_backend._columns(masks, 49))
        calls = []

        def getter():
            calls.append(1)
            return table

        for k in (1, 2, 3, 4):
            calls.clear()
            got = _backend.count_intersecting_k(masks, 49, k, getter)
            assert got == (49 if k == 1 else 49 * comb(7, k))
            assert len(calls) == (k > 1)

        def no_table():
            raise AssertionError("no branch of the k = 2 count of crosses needs a column")

        cross = build_two_order_cross(9)
        assert _backend.count_intersecting_k(cross.masks, 81, 2, no_table) == comb(9, 2)

    def test_one_column_build_per_family(self, monkeypatch):
        builds = []
        real_columns = _backend._columns

        def counting(masks, ground_size):
            builds.append(masks)
            return real_columns(masks, ground_size)

        monkeypatch.setattr(_backend, "_columns", counting)
        fam = SetFamily.from_masks(49, line_masks(7))
        assert [cons_k(fam, k).cons_count for k in (2, 3, 4)] == [
            49 * comb(7, k) for k in (2, 3, 4)
        ]
        assert max_intersecting(fam).size == 7
        assert len(builds) == 1
        assert fam.columns == tuple(real_columns(fam.masks, 49))


class TestKernelSemantics:
    def test_pairs_match_k2(self):
        rng = random.Random(3)
        masks = random_masks(rng, 10, 30)
        assert _backend.count_intersecting_pairs(masks, 30) == (
            _backend.count_intersecting_k(masks, 30, 2)
        )

    def test_triples_match_k3(self):
        rng = random.Random(4)
        masks = random_masks(rng, 9, 25)
        assert _backend.count_intersecting_triples(masks, 25) == (
            _backend.count_intersecting_k(masks, 25, 3)
        )

    def test_depth_counts_per_element(self):
        fam = SetFamily(3, [{0, 1}, {1, 2}, {0, 2}])
        assert list(_backend.depth_counts(list(fam.masks), 3)) == [2, 2, 2]

    def test_depth_counts_sum_rule(self):
        # sum_e depth(e) = sum_i |S_i|
        rng = random.Random(9)
        masks = [rng.getrandbits(40) for _ in range(8)]
        counts = _backend.depth_counts(masks, 40)
        assert len(counts) == 40
        assert sum(counts) == sum(m.bit_count() for m in masks)


class TestRainbow:
    def test_seeded_against_product(self):
        for seed in range(200):
            rng = random.Random(seed)
            ground = rng.randint(1, 12)
            parts = [
                family_of(random_masks(rng, rng.randint(1, 6), ground), ground)
                for _ in range(rng.randint(1, 4))
            ]
            rep = colorful_check(parts, Fraction(1, 2))
            assert rep.rainbow_count == brute_rainbow(parts), seed
            assert rep.per_family_beta == tuple(
                Fraction(max_intersecting(p).size, p.n) for p in parts
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2**8 - 1), min_size=1, max_size=5),
            min_size=1,
            max_size=4,
        )
    )
    def test_property(self, rows):
        parts = [family_of(row, 8) for row in rows]
        rep = colorful_check(parts, Fraction(1, 2))
        assert rep.rainbow_count == brute_rainbow(parts)

    def test_lines_parts(self):
        # every pair of parts meets in single points: sum over points of the
        # product of the parts' depths
        q = 7
        fam = family_of(line_masks(q), q * q)
        parts = [SetFamily(fam.ground_size, fam.members[j::3]) for j in range(3)]
        depths = [_backend.depth_counts(p.masks, q * q) for p in parts]
        want = sum(a * b * c for a, b, c in zip(*depths))
        assert colorful_check(parts, Fraction(1, 2)).rainbow_count == want
        assert want == brute_rainbow(parts)


class TestTupleMeasure:
    def test_seeded_against_multiset_sum(self):
        for seed in range(300):
            rng = random.Random(seed)
            ground = rng.randint(1, 10)
            n = rng.randint(1, 8)
            fam = family_of(random_masks(rng, n, ground), ground)
            support = rng.sample(range(n), rng.randint(1, n))
            raw = [rng.randint(1, 9) for _ in support]
            weights = RationalWeights(
                {i: Fraction(r, sum(raw)) for i, r in zip(support, raw)}
            )
            d = rng.randint(1, 4)
            rep = measure_fhp_check(fam, weights, d, Fraction(1, 2))
            assert rep.tuple_measure == oracle_tuple_measure(fam, weights, d), seed
            depth = max(
                sum((w for i, w in weights.weights.items() if e in fam.members[i]), Fraction(0))
                for e in range(ground)
            )
            assert rep.weighted_depth == depth, seed

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**6 - 1), min_size=1, max_size=6),
        st.data(),
        st.integers(min_value=1, max_value=4),
    )
    def test_property(self, masks, data, d):
        fam = family_of(masks, 6)
        raw = data.draw(
            st.lists(st.integers(min_value=1, max_value=5), min_size=len(masks), max_size=len(masks))
        )
        weights = RationalWeights({i: Fraction(r, sum(raw)) for i, r in enumerate(raw)})
        rep = measure_fhp_check(fam, weights, d, Fraction(1, 2))
        assert rep.tuple_measure == oracle_tuple_measure(fam, weights, d)

    def test_lines_d3(self):
        # pairs of lines meet in one point, so every d=3 branch closes early
        q = 5
        fam = family_of(line_masks(q), q * q)
        weights = RationalWeights({i: Fraction(i + 1, 325) for i in range(25)})
        rep = measure_fhp_check(fam, weights, 3, Fraction(1, 2))
        assert rep.tuple_measure == oracle_tuple_measure(fam, weights, 3)


class TestShatteredLevels:
    def test_seeded_against_is_shattered(self):
        for seed in range(300):
            rng = random.Random(seed)
            ground = rng.randint(1, 8)
            fam = family_of(random_masks(rng, rng.randint(0, 16), ground), ground)
            cap = rng.randint(0, ground + 1)
            levels = list(_shattered_levels(fam, cap))
            assert levels == levelwise_oracle(fam, cap), seed
            rep = vc_dimension(fam, cap)
            assert rep.vc_lower == len(levels)
            assert rep.witness == frozenset(levels[-1][0] if levels else ())

    def test_shattered_pairs(self):
        fam = build_shattered_pairs(6)
        levels = list(_shattered_levels(fam, 3))
        assert levels == levelwise_oracle(fam, 3)
        assert len(levels) == 3

    def test_empty_family(self):
        fam = SetFamily(3, [])
        assert list(_shattered_levels(fam, 3)) == []
        assert vc_dimension(fam, 3).vc_lower == 0


class TestSetfamWiring:
    def test_cons_k_uses_kernel(self):
        fam = build_tp2_grid(2, 3)
        rep = cons_k(fam, 2)
        assert rep.cons_count == _backend.count_intersecting_pairs(
            list(fam.masks), fam.ground_size
        )
