import itertools
import random
from fractions import Fraction

import pytest

from fhplab.setfam import SetFamily, check_fhp_instance
from fhplab.vc import (
    EXHAUSTIVE_LIMIT,
    density_fit,
    dual_shatter,
    vc_dimension,
)

from conftest import interval_family, is_shattered, random_family


def powerset_family(m):
    subsets = []
    for r in range(m + 1):
        subsets.extend(set(c) for c in itertools.combinations(range(m), r))
    return SetFamily(m, subsets)


class TestIsShattered:
    def test_powerset_shatters_everything(self):
        fam = powerset_family(3)
        assert is_shattered(fam, {0, 1, 2})

    def test_triangle_pairs_unshattered(self, triangle):
        for pair in itertools.combinations(range(3), 2):
            assert not is_shattered(triangle, set(pair))

    def test_empty_subset(self, triangle):
        assert is_shattered(triangle, set())

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(ValueError):
            is_shattered(triangle, {7})

    def test_monotone_under_subset(self):
        rng = random.Random(17)
        for _ in range(20):
            fam = random_family(rng, ground_max=7, n_max=10)
            sub = set(rng.sample(range(fam.ground_size),
                                 rng.randint(0, min(3, fam.ground_size))))
            if is_shattered(fam, sub):
                for e in list(sub):
                    assert is_shattered(fam, sub - {e})


class TestVcDimension:
    def test_powerset(self):
        for m in (2, 3, 4):
            rep = vc_dimension(powerset_family(m), cap=m)
            assert rep.vc_exact == m

    def test_half_intervals(self):
        n = 8
        fam = SetFamily(n, [set(range(i + 1)) for i in range(n)])
        rep = vc_dimension(fam, cap=4)
        assert rep.vc_exact == 1

    def test_witness_is_shattered(self):
        rng = random.Random(23)
        for _ in range(15):
            fam = random_family(rng, ground_max=8, n_max=10)
            rep = vc_dimension(fam, cap=4)
            assert is_shattered(fam, rep.witness)
            assert len(rep.witness) == rep.vc_lower

    def test_small_sets_bound_vc(self):
        # members of size <= d can shatter at most d points
        rng = random.Random(29)
        for _ in range(10):
            g = rng.randint(3, 9)
            d = rng.randint(1, 3)
            members = [
                set(rng.sample(range(g), rng.randint(1, d))) for _ in range(8)
            ]
            fam = SetFamily(g, members)
            rep = vc_dimension(fam, cap=g)
            assert rep.vc_exact is not None and rep.vc_exact <= d

    def test_cap_below_dimension_gives_lower_bound(self):
        fam = powerset_family(4)
        rep = vc_dimension(fam, cap=2)
        assert rep.vc_lower == 2
        assert rep.vc_exact is None


class TestDualShatter:
    def test_single_set_two_atoms(self):
        fam = SetFamily(4, [{1, 2}])
        res = dual_shatter(fam, [1])
        assert res.values == {1: 2}

    def test_two_lines_four_atoms(self):
        # all non-vertical lines y = a x + b over the 5x5 grid
        q = 5
        members = []
        for a in range(q):
            for b in range(q):
                members.append({x * q + (a * x + b) % q for x in range(q)})
        fam = SetFamily(q * q, members)
        res = dual_shatter(fam, [2])
        assert res.values[2] == 4

    def test_monotone_in_size_seeded(self):
        rng = random.Random(31)
        for _ in range(100):
            fam = random_family(rng, ground_max=10, n_max=8)
            sizes = list(range(1, fam.n + 1))
            res = dual_shatter(fam, sizes, seed=7)
            vals = [res.values[s] for s in sizes]
            assert vals == sorted(vals)

    def test_sampled_mode_below_exhaustive(self):
        rng = random.Random(37)
        fam = random_family(rng, ground_max=10, n_max=12)
        sizes = [min(3, fam.n)]
        full = dual_shatter(fam, sizes, seed=0)
        sampled = dual_shatter(fam, sizes, seed=0, trials=5)
        if sampled.mode == "sampled":
            assert sampled.values[sizes[0]] <= full.values[sizes[0]]

    def test_mode_stamp(self):
        fam = SetFamily(5, [{i} for i in range(5)])
        res = dual_shatter(fam, [2])
        assert res.mode in ("exhaustive", "sampled")
        assert res.values[2] == 3  # two singletons cut {a},{b},rest

    def test_size_out_of_range(self, triangle):
        with pytest.raises(ValueError):
            dual_shatter(triangle, [5])

    def test_no_sizes(self, triangle):
        res = dual_shatter(triangle, [])
        assert (res.values, res.mode, res.seed) == ({}, "exhaustive", None)


class TestDensityFit:
    def test_linear_data(self):
        est = density_fit({1: 2, 2: 4, 4: 8, 8: 16})
        assert abs(float(est) - 1.0) < 1e-9

    def test_quadratic_data(self):
        est = density_fit({2: 4, 4: 16, 8: 64})
        assert abs(float(est) - 2.0) < 1e-9

    def test_needs_two_points(self):
        assert density_fit({3: 7}) is None

    def test_matches_polyfit_seeded(self):
        # numpy.polyfit is the oracle; sizes up to 10^4 cover every family
        # whose subfamilies dual_shatter can count
        import numpy as np

        rng = random.Random(1717)
        for _ in range(3000):
            values = {
                rng.randint(0, 10**rng.randint(1, 4)): rng.randint(0, 10**9)
                for _ in range(rng.randint(1, 6))
            }
            pts = [(n, v) for n, v in sorted(values.items()) if n >= 1 and v >= 1]
            want = None
            if len(pts) >= 2:
                xs = np.log([float(n) for n, _ in pts])
                ys = np.log([float(v) for _, v in pts])
                if not np.allclose(xs, xs[0]):
                    slope = float(np.polyfit(xs, ys, 1)[0])
                    want = Fraction(slope).limit_denominator(1000)
            assert density_fit(values) == want, values

    def test_near_equal_sizes_give_none(self):
        # within numpy.allclose's tolerance of one size: no slope
        assert density_fit({300000: 5, 300001: 7}) is None
        assert density_fit({300000: 5, 300100: 7}) is not None


def test_report_includes_dual_fit():
    fam = powerset_family(3)
    rep = vc_dimension(fam, cap=3, dual_sizes=[1, 2, 3], seed=0)
    assert rep.dual_values is not None
    assert rep.density_fit is not None
    assert rep.dual_mode in ("exhaustive", "sampled")


def test_matousek_coherence_on_intervals():
    """Families with sub-quadratic dual shatter growth should never beat
    fractional Helly at calibrated thresholds; falsification only."""
    rng = random.Random(41)
    alpha = Fraction(3, 4)
    beta = Fraction(1, 8)
    for _ in range(60):
        fam = interval_family(rng, ground=18, n=rng.randint(4, 9))
        sizes = list(range(1, min(fam.n, 5) + 1))
        res = dual_shatter(fam, sizes, seed=1)
        est = density_fit(res.values)
        if est is not None and float(est) < 2.0:
            rep = check_fhp_instance(fam, 2, alpha)
            if rep.hypothesis_holds:
                assert rep.best_beta >= beta, (fam.members, rep)
