import itertools
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from fhplab.constructs import (
    BlockParams,
    FurediResult,
    build_block_counterexample,
    build_caps_family,
    build_shattered_pairs,
    build_tp2_grid,
    build_two_order_cross,
    furedi_extract,
)
from fhplab import setfam
from fhplab.setfam import (
    SetFamily,
    check_pk_property,
    cons_k,
    max_intersecting,
)

import construct_oracle
from conftest import oracle_cons_count


class TestBlock:
    def params(self, **kw):
        base = dict(
            k=2,
            alpha=Fraction(3, 5),
            gamma=Fraction(1),
            p_prime=4,
            k_prime=2,
            r=3,
            m=4,
        )
        base.update(kw)
        return BlockParams(**base)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(alpha=Fraction(0)), r"alpha must lie in \(0,1\)"),
            (dict(alpha=Fraction(1)), r"alpha must lie in \(0,1\)"),
            (dict(gamma=Fraction(0)), r"gamma must lie in \(0,1\]"),
            (dict(gamma=Fraction(3, 2)), r"gamma must lie in \(0,1\]"),
            (dict(k_prime=1), "need p_prime >= k_prime >= 2"),
            (dict(p_prime=2, k_prime=3), "need p_prime >= k_prime >= 2"),
        ],
    )
    def test_parameter_ranges(self, kw, message):
        with pytest.raises(ValueError, match=message):
            self.params(**kw)

    def test_r_inequality_enforced(self):
        with pytest.raises(ValueError, match="1-j/r"):
            self.params(alpha=Fraction(2, 3))

    def test_shape(self):
        fam = build_block_counterexample(self.params())
        assert fam.n == 12
        assert fam.ground_size == math.comb(3, 2) * 16
        assert all(len(s) == math.comb(2, 1) * 16 // 4 for s in fam.members)

    def test_cons_count_formula(self):
        fam = build_block_counterexample(self.params())
        rep = cons_k(fam, 2)
        assert rep.cons_count == math.comb(3, 2) * 4**2 == 48
        assert rep.fraction == Fraction(8, 11)
        assert rep.fraction > Fraction(2, 3)

    def test_one_block_is_pairwise_disjoint(self):
        fam = build_block_counterexample(self.params())
        block = [s for s, lab in zip(fam.members, fam.labels)
                 if lab.startswith("S[0,")]
        assert len(block) == 4
        for a, b in itertools.combinations(block, 2):
            assert not (a & b)

    def test_full_family_fails_p_prime_k_prime(self):
        fam = build_block_counterexample(self.params())
        res = check_pk_property(fam, 4, 2)
        assert not res.holds

    def test_oracle_agreement_on_cons(self):
        fam = build_block_counterexample(self.params(m=3, p_prime=3))
        assert cons_k(fam, 2).cons_count == oracle_cons_count(fam, 2)

    def test_m_floor_enforced(self):
        with pytest.raises(ValueError):
            self.params(m=3, p_prime=4, gamma=Fraction(1))


class TestTp2Grid:
    def test_spec_example_2_3(self):
        fam = build_tp2_grid(2, 3)
        assert (fam.n, fam.ground_size) == (6, 9)
        rep = cons_k(fam, 2)
        assert (rep.cons_count, rep.total) == (9, 15)
        assert rep.fraction == Fraction(3, 5) >= Fraction(1, 4)
        assert max_intersecting(fam).size == 2

    def test_k1_disjoint(self):
        fam = build_tp2_grid(1, 5)
        assert fam.n == 5
        assert Fraction(max_intersecting(fam).size, fam.n) == Fraction(1, 5)

    def test_rows_pairwise_disjoint(self):
        fam = build_tp2_grid(3, 4)
        for i in range(3):
            row = fam.members[i * 4 : (i + 1) * 4]
            for a, b in itertools.combinations(row, 2):
                assert not (a & b)

    def test_transversals_consistent(self):
        k, m = 3, 3
        fam = build_tp2_grid(k, m)
        for choice in itertools.product(range(m), repeat=k):
            inter = set(fam.members[0 * m + choice[0]])
            for i in range(1, k):
                inter &= fam.members[i * m + choice[i]]
            assert inter

    def test_cons_k_count_is_m_to_k(self):
        for k, m in [(2, 3), (3, 2), (2, 4)]:
            fam = build_tp2_grid(k, m)
            assert cons_k(fam, k).cons_count == m**k

    def test_window_variant_d3(self):
        # with d=3 any three same-row sets are disjoint but pairs overlap
        fam = build_tp2_grid(2, 5, d=3)
        row = fam.members[:5]
        for trio in itertools.combinations(row, 3):
            assert not (trio[0] & trio[1] & trio[2])
        assert any(a & b for a, b in itertools.combinations(row, 2))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(setfam, "SIZE_CAP", 1000)
        with pytest.raises(ValueError, match="ground size 1600 exceeds SIZE_CAP 1000"):
            build_tp2_grid(2, 40)

    def test_windows_must_not_wrap(self):
        assert build_tp2_grid(2, 3, d=4).n == 6  # m = d - 1
        with pytest.raises(ValueError, match="need m >= d-1"):
            build_tp2_grid(2, 2, d=4)


class TestCross:
    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_defining_stats(self, n):
        fam = build_two_order_cross(n)
        assert fam.n == n
        assert cons_k(fam, 2).fraction == 1
        if n >= 3:
            assert cons_k(fam, 3).cons_count == 0
        assert Fraction(max_intersecting(fam).size, fam.n) == Fraction(2, n)

    @pytest.mark.parametrize("n", [7, 40, 120])
    def test_no_three_crosses_meet(self, n):
        # two crosses share two points and no third cross holds either one
        fam = build_two_order_cross(n)
        assert cons_k(fam, 3).cons_count == 0
        assert cons_k(fam, 4).cons_count == 0

    def test_n2_trivial(self):
        rep = cons_k(build_two_order_cross(2), 2)
        assert (rep.cons_count, rep.total) == (1, 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_two_order_cross(1)


class TestCaps:
    def test_spec_example_w2_d2(self):
        fam = build_caps_family(2, 2)
        lab = dict(zip(fam.labels, fam.members))
        # strings ordered length-then-lex: "0","1","00","01","10","11"
        assert lab["F[0,0]"] == {0, 2, 3}
        assert lab["F[1,1]"] == {3, 5}
        assert not (lab["F[0,0]"] & lab["F[0,1]"])

    def test_path_intersection_contains_string(self):
        fam = build_caps_family(2, 2)
        lab = dict(zip(fam.labels, fam.members))
        assert 3 in lab["F[0,0]"] & lab["F[1,1]"]  # "01"

    def test_depth_one_rows_empty_when_no_long_strings(self):
        fam = build_caps_family(3, 1)
        assert all(s for s in fam.members)  # D=1: only row 0, never empty

    def test_rows_disjoint_branches_meet(self):
        W, D = 3, 3
        fam = build_caps_family(W, D)
        for i in range(D):
            row = fam.members[i * W : (i + 1) * W]
            for a, b in itertools.combinations(row, 2):
                assert not (a & b)
        for branch in itertools.product(range(W), repeat=D):
            inter = set(fam.members[0 * W + branch[0]])
            for i in range(1, D):
                inter &= fam.members[i * W + branch[i]]
            assert inter

    def test_cap_error(self, monkeypatch):
        monkeypatch.setattr(setfam, "SIZE_CAP", 100)
        with pytest.raises(ValueError, match="exceeds SIZE_CAP"):
            build_caps_family(10, 2)


class TestShatteredPairs:
    def test_m3_shape(self):
        fam = build_shattered_pairs(3)
        assert fam.n == 6
        assert all(len(s) == 2 for s in fam.members)

    def test_member_defining_predicate(self):
        m = 4
        fam = build_shattered_pairs(m)
        idx = 0
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                want = {e for e in range(2**m)
                        if (e >> a) & 1 and not (e >> b) & 1}
                assert fam.members[idx] == want
                idx += 1

    def test_m5_has_4_2_property(self):
        fam = build_shattered_pairs(5)
        assert check_pk_property(fam, 4, 2).holds

    def test_m2_lacks_it(self):
        # only two members (0,1),(1,0) and they are disjoint
        fam = build_shattered_pairs(2)
        assert not check_pk_property(fam, 2, 2).holds

    def test_cap(self):
        with pytest.raises(ValueError):
            build_shattered_pairs(25)


class TestFuredi:
    def test_triangle_target(self, triangle):
        res = furedi_extract(triangle, trials=200, seed=0)
        assert res is not None
        assert res.target == 1
        assert len(res.indices) >= 1

    def test_rainbow_property_holds(self):
        rng = random.Random(9)
        fam = SetFamily(12, [rng.sample(range(12), 3) for _ in range(20)])
        res = furedi_extract(fam, trials=5000, seed=4)
        assert res is not None
        color = {}
        for t, part in enumerate(res.parts):
            for e in part:
                color[e] = t
        for i in res.indices:
            assert len({color[e] for e in fam.members[i]}) == 3

    def test_k1_whole_family(self):
        fam = SetFamily(3, [{0}, {1}, {0}])
        res = furedi_extract(fam, trials=10, seed=0)
        assert res is not None
        assert set(res.indices) == {0, 1, 2}

    def test_mixed_sizes_rejected(self):
        fam = SetFamily(4, [{0, 1}, {2}])
        with pytest.raises(ValueError, match="member 1"):
            furedi_extract(fam, trials=5, seed=0)

    @pytest.mark.parametrize(
        "members, message",
        [([], "family has no members"), ([set(), {2}], "member 0 is empty")],
    )
    def test_no_members_or_empty_first_member_rejected(self, members, message):
        with pytest.raises(ValueError, match=message):
            furedi_extract(SetFamily(4, members), trials=5, seed=0)

    def test_deterministic_given_seed(self, triangle):
        a = furedi_extract(triangle, trials=50, seed=11)
        b = furedi_extract(triangle, trials=50, seed=11)
        assert a == b

    def test_result_records_seed(self, triangle):
        res = furedi_extract(triangle, trials=50, seed=11)
        assert isinstance(res, FurediResult)
        assert res.seed == 11


def test_generators_are_deterministic():
    pairs = [
        (build_tp2_grid(2, 4), build_tp2_grid(2, 4)),
        (build_two_order_cross(5), build_two_order_cross(5)),
        (build_caps_family(2, 3), build_caps_family(2, 3)),
        (build_shattered_pairs(4), build_shattered_pairs(4)),
    ]
    for a, b in pairs:
        assert a == b and a.labels == b.labels


BLOCK_ORACLE_PARAMS = [
    dict(k=2, alpha=Fraction(3, 5), gamma=Fraction(1), p_prime=4, k_prime=2, r=3, m=4),
    dict(k=3, alpha=Fraction(1, 5), gamma=Fraction(1), p_prime=3, k_prime=2, r=5, m=3),
    dict(k=4, alpha=Fraction(1, 10), gamma=Fraction(1), p_prime=2, k_prime=2, r=8, m=2),
]


@pytest.mark.parametrize("build, oracle", [
    *[(partial(build_shattered_pairs, m), partial(construct_oracle.shattered, m))
      for m in range(2, 11)],
    *[(partial(build_tp2_grid, k, m, d), partial(construct_oracle.tp2, k, m, d))
      for k, m, d in [(1, 1, 2), (2, 5, 2), (3, 4, 3), (2, 6, 4), (2, 7, 7)]],
    *[(partial(build_two_order_cross, n), partial(construct_oracle.cross, n))
      for n in (2, 3, 7, 20)],
    *[(partial(build_caps_family, w, d), partial(construct_oracle.caps, w, d))
      for w, d in [(1, 4), (2, 3), (4, 2)]],
    *[(partial(build_block_counterexample, BlockParams(**p)),
       partial(construct_oracle.block, p["k"], p["r"], p["m"]))
      for p in BLOCK_ORACLE_PARAMS],
])
def test_builder_masks_match_point_oracle(build, oracle):
    ground, members, labels = oracle()
    fam = build()
    assert fam.ground_size == ground
    assert fam.masks == SetFamily(ground, members).masks
    assert fam.labels == tuple(labels)
