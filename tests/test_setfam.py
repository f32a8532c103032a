import itertools
import math
import random
import time
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fhplab import _backend as backend
from fhplab import setfam
from fhplab.constructs import build_two_order_cross
from fhplab.setfam import (
    ConsReport,
    MeasureReport,
    RationalWeights,
    SetFamily,
    check_fhp_instance,
    check_pk_property,
    colorful_check,
    cons_k,
    max_intersecting,
    measure_fhp_check,
    min_sequence_ratio,
    wfhp_counting_bound,
)

from conftest import oracle_cons_count, oracle_pk, random_family


class TestSetFamily:
    def test_basic_shape(self, triangle):
        assert triangle.n == 3
        assert triangle.ground_size == 3
        assert triangle.members[0] == frozenset({0, 1})

    def test_element_out_of_range(self):
        with pytest.raises(ValueError, match=r"set 1: element 5"):
            SetFamily(3, [{0}, {5}])

    @pytest.mark.parametrize("e", [True, False])
    def test_bool_element_refused(self, e):
        # True == 1 and hashes like it; an element is an int, never a bool
        with pytest.raises(ValueError, match=r"set 1: element .* outside ground range"):
            SetFamily(3, [{0}, [e, 2]])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([3], "must be a JSON object"),
            ({"sets": [[0]]}, "missing key 'ground'"),
            ({"ground": 3}, "missing key 'sets'"),
            ({"ground": True, "sets": [[0]]}, "'ground' must be a positive integer"),
            ({"ground": 3.0, "sets": [[0]]}, "'ground' must be a positive integer"),
            ({"ground": 0, "sets": []}, "'ground' must be a positive integer"),
            ({"ground": 3, "sets": {"0": [0]}}, "'sets' must be a list of lists"),
            ({"ground": 3, "sets": [[0], 1]}, "set 1: not a list"),
            ({"ground": 3, "sets": [[True, 2], [1, 2]]}, "set 0: element True"),
            ({"ground": 3, "sets": [[0]], "labels": ["a", "b"]}, "'labels' must be"),
            ({"ground": 3, "sets": [[0]], "labels": "a"}, "'labels' must be"),
        ],
    )
    def test_json_shape_refused(self, doc, message):
        with pytest.raises(ValueError, match=message):
            SetFamily.from_json_dict(doc)

    def test_negative_ground(self):
        with pytest.raises(ValueError):
            SetFamily(-1, [])

    def test_masks(self, triangle):
        assert triangle.masks == (0b011, 0b110, 0b101)

    def test_empty_members_tracked(self):
        fam = SetFamily(4, [{0}, set(), {1, 2}, set()])
        assert fam.empty_members == (1, 3)

    def test_json_round_trip(self, triangle):
        obj = triangle.to_json_dict()
        back = SetFamily.from_json_dict(obj)
        assert back == triangle

    def test_json_ignores_extra_keys(self, triangle):
        obj = triangle.to_json_dict()
        obj["construction"] = "by-hand"
        assert SetFamily.from_json_dict(obj) == triangle

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            SetFamily(2, [{0}], labels=["a", "b"])

    @pytest.mark.parametrize("mask", [-1, 0b1000, 1 << 70, 1.0, "1", True, None])
    def test_from_masks_refuses_bad_mask(self, mask):
        with pytest.raises(ValueError, match=r"set 1: not an int mask in \[0, 2\*\*3\)"):
            SetFamily.from_masks(3, [0b011, mask])

    def test_from_masks_checks_ground_and_labels(self):
        with pytest.raises(ValueError, match="ground_size"):
            SetFamily.from_masks(0, [])
        with pytest.raises(ValueError, match="labels length"):
            SetFamily.from_masks(2, [1], labels=["a", "b"])

    def test_elements_and_masks_build_one_family(self):
        members = [[0, 1], [1, 2], [], [2, 0, 2], list(range(70, 200)), [199]]
        labels = ("a", "b", "c", "d", "e", "f")
        by_elements = SetFamily(200, members, labels)
        masks = [sum(1 << e for e in set(s)) for s in members]
        by_masks = SetFamily.from_masks(200, masks, labels)
        assert by_elements == by_masks
        assert hash(by_elements) == hash(by_masks)
        assert by_elements.masks == tuple(masks)
        assert by_masks.members == tuple(frozenset(s) for s in members)
        assert by_masks.to_json_dict()["sets"] == [sorted(set(s)) for s in members]
        assert by_masks != SetFamily.from_masks(200, masks)  # labels differ
        assert by_masks.__eq__(tuple(masks)) is NotImplemented
        assert by_masks != tuple(masks)

    def test_repr_of_wide_masks(self):
        # decimal str() refuses ints past 4300 digits; the repr prints hex
        fam = SetFamily.from_masks(20000, [1 << 19999, 0b101])
        assert repr(fam) == f"SetFamily(20000, masks=({hex(1 << 19999)}, 0x5), labels=None)"

    def test_json_refuses_huge_ground_before_building(self):
        # (1 << ground) - 1 alone would need 125 GB
        doc = {"ground": 1000000000000, "sets": [[0, 1], [1, 2]]}
        with pytest.raises(ValueError, match="exceeds SIZE_CAP"):
            SetFamily.from_json_dict(doc)


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            RationalWeights({0: Fraction(1, 2)})

    def test_zero_weights_dropped(self):
        w = RationalWeights({0: Fraction(1), 1: Fraction(0)})
        assert 1 not in w.weights

    def test_uniform(self):
        w = RationalWeights.uniform(4)
        assert all(v == Fraction(1, 4) for v in w.weights.values())
        with pytest.raises(ValueError, match="need at least one index"):
            RationalWeights.uniform(0)

    @pytest.mark.parametrize(
        "weights, message",
        [
            # True == 1 and hashes like it, but is no member index
            ({True: 1}, "weight index True is not a member index"),
            ({1: Fraction(1, 2), False: Fraction(1, 2)}, "weight index False"),
            ({-1: 1}, "weight index -1 is not a member index"),
            ({1.0: 1}, "weight index 1.0 is not a member index"),
            ({0: 2, 1: -1}, "weight at index 1 is negative"),
        ],
    )
    def test_bad_weights_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            RationalWeights(weights)


def test_cons_triangle(triangle):
    rep = cons_k(triangle, 2)
    assert (rep.cons_count, rep.total) == (3, 3)
    assert cons_k(triangle, 3).cons_count == 0


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cons_matches_oracle(seed, k):
    fam = random_family(random.Random(seed), ground_max=8, n_max=7)
    if k > fam.n:
        return
    assert cons_k(fam, k).cons_count == oracle_cons_count(fam, k)


def test_max_intersecting_tie_smallest_element():
    fam = SetFamily(3, [{1, 2}, {1, 2}, {0}])
    best = max_intersecting(fam)
    assert best.size == 2
    assert best.element == 1
    assert best.indices == frozenset({0, 1})


def test_max_intersecting_all_empty():
    fam = SetFamily(2, [set(), set()])
    assert max_intersecting(fam) == (0, 0, frozenset())
    with pytest.raises(ValueError, match="family has no members"):
        max_intersecting(SetFamily(2, []))


@pytest.mark.parametrize("cons_count, total", [(-1, 3), (4, 3)])
def test_cons_report_count_within_total(cons_count, total):
    with pytest.raises(ValueError, match=r"cons_count outside \[0, total\]"):
        ConsReport(2, cons_count, total)


def test_fhp_instance_triangle(triangle):
    rep = check_fhp_instance(triangle, 2, Fraction(2, 3))
    assert rep.cons.fraction == 1
    assert rep.best_beta == Fraction(2, 3)
    assert rep.hypothesis_holds
    assert rep.witness_element == 0


def test_fhp_hypothesis_fails_below_alpha(triangle):
    rep = check_fhp_instance(triangle, 3, Fraction(1, 2))
    assert rep.cons.fraction == 0
    assert not rep.hypothesis_holds


class TestPkProperty:
    def test_triangle_2_2(self, triangle):
        assert check_pk_property(triangle, 2, 2).holds

    def test_disjoint_family_fails(self):
        fam = SetFamily(4, [{0}, {1}, {2}, {3}])
        res = check_pk_property(fam, 4, 2)
        assert not res.holds
        assert res.counterexample == (0, 1, 2, 3)

    def test_p_less_than_k_rejected(self, triangle):
        with pytest.raises(ValueError):
            check_pk_property(triangle, 1, 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            check_pk_property(triangle, 1, 0)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, seed):
        # every 1 <= k <= p <= 4, empty members included: the depth-first
        # walk prunes at every prefix length, the root too
        rng = random.Random(100 + seed)
        fam = random_family(rng, ground_max=6, n_max=6, min_size=0)
        for p in range(1, 5):
            for k in range(1, p + 1):
                mine = check_pk_property(fam, p, k)
                assert (mine.holds, mine.counterexample) == oracle_pk(fam, p, k), (p, k)


# the oracle of min_sequence_ratio
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


def test_sequence_ratio_triangle(triangle):
    assert sequence_ratio(triangle, (0,)) == 1
    assert sequence_ratio(triangle, (0, 1)) == 1
    assert sequence_ratio(triangle, (0, 1, 2)) == Fraction(2, 3)
    # repetition raises the achievable depth
    assert sequence_ratio(triangle, (0, 0, 1)) == 1


@pytest.mark.parametrize(
    "seq, message",
    [
        ((), "index sequence must be nonempty"),
        ((0, 3), "index 3 out of range"),
        ((-1,), "index -1 out of range"),
    ],
)
def test_sequence_ratio_refuses_bad_sequence(seq, message, triangle):
    with pytest.raises(ValueError, match=message):
        sequence_ratio(triangle, seq)


def test_sequence_ratio_permutation_invariant(triangle):
    for perm in itertools.permutations((0, 1, 2)):
        assert sequence_ratio(triangle, perm) == Fraction(2, 3)


def test_min_sequence_ratio_triangle(triangle):
    assert min_sequence_ratio(triangle, 5) == Fraction(2, 3)


def test_min_sequence_ratio_disjoint():
    fam = SetFamily(2, [{0}, {1}])
    assert min_sequence_ratio(fam, 4) == Fraction(1, 2)


def oracle_min_sequence_ratio(family, max_len):
    """Least sequence_ratio over every multiset of length 1..max_len."""
    return min(
        sequence_ratio(family, seq)
        for length in range(1, max_len + 1)
        for seq in itertools.combinations_with_replacement(range(family.n), length)
    )


@pytest.mark.parametrize("seed", range(60))
def test_min_sequence_ratio_matches_all_multisets(seed):
    rng = random.Random(500 + seed)
    fam = random_family(rng, ground_max=7, n_max=6, min_size=0)
    max_len = rng.randint(1, 5)
    assert min_sequence_ratio(fam, max_len) == oracle_min_sequence_ratio(fam, max_len)


def test_min_sequence_ratio_errors():
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        min_sequence_ratio(SetFamily(2, []), 0)
    with pytest.raises(ValueError, match="family has no members"):
        min_sequence_ratio(SetFamily(2, []), 3)


def test_min_sequence_ratio_lines_f11_is_fast():
    from fhplab.pseudofield import FieldStructure, line_family

    fam = line_family(FieldStructure.for_prime(11))
    started = time.monotonic()
    # four parallel lines share no point
    assert min_sequence_ratio(fam, 4) == Fraction(1, 4)
    assert time.monotonic() - started < 3


class TestColorful:
    def test_two_triangles(self, triangle):
        rep = colorful_check([triangle, triangle], Fraction(2, 3))
        assert rep.fraction == 1
        assert rep.best_beta == Fraction(2, 3)
        assert rep.holds

    def test_disjoint_cross_pair(self):
        a = SetFamily(4, [{0}, {1}])
        b = SetFamily(4, [{2}, {3}])
        rep = colorful_check([a, b], Fraction(1, 4))
        assert rep.rainbow_count == 0
        assert not rep.holds

    def test_per_family_beta_reported(self, triangle):
        rep = colorful_check([triangle, triangle], Fraction(1, 2))
        assert rep.per_family_beta == (Fraction(2, 3), Fraction(2, 3))
        # convex-reference constant alpha/(d+1) carried as metadata
        assert rep.beta_reference == Fraction(1, 6)

    def test_ground_mismatch_rejected(self, triangle):
        with pytest.raises(ValueError):
            colorful_check([triangle, SetFamily(4, [{0}])], Fraction(1, 2))

    @pytest.mark.parametrize(
        "families, message",
        [
            ([], "need at least one family"),
            ([SetFamily(3, [{0}]), SetFamily(3, [])], "families must be nonempty"),
        ],
    )
    def test_missing_members_rejected(self, families, message):
        with pytest.raises(ValueError, match=message):
            colorful_check(families, Fraction(1, 2))


class TestMeasure:
    def test_triangle_uniform(self, triangle):
        rep = measure_fhp_check(
            triangle, RationalWeights.uniform(3), 2, Fraction(2, 3)
        )
        assert rep.tuple_measure == 1
        assert rep.weighted_depth == Fraction(2, 3)
        assert rep.holds

    def test_point_mass(self, triangle):
        w = RationalWeights({1: Fraction(1)})
        rep = measure_fhp_check(triangle, w, 3, Fraction(1, 2))
        assert rep.tuple_measure == 1
        assert rep.weighted_depth == 1

    def test_weight_index_out_of_range(self, triangle):
        w = RationalWeights({7: Fraction(1)})
        with pytest.raises(ValueError):
            measure_fhp_check(triangle, w, 2, Fraction(1, 2))

    def test_d_below_one_rejected(self, triangle):
        with pytest.raises(ValueError, match="d must be >= 1"):
            measure_fhp_check(triangle, RationalWeights.uniform(3), 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_tuple_measure_equals_direct_sum(self, seed):
        # independent oracle: iterate all ordered d-tuples of support
        rng = random.Random(300 + seed)
        fam = random_family(rng, ground_max=6, n_max=5)
        L = rng.randint(1, 4)
        parts = [0] * fam.n
        for _ in range(L):
            parts[rng.randrange(fam.n)] += 1
        w = RationalWeights(
            {i: Fraction(c, L) for i, c in enumerate(parts) if c}
        )
        d = rng.randint(1, 3)
        rep = measure_fhp_check(fam, w, d, Fraction(1, 2))
        total = Fraction(0)
        for tup in itertools.product(sorted(w.weights), repeat=d):
            inter = set(fam.members[tup[0]])
            for i in tup[1:]:
                inter &= fam.members[i]
            if inter:
                total += math.prod(w.weights[i] for i in tup)
        assert rep.tuple_measure == total

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_two_order_cross_closed_form(self, n):
        # two crosses meet in two points that no third cross holds, so no
        # branch closes at one point: every pair is consistent, and a
        # 3-tuple is consistent unless its three indices all differ
        fam = build_two_order_cross(n)
        uniform = RationalWeights.uniform(fam.n)
        assert measure_fhp_check(fam, uniform, 2, 0).tuple_measure == 1
        want = 1 - Fraction(n * (n - 1) * (n - 2), n**3)
        assert measure_fhp_check(fam, uniform, 3, 0).tuple_measure == want


class TestNoNestedPublicCalls:
    """colorful_check and measure_fhp_check share one private walk; neither
    calls the other's public name, which the benchmark harness wraps to
    time each one on its own."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("called through the public name")

    def test_measure_without_colorful(self, triangle, monkeypatch):
        monkeypatch.setattr(setfam, "colorful_check", self.refuse)
        rep = measure_fhp_check(triangle, RationalWeights.uniform(3), 2, 0)
        assert rep.tuple_measure == 1

    def test_colorful_without_measure(self, triangle, monkeypatch):
        monkeypatch.setattr(setfam, "measure_fhp_check", self.refuse)
        assert colorful_check([triangle, triangle], 0).rainbow_count == 9


def test_wfhp_counting_bound_formula():
    for n, p, k in [(10, 4, 2), (12, 5, 3), (6, 6, 6)]:
        expect = Fraction(math.comb(n, p), math.comb(n - k, p - k))
        assert wfhp_counting_bound(n, p, k) == expect


def test_wfhp_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        wfhp_counting_bound(3, 5, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cons_count_le_total(data):
    g = data.draw(st.integers(1, 8))
    n = data.draw(st.integers(1, 7))
    members = [
        data.draw(st.sets(st.integers(0, g - 1), max_size=g)) or {0}
        for _ in range(n)
    ]
    fam = SetFamily(g, members)
    k = data.draw(st.integers(1, n))
    rep = cons_k(fam, k)
    assert 0 <= rep.cons_count <= rep.total == math.comb(n, k)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_best_beta_bounds(data):
    g = data.draw(st.integers(1, 9))
    n = data.draw(st.integers(1, 8))
    members = [
        data.draw(st.sets(st.integers(0, g - 1), min_size=1, max_size=g))
        for _ in range(n)
    ]
    fam = SetFamily(g, members)
    best = max_intersecting(fam)
    assert 1 <= best.size <= n
    assert all(best.element in fam.members[i] for i in best.indices)
