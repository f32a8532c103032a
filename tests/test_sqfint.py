import json
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy import isprime

from fhplab._jsonutil import to_json
from fhplab.sqfint import (
    PSAT_CAP,
    _cond_holds,
    _sieve_outside_pm,
    _truncated_product,
    DensityCertificate,
    GSystem,
    SpecialFormula,
    count_solutions_window,
    density_certificate,
    dickson_admissible,
    in_Pm,
    p_satisfiable,
    shift_system,
    solution_family,
    sqf_fhp_experiment,
    theoretical_beta,
    vp,
)


def sf_is_squarefree(a):
    return a != 0 and all(e < 2 for e in sympy.factorint(abs(a)).values())


def in_Upl(a: int, p: int, l: int) -> bool:
    """a in U_{p,l}  <=>  v_p(a) >= l.  Levels l <= 0 hold vacuously."""
    if not isprime(p):
        raise ValueError(f"p = {p} is not prime")
    if l <= 0:
        return True
    return a % p**l == 0


def holds_at(sys_: GSystem, x: int) -> bool:
    """Direct evaluation of the system at a single integer."""
    f = sys_.formula
    k, m = f.lead_k, f.modulus_m
    for ci in sys_.c:
        if not in_Pm(k * x + ci, m):
            return False
    for cj in sys_.c_prime:
        if in_Pm(k * x + cj, m):
            return False
    assign = sys_.assignment(x)
    return all(
        _cond_holds(cond, p, assign) for p, cond in f.p_conditions.items()
    )


def notinU(coeffs, const=0, level=1):
    """A notinU condition node, as a document writes it."""
    return {"op": "notinU", "form": {"coeffs": coeffs, "const": const},
            "level": level}


def walk(node, p, assign):
    """Test-side condition walker on in_Upl: the oracle of the evaluator."""
    op = node["op"]
    if op == "notinU":
        form = node["form"]
        value = form.get("const", 0) + sum(
            co * assign[v] for v, co in form.get("coeffs", {}).items()
        )
        return not in_Upl(value, p, node["level"])
    if op == "and":
        return all(walk(i, p, assign) for i in node["items"])
    if op == "or":
        return any(walk(i, p, assign) for i in node["items"])
    if op == "not":
        return not walk(node["item"], p, assign)
    assert op == "true"
    return True


def random_tree(rng, variables, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        if rng.random() < 0.1:
            return {"op": "true"}
        coeffs = {v: rng.randint(-3, 3) for v in rng.sample(variables, 2)}
        return notinU(coeffs, rng.randint(-5, 5), rng.randint(0, 4))
    if roll < 0.6:
        return {"op": "not", "item": random_tree(rng, variables, depth - 1)}
    items = [random_tree(rng, variables, depth - 1)
             for _ in range(rng.randint(0, 3))]
    return {"op": rng.choice(["and", "or"]), "items": items}


class TestValuations:
    def test_vp_examples(self):
        assert vp(12, 2) == 2
        assert vp(12, 3) == 1
        assert vp(12, 5) == 0
        assert vp(-8, 2) == 3

    def test_vp_zero_is_infinite(self):
        assert vp(0, 5) == math.inf

    def test_vp_rejects_composite(self):
        with pytest.raises(ValueError):
            vp(10, 4)

    def test_in_upl(self):
        assert in_Upl(18, 3, 2)
        assert not in_Upl(18, 3, 3)
        assert in_Upl(0, 7, 10)
        assert in_Upl(5, 3, 0)

    def test_in_pm_examples(self):
        assert in_Pm(6, 1)
        assert not in_Pm(4, 1)
        assert in_Pm(4, 2)
        assert not in_Pm(0, 1)
        with pytest.raises(ValueError, match="m must be >= 1"):
            in_Pm(6, 0)

    def test_in_pm_negative_mirror(self):
        for a in range(1, 60):
            assert in_Pm(a, 1) == in_Pm(-a, 1)

    def test_in_pm_matches_sieve(self):
        for a in range(-100, 101):
            assert in_Pm(a, 1) == sf_is_squarefree(a)


class TestLinearForm:
    """The form of a notinU node: const + sum(coeff * var), in canonical
    order."""

    def test_evaluate(self):
        # 2x - z0 + 5 at x = 3, z0 = 4 is 7: in U_{7,1}, outside U_{5,1}
        for p, holds in ((5, True), (7, False)):
            f = SpecialFormula(
                lead_k=1, modulus_m=1, positive_slots=1,
                p_conditions={p: notinU({"x": 2, "z0": -1}, 5)},
            )
            assert holds_at(GSystem(f, (4,), ()), 3) is holds

    def test_zero_coeffs_dropped(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=1,
            p_conditions={2: notinU({"x": 0, "z0": 1}, 1),
                          3: {"op": "notinU", "form": {"coeffs": {"x": 0}},
                              "level": 1}},
        )
        assert f.p_conditions == {
            2: notinU({"z0": 1}, 1),
            3: notinU({}, 0),
        }
        # a zero coefficient may name any variable: it is dropped first
        SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                       p_conditions={2: notinU({"z9": 0})})

    def test_json_round_trip(self):
        # coefficients come back sorted by name, keys in grammar order
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=1, negative_slots=1,
            p_conditions={3: {"level": 2, "form": {"const": -2, "coeffs": {
                "zp0": 3, "x": 1, "z0": -1}}, "op": "notinU"}},
        )
        tree = to_json(f)["p_conditions"]["3"]
        assert list(tree) == ["op", "form", "level"]
        assert list(tree["form"]) == ["coeffs", "const"]
        assert list(tree["form"]["coeffs"]) == ["x", "z0", "zp0"]
        assert SpecialFormula.from_json_dict(to_json(f)) == f


class TestConditionReader:
    @pytest.mark.parametrize("cond", [
        notinU({"x": 1.5}),
        notinU({"x": 1}, const="2"),
        notinU({"x": 1}, level=1.9),
        notinU({"x": True}),
        notinU({"x": 1}, level=None),
        {"op": "notinU", "form": {"coeffs": {"x": 1}}},
        {"op": "notinU", "level": 1},
        {"op": "notinU", "form": {"coeffs": {"x": 1}, "k": 1}, "level": 1},
        {"op": "notinU", "form": [1], "level": 1},
        {"op": "notinU", "form": {"coeffs": [["x", 1]]}, "level": 1},
        {"op": "true", "note": "extra key"},
        {"op": "and", "items": {"op": "true"}},
        {"op": "not"},
        {"op": "xor", "items": []},
        {"items": []},
        [],
        "true",
    ])
    def test_malformed_condition_rejected(self, cond):
        with pytest.raises(ValueError):
            SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                           p_conditions={3: cond})

    @pytest.mark.parametrize("key", ["x", "3.0", "", True, 2.0, -3])
    def test_bad_prime_key_rejected(self, key):
        with pytest.raises(ValueError):
            SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                           p_conditions={key: {"op": "true"}})

    def test_string_and_int_keys_read_alike(self):
        with pytest.raises(ValueError, match="twice"):
            SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                           p_conditions={3: {"op": "true"},
                                         "3": {"op": "true"}})
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                           p_conditions={"5": {"op": "true"},
                                         2: {"op": "true"}})
        assert list(f.p_conditions) == [2, 5]

    def test_float_slot_constant_rejected(self):
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=1)
        with pytest.raises(ValueError):
            GSystem(f, (1.5,), ())


class TestFormulaAndSystem:
    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            SpecialFormula(
                lead_k=1,
                modulus_m=1,
                positive_slots=1,
                negative_slots=0,
                p_conditions={2: notinU({"z5": 1})},
            )

    def test_nonprime_condition_key_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            SpecialFormula(
                lead_k=1,
                modulus_m=1,
                positive_slots=0,
                negative_slots=0,
                p_conditions={4: notinU({"x": 1})},
            )

    def test_zero_lead_rejected(self):
        with pytest.raises(ValueError):
            SpecialFormula(
                lead_k=0, modulus_m=1, positive_slots=0, negative_slots=0
            )

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(positive_slots=-1), "slot counts must be >= 0"),
            (dict(negative_slots=-1), "slot counts must be >= 0"),
            (dict(p_conditions=[]), "p_conditions must be an object"),
            (dict(p_conditions="2"), "p_conditions must be an object"),
        ],
    )
    def test_slots_and_conditions_checked(self, kw, message):
        args = dict(lead_k=1, modulus_m=1, positive_slots=0, negative_slots=0)
        with pytest.raises(ValueError, match=message):
            SpecialFormula(**{**args, **kw})

    def test_equality_with_other_types(self):
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=1)
        system = GSystem(f, (2,), ())
        for value in (f, system):
            assert value.__eq__(5) is NotImplemented
            assert value != (value.__class__.__name__, 5)
        assert f != system and system != f
        assert f == SpecialFormula(lead_k=1, modulus_m=1, positive_slots=1)
        assert system == GSystem(f, (2,), ())

    def test_shift_system_shape(self):
        sys_ = shift_system([0, 2, 6])
        assert sys_.c == (0, 2, 6)
        assert sys_.c_prime == ()
        assert sys_.formula.positive_slots == 3
        assert sys_.nontrivial

    def test_nontrivial_flag(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=1, negative_slots=1
        )
        assert not GSystem(f, (2,), (2,)).nontrivial
        assert GSystem(f, (2,), (3,)).nontrivial

    def test_holds_at_direct(self):
        sys_ = shift_system([0, 2])
        # 13 and 15 square-free; 48/50 not
        assert holds_at(sys_, 13)
        assert not holds_at(sys_, 48)

    def test_length_mismatch_rejected(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=2, negative_slots=0
        )
        with pytest.raises(ValueError):
            GSystem(f, (1,), ())

    def test_json_round_trip(self):
        f = SpecialFormula(
            lead_k=2,
            modulus_m=3,
            positive_slots=1,
            negative_slots=1,
            p_conditions={5: notinU({"x": 1}, 1), 2: {"op": "true"}},
        )
        sys_ = GSystem(f, (4,), (9,))
        back = GSystem.from_json_dict(to_json(sys_))
        assert back == sys_
        assert back.formula.p_conditions == f.p_conditions
        assert list(to_json(sys_)["formula"]["p_conditions"]) == ["2", "5"]

    def test_cond_json_round_trip(self):
        cond = notinU({"z0": 2, "x": 1}, -1, 3)
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=1,
                           p_conditions={3: cond})
        canonical = notinU({"x": 1, "z0": 2}, -1, 3)
        assert f.p_conditions[3] == canonical
        back = SpecialFormula.from_json_dict(json.loads(json.dumps(to_json(f))))
        assert back.p_conditions[3] == canonical


class TestPSatisfiable:
    def test_single_squarefree_all_small_primes(self):
        sys_ = shift_system([0])
        for p in (2, 3, 5, 7, 11):
            sat, witness = p_satisfiable(sys_, p)
            assert sat
            r, q = witness
            assert q == p * p
            assert r % q != 0

    def test_four_consecutive_blocked_at_two(self):
        sys_ = shift_system([0, 1, 2, 3])
        sat, witness = p_satisfiable(sys_, 2)
        assert not sat and witness is None

    def test_gap_four_fine_at_two(self):
        sat, witness = p_satisfiable(shift_system([0, 4]), 2)
        assert sat
        assert witness == (1, 4)

    def test_theta_condition_respected(self):
        # require x not3divisible on top of square-freeness
        cond = notinU({"x": 1}, 0, 1)
        f = SpecialFormula(
            lead_k=1,
            modulus_m=1,
            positive_slots=1,
            negative_slots=0,
            p_conditions={3: cond},
        )
        sys_ = GSystem(f, (0,), ())
        sat, (r, q) = p_satisfiable(sys_, 3)
        assert sat
        assert r % 3 != 0

    def test_unsatisfiable_theta(self):
        # x in U_{2,1} and x+1 in P1 forces contradiction? no — use
        # directly contradictory theta: x not in U_{2,0} is always false
        cond = notinU({"x": 1}, 0, 0)
        f = SpecialFormula(
            lead_k=1,
            modulus_m=1,
            positive_slots=0,
            negative_slots=0,
            p_conditions={2: cond},
        )
        sys_ = GSystem(f, (), ())
        sat, _ = p_satisfiable(sys_, 2)
        assert not sat

    @pytest.mark.parametrize("p, level, refused", [
        (2, 20, False), (2, 21, True), (1021, 2, False), (1031, 2, True),
        (3, 10**8, True),
    ])
    def test_residue_cap(self, p, level, refused):
        # 2^20 = PSAT_CAP; 1021^2 is just below it and 1031^2 just above.
        # The witness is residue 0, so an admitted scan ends at once.
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=0,
            p_conditions={p: notinU({"x": 1}, 1, level)},
        )
        if refused:
            with pytest.raises(ValueError, match=rf"^p\^L = {p}\^{level} residues "
                               rf"exceed PSAT_CAP {PSAT_CAP}$"):
                p_satisfiable(GSystem(f), p)
        else:
            assert p**level <= PSAT_CAP
            assert p_satisfiable(GSystem(f), p) == (True, (0, p**level))


class TestWindowCount:
    def test_squarefree_1000(self):
        assert count_solutions_window(shift_system([0]), 1000) == 608

    def test_tiny_windows(self):
        sys_ = shift_system([0])
        assert count_solutions_window(sys_, 1) == 0
        assert count_solutions_window(sys_, 2) == 1

    def test_against_direct_evaluation(self):
        rng = random.Random(6)
        for _ in range(10):
            shifts = sorted(rng.sample(range(0, 30), rng.randint(1, 3)))
            sys_ = shift_system(shifts, m=rng.choice([1, 1, 2]))
            t = 400
            direct = sum(1 for x in range(1, t) if holds_at(sys_, x))
            assert count_solutions_window(sys_, t) == direct

    @pytest.mark.parametrize("m", [12, 75, 72])
    def test_pm_bad_mask_matches_in_pm(self, m):
        # m with prime powers: the excluded modulus at p is p^(2 + v_p(m));
        # the sieve clears a mask of ones (positive slots) and sets a mask
        # of zeros (negative slots)
        t = 3000
        # (4, 8): at m = 75, q = 4 divides both k and c, so every a is outside
        for k, c in [(1, 0), (1, 7), (2, -1), (3, 5), (5, -4000), (12, 6), (4, 8)]:
            inside = bytearray(b"\x01") * t
            _sieve_outside_pm(inside, k, c, m, 0)
            outside = bytearray(t)
            _sieve_outside_pm(outside, k, c, m, 1)
            for a in range(1, t):
                want = in_Pm(k * a + c, m)
                assert inside[a] == want and outside[a] == (not want), (k, c, a)

    def test_blocked_system_counts_zero(self):
        sys_ = shift_system([0, 1, 2, 3])
        assert count_solutions_window(sys_, 100000) == 0

    def test_local_soundness_small_corpus(self):
        rng = random.Random(14)
        for _ in range(12):
            shifts = sorted(rng.sample(range(0, 100), rng.randint(2, 4)))
            sys_ = shift_system(shifts)
            blocked = any(
                not p_satisfiable(sys_, p)[0] for p in sympy.primerange(2, 21)
            )
            count = count_solutions_window(sys_, 10**5)
            if blocked:
                assert count == 0
            else:
                assert count > 0

    def test_overflow_names_form(self):
        sys_ = shift_system([3], lead_k=2**60)
        with pytest.raises(OverflowError, match="x \\+ 3"):
            count_solutions_window(sys_, 100)

    def test_random_trees_match_walker(self):
        # and/or/not/true trees, levels 0-4, over x, z* and zp*: windows
        # both shorter and longer than p^L
        rng = random.Random(2024)
        variables = ["x", "z0", "z1", "zp0"]
        checked = 0
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            f = SpecialFormula(
                lead_k=rng.choice([1, 2, -1]), modulus_m=1, positive_slots=2,
                negative_slots=1, p_conditions={p: random_tree(rng, variables)},
            )
            sys_ = GSystem(f, (rng.randint(-9, 9), rng.randint(-9, 9)),
                           (rng.randint(-9, 9),))
            L = max(f.theta_level(p), 1)
            for t in (max(p**L // 2, 2), 2 * p**L + 3):
                k = f.lead_k
                direct = {
                    x for x in range(1, t)
                    if all(in_Pm(k * x + c, 1) for c in sys_.c)
                    and not any(in_Pm(k * x + c, 1) for c in sys_.c_prime)
                    and walk(f.p_conditions[p], p, sys_.assignment(x))
                }
                assert count_solutions_window(sys_, t) == len(direct)
                assert solution_family([sys_], t).members == (direct,)
                checked += bool(direct)
        assert checked > 10

    def test_condition_evaluates_only_window_residues(self, monkeypatch):
        # one level-13 condition at p = 3: 3^13 residues, a window of 30
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=1,
                           p_conditions={3: notinU({"x": 1}, 1, 13)})
        sys_ = GSystem(f, (0,), ())
        calls = []
        real = GSystem.assignment
        monkeypatch.setattr(
            GSystem, "assignment",
            lambda self, x: calls.append(x) or real(self, x),
        )
        got = count_solutions_window(sys_, 30)
        assert len(calls) <= 30
        assert got == sum(1 for x in range(1, 30) if in_Pm(x, 1))

    @pytest.mark.parametrize("level", [0, 1, 19, 20, 21, 22])
    def test_deep_valuations_match_walker(self, level):
        # 3^20 * x + 0: the valuation of every value sits near the level
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=0,
                           p_conditions={3: notinU({"x": 3**20}, 0, level)})
        want = sum(walk(f.p_conditions[3], 3, {"x": x}) for x in range(1, 30))
        assert count_solutions_window(GSystem(f, (), ()), 30) == want

    def test_negative_lead(self):
        # -x + 20 in P1 over 0<x<20
        f = SpecialFormula(
            lead_k=-1, modulus_m=1, positive_slots=1, negative_slots=0
        )
        sys_ = GSystem(f, (20,), ())
        direct = sum(1 for x in range(1, 20) if in_Pm(-x + 20, 1))
        assert count_solutions_window(sys_, 20) == direct


def truncated_product_oracle(B, tail, n, m):
    """One Fraction factor (1 - n/p^(2+v_p(m))) per prime B < p <= tail."""
    prod = Fraction(1)
    if n == 0:
        return prod
    for p in sympy.primerange(B + 1, tail + 1):
        prod *= 1 - Fraction(n, p ** (2 + vp(m, p)))
    return prod


class TestDensityCertificate:
    def test_truncated_product_matches_fraction_loop(self):
        rng = random.Random(20)
        cases = [(3, 10007, 3, 1), (1, 2, 5, 1), (1, 1, 3, 1), (7, 3, 2, 1)]
        cases += [
            (rng.choice([1, 2, 3, 5, 7]), rng.randrange(1, 400), rng.randrange(0, 12),
             rng.choice([1, 2, 4, 6, 12, 18, 25, 30, 49]))
            for _ in range(200)
        ]
        for case in cases:
            assert _truncated_product(*case) == truncated_product_oracle(*case), case

    def test_squarefree_bracket(self):
        cert = density_certificate(shift_system([0]).formula, 10**4)
        assert Fraction(30, 100) <= cert.epsilon_lower
        assert cert.epsilon_upper <= Fraction(305, 1000)
        assert cert.epsilon_lower <= cert.epsilon_upper
        assert (cert.B, cert.D) == (1, 1)

    def test_small_denominators_stay_exact(self):
        cert = density_certificate(shift_system([0]).formula, 7)
        upper = Fraction(1, 2)
        for p in (2, 3, 5, 7):
            upper *= 1 - Fraction(1, p * p)
        assert cert.epsilon_upper == upper
        assert cert.epsilon_lower == upper * (1 - Fraction(2, 7))

    def test_large_head_stays_exact(self):
        # lead_k = 29 puts every prime up to 29 in the head: D > 2^64
        f = shift_system([0], lead_k=29).formula
        cert = density_certificate(f, 31)
        D = math.prod(p * p for p in sympy.primerange(2, 30))
        upper = Fraction(1, 2 * D) * (1 - Fraction(1, 31 * 31))
        assert (cert.B, cert.D) == (29, D)
        assert cert.epsilon_upper == upper
        assert cert.epsilon_lower == upper * (1 - Fraction(2, 31))
        assert cert.epsilon_lower > 0
        assert not cert.degenerate

    def test_moderate_tail_stays_exact(self):
        # the exact ends here have about 1,700 digits
        cert = density_certificate(shift_system([0, 2, 6]).formula, 2000)
        upper = Fraction(1, 2)
        for p in sympy.primerange(2, 2001):
            upper *= 1 - Fraction(3, p * p)
        assert cert.epsilon_upper == upper
        assert cert.epsilon_lower == upper * (1 - Fraction(6, 2000))

    def test_huge_ends_rounded_outward(self):
        cert = density_certificate(shift_system([0, 2, 6]).formula, 10007)
        upper = Fraction(1, 2)
        for p in sympy.primerange(2, 10008):
            upper *= 1 - Fraction(3, p * p)
        lower = upper * (1 - Fraction(6, 10007))
        assert upper.denominator > 10**4300
        for got, exact, up in (
            (cert.epsilon_lower, lower, False),
            (cert.epsilon_upper, upper, True),
        ):
            # 64 significant bits: one step of the grid is 2^(e - 63)
            e = math.floor(math.log2(exact))
            step = Fraction(2) ** (e - 63)
            if up:
                assert exact <= got < exact + step
            else:
                assert exact - step < got <= exact
            assert got.denominator == 2 ** (63 - e)
            assert (got / step).denominator == 1
        assert not cert.degenerate

    def test_tiny_huge_end_keeps_precision(self):
        # a head with D > 2^64 and a tail whose ends need rounding
        f = shift_system([0], lead_k=31).formula
        cert = density_certificate(f, 10007)
        assert cert.D > 2**64
        assert 0 < cert.epsilon_lower < cert.epsilon_upper
        assert cert.epsilon_upper < Fraction(1, 2 * cert.D)
        assert cert.epsilon_upper - cert.epsilon_lower < Fraction(
            1, 2 * cert.D
        ) * Fraction(1, 10**3)
        assert not cert.degenerate

    @pytest.mark.parametrize("level, refused", [(14284, False), (14285, True)])
    def test_head_longer_than_d_digits_refused(self, level, refused):
        # 2^14284 has 4,300 digits, the most Python prints; 2^14285 has one more
        f = SpecialFormula.from_json_dict({
            "lead_k": 1, "modulus_m": 1, "positive_slots": 0,
            "p_conditions": {"2": {
                "op": "notinU", "form": {"coeffs": {"x": 1}, "const": 1},
                "level": level}},
        })
        if refused:
            with pytest.raises(ValueError, match="head prime 2 at level 14285"):
                density_certificate(f, 5)
        else:
            assert density_certificate(f, 5).D == 2**level

    def test_no_slots_gives_half_over_d(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=0, negative_slots=0
        )
        cert = density_certificate(f, 100)
        assert cert.epsilon_lower == cert.epsilon_upper == Fraction(1, 2)

    def test_larger_tail_narrows_bracket(self):
        f = shift_system([0, 2]).formula
        prev_width = None
        for tail in (100, 1000, 10000):
            cert = density_certificate(f, tail, constants=[0, 2])
            width = cert.epsilon_upper - cert.epsilon_lower
            if prev_width is not None:
                assert width < prev_width
            prev_width = width

    def test_error_term_formula(self):
        cert = density_certificate(shift_system([0, 2]).formula, 100,
                                   constants=[0, 2])
        t = 50
        want = (
            math.isqrt(0)
            + math.ceil(math.sqrt(50))
            + math.ceil(math.sqrt(2))
            + math.ceil(math.sqrt(52))
            + 1
        )
        assert cert.error_term(t) == want

    def test_forced_low_cutoff_degenerate(self):
        # the tail bound 1 - 2n/tail_prime = 1 - 10/7 is negative
        sys_ = shift_system([0, 1, 2, 3, 4])
        cert = density_certificate(sys_.formula, 7, constants=list(sys_.c))
        assert cert.degenerate
        assert cert.epsilon_lower == 0 < cert.epsilon_upper

    def test_auto_cutoff_avoids_degeneracy(self):
        sys_ = shift_system([0, 1, 2, 3, 4])
        cert = density_certificate(sys_.formula, 1000, constants=list(sys_.c))
        assert not cert.degenerate
        assert cert.B >= 2

    def test_negative_slots_rejected(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=0, negative_slots=1
        )
        with pytest.raises(ValueError):
            density_certificate(f, 100)

    def test_lower_bound_invariant_seeded(self):
        rng = random.Random(77)
        for _ in range(8):
            shifts = sorted(rng.sample(range(0, 50, 2), 3))
            sys_ = shift_system(shifts)
            cert = density_certificate(sys_.formula, 2000,
                                       constants=list(sys_.c))
            for t in (500, 5000):
                got = count_solutions_window(sys_, t)
                assert got >= cert.epsilon_lower * t - cert.error_term(t)


class TestSolutionFamily:
    def test_family_shape_and_labels(self):
        fam = solution_family([shift_system([0]), shift_system([0, 2])], 50)
        assert fam.n == 2
        assert fam.labels == ("G[0]", "G[1]")
        assert fam.ground_size == 50

    def test_zero_never_included(self):
        fam = solution_family([shift_system([0])], 30)
        assert 0 not in fam.members[0]

    def test_experiment_single_instance(self):
        f = shift_system([0]).formula
        rep = sqf_fhp_experiment(f, [((0,), ())], 1, Fraction(1, 2), 500)
        assert rep.fhp.best_beta == 1
        assert not rep.empty_members

    def test_experiment_obstructed_member_flagged(self):
        f = shift_system([0, 1, 2, 3]).formula
        rep = sqf_fhp_experiment(
            f,
            [((0, 1, 2, 3), ()), ((0, 2, 4, 6), ())],
            2,
            Fraction(1, 4),
            2000,
        )
        assert 0 in rep.empty_members
        assert not rep.all_empty

    def test_experiment_all_empty_flag(self):
        f = shift_system([0, 1, 2, 3]).formula
        rep = sqf_fhp_experiment(f, [((0, 1, 2, 3), ())], 1, Fraction(1, 2), 500)
        assert rep.all_empty


class TestTheoreticalBeta:
    def test_none_without_negative_slots(self):
        f = shift_system([0, 2]).formula
        assert theoretical_beta(f, Fraction(1, 2)) is None

    def test_positive_for_mixed_formula(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=1, negative_slots=1
        )
        beta = theoretical_beta(f, Fraction(1, 2), tail_prime=500)
        assert beta is not None and beta > 0

    def test_negative_slot_condition_positivized(self):
        # zp0 in a condition reads as z2 in the positivized formula
        cond = {"op": "or", "items": [notinU({"zp0": 1, "x": 1}, 1, 2),
                                      {"op": "not", "item": notinU({"z1": 2})}]}
        f = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=2,
                           negative_slots=1, p_conditions={3: cond})
        by_hand = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=3,
            p_conditions={3: {"op": "or", "items": [
                notinU({"x": 1, "z2": 1}, 1, 2),
                {"op": "not", "item": notinU({"z1": 2})}]}},
        )
        alpha, tail = Fraction(1, 3), 300
        delta = density_certificate(by_hand, tail).epsilon_lower / 2
        want = alpha * Fraction(math.factorial(3), 3**3) * delta / (2 * 1 * 3**2)
        assert theoretical_beta(f, alpha, tail_prime=tail) == want
        plain = SpecialFormula(lead_k=1, modulus_m=1, positive_slots=2,
                               negative_slots=1)
        assert theoretical_beta(plain, alpha, tail_prime=tail) != want

    def test_scales_linearly_in_alpha(self):
        f = SpecialFormula(
            lead_k=1, modulus_m=1, positive_slots=2, negative_slots=1
        )
        b1 = theoretical_beta(f, Fraction(1, 4), tail_prime=300)
        b2 = theoretical_beta(f, Fraction(1, 2), tail_prime=300)
        assert b2 == 2 * b1


def dickson_scan(forms, bound):
    """First prime r <= bound at which every residue t mod r is a root of
    some form: the definition, scanned over every prime and residue."""
    for r in sympy.primerange(2, bound + 1):
        if all(any((a * t + b) % r == 0 for a, b in forms) for t in range(r)):
            return False, r
    return True, None


class TestDickson:
    def test_twin_pattern_admissible(self):
        assert dickson_admissible([(1, 0), (1, 2)]) == (True, None)

    def test_consecutive_obstructed_at_two(self):
        assert dickson_admissible([(1, 0), (1, 1)]) == (False, 2)

    def test_arith_progression_obstructed_at_three(self):
        assert dickson_admissible([(1, 0), (1, 2), (1, 4)]) == (False, 3)

    def test_gcd_prime_checked_beyond_form_count(self):
        # single form 5x+5: r=5 divides every value, but 5 > #forms
        assert dickson_admissible([(5, 5)]) == (False, 5)

    def test_zero_leading_rejected(self):
        with pytest.raises(ValueError):
            dickson_admissible([(0, 1)])

    def test_no_forms_rejected(self):
        with pytest.raises(ValueError, match="forms must be nonempty"):
            dickson_admissible([])

    def test_prime_bound_override(self):
        ok, _ = dickson_admissible([(1, 0), (1, 2), (1, 4)], prime_bound=2)
        assert ok  # the r=3 obstruction is outside the forced bound

    @pytest.mark.parametrize("seed", range(20))
    def test_prime_bound_matches_scan_of_every_prime(self, seed):
        rng = random.Random(900 + seed)
        for _ in range(50):
            forms = [(rng.randint(1, 40), rng.randint(-40, 40))
                     for _ in range(rng.randint(1, 6))]
            bound = rng.randint(2, 60)
            assert dickson_admissible(forms, prime_bound=bound) == (
                dickson_scan(forms, bound)
            ), (forms, bound)
