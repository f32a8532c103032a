import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from fhplab import pseudofield
from fhplab._primes import primerange
from fhplab.pseudofield import (
    ARITY_CAP,
    FIELD_CAP,
    FieldStructure,
    colorful_ff_experiment,
    definable_family,
    dim_meas_fit,
    ff_fhp_experiment,
    line_family,
)
from fhplab.formulas import evaluate_formula
from fhplab.setfam import cons_k, max_intersecting

from formula_walker import evaluate_formula as walk_formula


LINE_PHI = ["=", ["var", 1],
            ["+", ["*", ["var", 2], ["var", 0]], ["var", 3]]]


class TestFieldStructure:
    def test_small_primes_construct(self):
        for p in (2, 3, 5, 7, 61):
            f = FieldStructure.for_prime(p)
            assert f.p == p

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            FieldStructure.for_prime(67)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            FieldStructure.for_prime(6)

    def test_cached(self):
        assert FieldStructure.for_prime(7) is FieldStructure.for_prime(7)

    def test_tables_are_field_ops(self):
        f = FieldStructure.for_prime(7)
        add, mul = f.tables()[0]["+"][1], f.tables()[0]["*"][1]
        for a, b in itertools.product(range(7), repeat=2):
            assert add[a][b] == (a + b) % 7
            assert mul[a][b] == (a * b) % 7

    def test_const_index_takes_only_ints(self):
        f = FieldStructure.for_prime(7)
        assert [f.const_index(v) for v in (3, -1, 7, 10**30)] == [3, 6, 0, 10**30 % 7]
        for v in (1.5, 3.0, True, False, "3", None, [1]):
            with pytest.raises(ValueError, match="is not an integer"):
                f.const_index(v)

    def test_tables_built_once(self):
        f = FieldStructure(11)
        assert f.tables() is f.tables()
        assert f.tables()[0]["+"][1] is f.tables()[0]["+"][1]

    def test_tables_verified_on_first_use_only(self, monkeypatch):
        def refuse(p, add, mul):
            raise ArithmeticError(f"field axiom verification failed for p={p}")

        monkeypatch.setattr(pseudofield, "_verify_field_axioms", refuse)
        f = FieldStructure(13)
        assert line_family(f).n == 169
        with pytest.raises(ArithmeticError):
            definable_family(f, LINE_PHI, 2, ["true"], 2)
        with pytest.raises(ArithmeticError):
            f.tables()


def holds(field, formula, point):
    """Truth of formula at one point of F_p^k, passed as the parameter tuple."""
    return evaluate_formula(field, formula, 0, len(point), [point]) == [1]


class TestEvalFormula:
    def test_parabola_point(self):
        F5 = FieldStructure.for_prime(5)
        phi = ["=", ["var", 1], ["*", ["var", 0], ["var", 0]]]
        assert holds(F5, phi, (2, 4))
        assert not holds(F5, phi, (2, 3))

    def test_nonresidue(self):
        F5 = FieldStructure.for_prime(5)
        phi = ["exists", 1, ["=", ["*", ["var", 1], ["var", 1]], ["var", 0]]]
        assert not holds(F5, phi, (2,))
        assert holds(F5, phi, (4,))

    def test_tautology(self):
        F5 = FieldStructure.for_prime(5)
        assert holds(F5, ["=", ["var", 0], ["var", 0]], (3,))


class TestDefinableFamily:
    def test_lines_f5(self):
        F5 = FieldStructure.for_prime(5)
        fam = definable_family(F5, LINE_PHI, 2, ["true"], 2)
        assert fam.n == 25
        assert fam.ground_size == 25
        assert all(len(s) == 5 for s in fam.members)

    def test_single_parameter(self):
        F5 = FieldStructure.for_prime(5)
        psi = ["and", ["=", ["var", 0], ["const", 1]],
               ["=", ["var", 1], ["const", 2]]]
        fam = definable_family(F5, LINE_PHI, 2, psi, 2)
        assert fam.n == 1
        assert fam.labels == ("b=(1, 2)",)

    def test_empty_parameter_set_flagged(self):
        F5 = FieldStructure.for_prime(5)
        fam = definable_family(F5, LINE_PHI, 2, ["false"], 2)
        assert fam.n == 0

    def test_circles_radius_one(self):
        # (x-a)^2 + (y-b)^2 = 1; sizes land in {p-1, p+1} by the
        # quadratic character of -1; constant across centers
        for p, want in ((11, 12), (13, 12), (5, 4), (7, 8)):
            F = FieldStructure.for_prime(p)
            dx = ["-", ["var", 0], ["var", 2]]
            dy = ["-", ["var", 1], ["var", 3]]
            phi = ["=", ["+", ["*", dx, dx], ["*", dy, dy]], ["const", 1]]
            fam = definable_family(F, phi, 2, ["true"], 2)
            assert fam.n == p * p
            assert {len(s) for s in fam.members} == {want}
            assert want in {p - 1, p + 1}

    def test_arity_cap(self):
        F5 = FieldStructure.for_prime(5)
        with pytest.raises(ValueError):
            definable_family(F5, ["true"], 4, ["true"], 1)

    def test_member_content_matches_brute_force(self):
        F7 = FieldStructure.for_prime(7)
        fam = definable_family(F7, LINE_PHI, 2, ["true"], 2)
        # member for b=(a0,b0) is the line y = a0 x + b0 under
        # lexicographic point order (x,y) -> x*7+y
        lab = dict(zip(fam.labels, fam.members))
        line = lab["b=(3, 2)"]
        want = {x * 7 + (3 * x + 2) % 7 for x in range(7)}
        assert line == want


V = [["var", i] for i in range(5)]


def walker_family(field, phi, x_arity, psi, y_arity, e=()):
    """definable_family rebuilt point by point with the reference walker."""
    p = field.p
    params = [
        b for b in itertools.product(range(p), repeat=y_arity)
        if walk_formula(field, psi, dict(enumerate(b + tuple(v % p for v in e))))
    ]
    points = list(itertools.product(range(p), repeat=x_arity))
    members = [
        frozenset(i for i, x in enumerate(points)
                  if walk_formula(field, phi, dict(enumerate(x + b))))
        for b in params
    ]
    return members, [f"b={b}" for b in params]


def field_families():
    """Every family the field-families benchmark can draw, plus check 10's."""
    F = FieldStructure.for_prime
    out = [line_family(F(q)) for q in (7, 11, 13, 17, 19, 23, 31)]
    for c in range(1, 13):
        quad = ["=", ["+", ["*", V[0], V[0]], ["*", ["const", c], ["*", V[1], V[1]]]],
                ["+", ["*", V[2], V[0]], V[3]]]
        out.append(definable_family(F(13), quad, 2, ["true"], 2))
    for c in range(1, 31):
        quad = ["=", ["+", ["*", V[0], V[0]], ["*", ["const", c], ["*", V[1], V[1]]]], V[2]]
        out.append(definable_family(F(31), quad, 2, ["true"], 1))
    for s in range(31):
        ex = ["exists", 2, ["=", ["*", V[2], V[2]], ["+", V[0], ["+", V[1], ["const", s]]]]]
        out.append(definable_family(F(31), ex, 1, ["true"], 1))
    for c in range(1, 13):
        ex = ["exists", 3, ["=", ["*", V[3], V[3]],
                            ["+", V[0], ["*", ["const", c], ["*", V[2], V[1]]]]]]
        out.append(definable_family(F(13), ex, 2, ["true"], 1))
    return out


# SHA-256 of the families above as built by the point-by-point walker
FIELD_FAMILIES_SHA256 = "c7d0f2ecc0bdce30aeb8d335df69fcab3cab01b22799450da12911cd80cbd316"


class TestAgainstWalker:
    def test_pinned_member_digest(self):
        h = hashlib.sha256()
        families = field_families()
        for fam in families:
            doc = [fam.ground_size, list(fam.labels), [sorted(m) for m in fam.members]]
            h.update(json.dumps(doc).encode())
        assert len(families) == 92
        assert h.hexdigest() == FIELD_FAMILIES_SHA256

    @pytest.mark.parametrize("p, phi, xa, psi, ya, e", [
        (5, LINE_PHI, 2, ["true"], 2, ()),
        (7, ["exists", 2, ["=", ["*", V[2], V[2]], ["+", V[0], V[1]]]], 1,
         ["not", ["=", V[0], ["const", 0]]], 1, ()),
        (5, ["forall", 3, ["or", ["=", V[3], V[0]],
                           ["not", ["=", ["*", V[3], V[1]], V[2]]]]], 2,
         ["exists", 2, ["=", ["*", V[2], V[2]], ["-", V[0], V[1]]]], 1, (3,)),
        (3, ["and", ["=", V[0], V[3]], ["exists", 0, ["=", V[0], ["neg", V[4]]]]], 3,
         ["or", ["=", V[0], V[2]], ["forall", 1, ["=", V[1], V[1]]]], 2, (-1,)),
        (2, ["false"], 1, ["true"], 3, ()),
        (5, ["true"], 1, ["false"], 1, ()),
    ])
    def test_members_and_labels_match(self, p, phi, xa, psi, ya, e):
        field = FieldStructure.for_prime(p)
        fam = definable_family(field, phi, xa, psi, ya, e)
        members, labels = walker_family(field, phi, xa, psi, ya, e)
        assert list(fam.members) == members
        assert list(fam.labels) == labels
        assert fam.ground_size == p**xa


class TestLineFamily:
    @pytest.mark.parametrize("p", list(primerange(2, FIELD_CAP + 1)))
    def test_equals_the_evaluator(self, p):
        # definable_family is line_family's oracle
        field = FieldStructure.for_prime(p)
        fam = line_family(field)
        want = definable_family(field, LINE_PHI, 2, ["true"], 2)
        assert fam.masks == want.masks
        assert fam.labels == want.labels
        assert fam.ground_size == want.ground_size == p * p

    @pytest.mark.parametrize("q", [5, 11])
    def test_counts(self, q):
        fam = line_family(FieldStructure.for_prime(q))
        assert fam.n == q * q
        assert all(len(s) == q for s in fam.members)
        assert Fraction(max_intersecting(fam).size, fam.n) == Fraction(1, q)

    def test_cons2_fraction(self):
        q = 11
        fam = line_family(FieldStructure.for_prime(q))
        assert cons_k(fam, 2).fraction == 1 - Fraction(1, q + 1)


class TestDimMeasFit:
    def test_line_count(self):
        fit = dim_meas_fit(5, 5, 2)
        assert (fit.d, fit.mu) == (1, 1)
        assert fit.ok

    def test_full_plane(self):
        fit = dim_meas_fit(25, 5, 2)
        assert (fit.d, fit.mu) == (2, 1)

    def test_zero_count_convention(self):
        fit = dim_meas_fit(0, 7, 2)
        assert (fit.d, fit.mu) == (0, 0)
        assert fit.ok

    def test_size_of_q_to_the_n_capped(self):
        # at the cap: q = 2^9999 has 10000 bits
        assert dim_meas_fit(1, 2**9999, 1).d == 0
        with pytest.raises(ValueError, match="= 10001 exceeds FIT_BITS_CAP 10000"):
            dim_meas_fit(1, 2**10000, 1)
        with pytest.raises(ValueError, match="= 500000 exceeds FIT_BITS_CAP"):
            dim_meas_fit(31, 31, 100000)

    def test_corpus_expected_fits(self):
        # conics, polynomial graphs, and xy=c hypersurfaces all sit at
        # measure-1 curves; xy=0 is the union of two lines.  At p <= 7 the
        # exact zero-residual reading (d=0, mu=count) is also admissible
        # and wins the residual-first selection, so the curve reading must
        # then surface through the ambiguity flag instead.
        for p in (5, 7, 11, 13):
            F = FieldStructure.for_prime(p)
            dx = ["-", ["var", 0], ["var", 2]]
            dy = ["-", ["var", 1], ["var", 3]]
            conic = ["=", ["+", ["*", dx, dx], ["*", dy, dy]], ["const", 1]]
            conic_count = len(
                definable_family(F, conic, 2, ["true"], 2).members[0]
            )
            cubic = ["=", ["var", 1],
                     ["*", ["var", 0], ["*", ["var", 0], ["var", 0]]]]
            cubic_count = sum(
                1 for x in range(p) for y in range(p)
                if holds(F, cubic, (x, y))
            )
            hyper_count = p - 1  # xy = 1
            for count, want_mu in (
                (conic_count, 1),
                (cubic_count, 1),
                (hyper_count, 1),
                (2 * p - 1, 2),  # xy = 0
            ):
                fit = dim_meas_fit(count, p, 2)
                assert fit.ok, (p, count, fit)
                if (fit.d, fit.mu) != (1, want_mu):
                    assert fit.d == 0 and fit.residual == 0, (p, count, fit)
                    assert fit.ambiguous
                curve_residual = abs(count - want_mu * p)
                assert curve_residual**2 <= p ** (2 * 1 - 1), (p, count)

    def test_large_p_pins_curve_reading(self):
        for p in (11, 13):
            assert (dim_meas_fit(p + 1, p, 2).d,
                    dim_meas_fit(p + 1, p, 2).mu) == (1, 1)
            fit0 = dim_meas_fit(2 * p - 1, p, 2)
            assert (fit0.d, fit0.mu) == (1, 2)

    def test_residual_bound_respected(self):
        fit = dim_meas_fit(12, 11, 2, C=Fraction(1))
        assert fit.residual**2 <= fit.mu.denominator**0 * 11 ** (2 * 1 - 1)

    def test_tiny_c_fails_cleanly(self):
        fit = dim_meas_fit(12, 11, 2, C=Fraction(1, 1000))
        assert not fit.ok

    def test_count_above_qn_rejected(self):
        with pytest.raises(ValueError):
            dim_meas_fit(26, 5, 2)


class TestFfExperiment:
    def test_lines_f11(self):
        F11 = FieldStructure.for_prime(11)
        rep = ff_fhp_experiment(
            F11, LINE_PHI, 2, ["true"], 2, (), 2, Fraction(1, 2)
        )
        assert rep.q == 11
        assert rep.fhp.cons.fraction == Fraction(11, 12)
        assert rep.fhp.best_beta == Fraction(1, 11)

    def test_beta_q_scaling(self):
        for q in (5, 7, 13):
            F = FieldStructure.for_prime(q)
            rep = ff_fhp_experiment(
                F, LINE_PHI, 2, ["true"], 2, (), 2, Fraction(1, 2)
            )
            assert rep.fhp.best_beta * q == 1

    def test_k1_fraction_one(self):
        F5 = FieldStructure.for_prime(5)
        rep = ff_fhp_experiment(
            F5, LINE_PHI, 2, ["true"], 2, (), 1, Fraction(1, 2)
        )
        assert rep.fhp.cons.fraction == 1

    def test_empty_parameters_error(self):
        F5 = FieldStructure.for_prime(5)
        with pytest.raises(ValueError):
            ff_fhp_experiment(
                F5, LINE_PHI, 2, ["false"], 2, (), 2, Fraction(1, 2)
            )


class TestColorfulFf:
    def test_two_line_copies_f5(self):
        F5 = FieldStructure.for_prime(5)
        spec = (LINE_PHI, 2, ["true"], 2, ())
        rep = colorful_ff_experiment(F5, [spec, spec], Fraction(1, 2))
        # lines meet unless parallel-and-distinct: 1 - q(q-1)(q-1)/q^4
        assert rep.colorful.fraction == Fraction(21, 25)
        assert len(rep.measures) == 2

    @pytest.mark.parametrize(
        "specs, message",
        [
            ([], "need at least one family spec"),
            ([(LINE_PHI, 2, ["true"], 2, ()), (["true"], 1, ["true"], 1, ())],
             "equal x_arity"),
            ([(LINE_PHI, 2, ["false"], 2, ())], "family 0: parameter set is empty"),
        ],
    )
    def test_refused_specs(self, specs, message):
        F5 = FieldStructure.for_prime(5)
        with pytest.raises(ValueError, match=message):
            colorful_ff_experiment(F5, specs, Fraction(1, 2))

    def test_single_family_degenerate(self):
        F5 = FieldStructure.for_prime(5)
        spec = (LINE_PHI, 2, ["true"], 2, ())
        rep = colorful_ff_experiment(F5, [spec], Fraction(1, 2))
        assert rep.colorful.d == 1

    def test_measure_weights_match_uniform(self):
        F5 = FieldStructure.for_prime(5)
        spec = (LINE_PHI, 2, ["true"], 2, ())
        rep = colorful_ff_experiment(F5, [spec, spec], Fraction(1, 2))
        for meas in rep.measures:
            assert meas.tuple_measure == rep.colorful.fraction
