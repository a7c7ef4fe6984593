from fractions import Fraction

import pytest

from spinestat.asymptotics import (
    Poly,
    RationalFn,
    empirical_convergence,
    limit_fraction,
    moment_sums,
    spine_rational,
    substitution_check,
    tau,
)
from spinestat.errors import DomainError, NoRoot
from spinestat.series import catalan


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly.of(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
        assert Poly.of(0, 0).coeffs == ()

    def test_evaluation(self):
        p = Poly.of(1, 0, 1)
        assert p(Fraction(2)) == 5

    def test_derivative(self):
        p = Poly.of(3, 2, 1)  # 3 + 2x + x^2
        assert p.derivative().coeffs == (Fraction(2), Fraction(2))
        assert Poly.of(7).derivative().coeffs == ()


class TestTau:
    def test_tree_case(self):
        assert tau(Poly.of(1, 0, 1)) == 1

    def test_no_root_for_linear(self):
        with pytest.raises(NoRoot):
            tau(Poly.of(1, 1))

    def test_squared_binomial(self):
        # (1+x)^2 = x * 2(1+x) reduces to 1+x = 2x, root 1.
        assert tau(Poly.of(1, 2, 1)) == 1

    def test_no_exact_root_is_domain_error(self):
        # phi = 1 + x^3 has degree 3; phi = 2 + x^2 has tau = sqrt(2).
        with pytest.raises(DomainError):
            tau(Poly.of(1, 0, 0, 1))
        with pytest.raises(DomainError):
            tau(Poly.of(2, 0, 1))


class TestSpineRational:
    def test_k1(self):
        f = spine_rational(1)
        assert f.num.coeffs == (0, 0, 0, 1)
        assert f.den.coeffs == (1, 0, 2, 0, 1)  # (1+x^2)^2

    def test_k2_denominator(self):
        f = spine_rational(2)
        assert f.num.degree == 5
        assert f.den.coeffs == (1, 0, 3, 0, 3, 0, 1)  # (1+x^2)^3

    def test_value_at_one(self):
        assert spine_rational(1)(Fraction(1)) == Fraction(1, 4)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            spine_rational(0)


class TestLimitFraction:
    @pytest.mark.parametrize("k,expected", [(1, Fraction(1, 4)),
                                            (3, Fraction(3, 16)),
                                            (10, Fraction(5, 1024))])
    def test_paper_values(self, k, expected):
        assert limit_fraction(k) == expected

    def test_formula_to_64(self):
        for k in range(1, 65):
            assert limit_fraction(k) == Fraction(k, 2 ** (k + 1))

    def test_matches_central_differences(self):
        # Sanity only: float derivative of the rational form near 1.
        h = 1e-6
        for k in (1, 2, 5):
            f = spine_rational(k)

            def fx(x):
                num = sum(float(c) * x ** i for i, c in enumerate(f.num.coeffs))
                den = sum(float(c) * x ** i for i, c in enumerate(f.den.coeffs))
                return num / den

            approx = (fx(1 + h) - fx(1 - h)) / (2 * h)
            assert abs(approx - float(limit_fraction(k))) < 1e-8


class TestSubstitutionCheck:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_holds_at_degree_20(self, k):
        assert substitution_check(k, 20)

    def test_degree_zero(self):
        assert substitution_check(1, 0)

    def test_degree_twelve(self):
        assert substitution_check(1, 12) and substitution_check(2, 12)


class TestMomentSums:
    def test_single_term(self):
        assert moment_sums(1) == (Fraction(1, 4), Fraction(1, 4))

    def test_three_terms(self):
        assert moment_sums(3) == (Fraction(11, 16), Fraction(21, 16))

    def test_limits_at_40(self):
        first, second = moment_sums(40)
        assert abs(first - 1) < Fraction(1, 10 ** 9)
        assert abs(second - 3) < Fraction(1, 10 ** 9)

    def test_first_sum_closed_form(self):
        for k_max in range(1, 30):
            first, _ = moment_sums(k_max)
            assert first == 1 - Fraction(k_max + 2, 2 ** (k_max + 1))


class TestEmpiricalConvergence:
    def test_n1000_k1(self):
        rows = empirical_convergence(1000, 1)
        assert rows[0][1] == Fraction(catalan(999), catalan(1000)) == Fraction(1001, 3998)

    def test_n10_k10(self):
        rows = empirical_convergence(10, 10)
        assert rows[-1] == (10, Fraction(1, 16796), Fraction(10, 2048))

    def test_n4_k2(self):
        rows = empirical_convergence(4, 2)
        assert rows[1] == (2, Fraction(5, 14), Fraction(1, 4))

    def test_k_max_bounded(self):
        with pytest.raises(ValueError):
            empirical_convergence(3, 4)


def test_rational_fn_derivative_quotient_rule():
    # d/dx (x^2 / (1+x)) at 2 = (2x(1+x) - x^2)/(1+x)^2 = 8/9.
    f = RationalFn(Poly.of(0, 0, 1), Poly.of(1, 1))
    assert f.derivative_at(Fraction(2)) == Fraction(8, 9)
