from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinestat.series import (
    PowerSeries,
    catalan,
    node_gf,
    ps_mul,
    spine_gf,
)


def padded(coeffs, degree):
    """The series with these low-order coefficients, zero-padded to degree."""
    c = tuple(coeffs)[: degree + 1]
    return PowerSeries(c + (0,) * (degree + 1 - len(c)))


def node_gf_by_cauchy(degree):
    """Coefficients of N = z + z*N^2 by comparing coefficients directly:
    N_1 = 1 and N_i = sum_j N_j * N_(i-1-j), each pair of equal terms
    summed once and doubled.  The reference for node_gf's recurrence."""
    c = [0] * (degree + 1)
    if degree >= 1:
        c[1] = 1
    for i in range(3, degree + 1, 2):
        half = (i - 1) // 2
        pairs = sum(c[j] * c[i - 1 - j] for j in range(1, half, 2))
        c[i] = 2 * pairs + (c[half] ** 2 if half & 1 else 0)
    return PowerSeries(tuple(c))


class TestCatalan:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (5, 42), (10, 16796), (11, 58786)],
    )
    def test_values(self, n, expected):
        assert catalan(n) == expected

    def test_exact_divisibility(self):
        import math

        for n in range(200):
            assert math.comb(2 * n, n) % (n + 1) == 0

    def test_segner_recurrence(self):
        # c_{n+1} = sum_i c_i * c_{n-i}: splitting at the root.
        for n in range(30):
            assert catalan(n + 1) == sum(catalan(i) * catalan(n - i) for i in range(n + 1))

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestPsMul:
    def test_hand_expansion(self):
        one_plus_z = PowerSeries((1, 1, 0))
        assert ps_mul(one_plus_z, one_plus_z, 2).coeffs == (1, 2, 1)

    def test_identity(self):
        a = PowerSeries((3, 0, 7, 5))
        one = PowerSeries((1, 0, 0, 0))
        assert ps_mul(a, one, 3) == a

    def test_square_of_node_series(self):
        n = node_gf(6)
        sq = ps_mul(n, n, 6)
        assert sq[2] == 1 and sq[4] == 2 and sq[6] == 5

    def test_truncation(self):
        a = PowerSeries((0, 1))
        assert ps_mul(a, a, 1).coeffs == (0, 0)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_mul_associative_commutative(self, xs, ys, zs):
        d = 10
        a, b, c = padded(xs, d), padded(ys, d), padded(zs, d)
        assert ps_mul(a, b, d) == ps_mul(b, a, d)
        assert ps_mul(ps_mul(a, b, d), c, d) == ps_mul(a, ps_mul(b, c, d), d)


class TestPsShift:
    """Multiplying by z^s shifts the coefficients up by s, truncated."""

    def test_basic(self):
        a = PowerSeries((1, 2, 3))
        assert ps_mul(PowerSeries((0, 1)), a, 3).coeffs == (0, 1, 2, 3)

    def test_shift_past_degree(self):
        a = PowerSeries((1, 2))
        assert ps_mul(PowerSeries((0,) * 5 + (1,)), a, 1).coeffs == (0, 0)


class TestNodeGf:
    def test_degree_one(self):
        assert node_gf(1)[1] == 1

    def test_low_odd_coefficients(self):
        n = node_gf(9)
        assert [n[i] for i in (1, 3, 5, 7, 9)] == [1, 1, 2, 5, 14]

    def test_degree_21(self):
        assert node_gf(21)[21] == 16796

    def test_even_coefficients_vanish(self):
        n = node_gf(20)
        assert all(n[i] == 0 for i in range(0, 21, 2))

    def test_odd_coefficients_are_catalan(self):
        # Past degree 41 too: the pairs of N_j * N_(i-1-j) are summed once.
        n = node_gf(399)
        for m in range(200):
            assert n[2 * m + 1] == catalan(m)

    def test_fixed_point_self_consistency(self):
        # Substituting back into z + z*N^2 reproduces the series.
        d = 25
        n = node_gf(d)
        z_n_squared = (0,) + ps_mul(n, n, d - 1).coeffs
        combined = PowerSeries(tuple(z_n_squared[i] + (i == 1) for i in range(d + 1)))
        assert combined == n

    def test_equals_cauchy_reference(self):
        assert node_gf(801) == node_gf_by_cauchy(801)
        for d in range(-1, 40):
            assert node_gf(d) == node_gf_by_cauchy(d)

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 8, 25, 200])
    def test_ode(self, d):
        # z(1 - 4z^2) N' + N = 2z, coefficient by coefficient up to z^d.
        n = node_gf(d)
        z_n_prime = ps_mul(PowerSeries((0, 1, 0, -4)), n.derivative(), d)
        assert [z_n_prime[i] + n[i] for i in range(d + 1)] == [2 * (i == 1) for i in range(d + 1)]


class TestSpineGf:
    def test_paper_table_spot_checks(self):
        assert spine_gf(4, 9)[9] == 1
        assert spine_gf(2, 9)[9] == 5
        assert spine_gf(5, 15)[15] == 20

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            spine_gf(0, 5)

    def test_even_coefficients_vanish(self):
        for k in (1, 2, 3):
            s = spine_gf(k, 20)
            assert all(s[i] == 0 for i in range(0, 21, 2))

    def test_sum_over_k_is_catalan(self):
        for n in range(1, 31):
            degree = 2 * n + 1
            total = sum(spine_gf(k, degree)[degree] for k in range(1, n + 1))
            assert total == catalan(n)

    def test_first_two_entries_equal(self):
        # S_n^1 = c_{n-1} (n >= 1) and S_n^2 = c_{n-1} (n >= 2): every paper
        # table opens with two equal counts.
        for n in range(1, 16):
            degree = 2 * n + 1
            assert spine_gf(1, degree)[degree] == catalan(n - 1)
            if n >= 2:
                assert spine_gf(2, degree)[degree] == catalan(n - 1)


class TestAsPolynomial:
    def test_of_keeps_int_coefficients(self):
        p = PowerSeries.of(1, 0, 2, 0)
        assert p.coeffs == (1, 0, 2) and p.degree == 2
        assert all(type(c) is int for c in p.coeffs + p.derivative().coeffs)

    def test_value_at_int_is_an_exact_fraction(self):
        value = PowerSeries.of(1, 0, 1)(3)
        assert type(value) is Fraction and value == 10
        assert PowerSeries.of(1, 2)(Fraction(1, 2)) == 2

    def test_series_functions_return_int_coefficients(self):
        n = node_gf(15)
        results = [n, spine_gf(3, 15), spine_gf(3, 2), ps_mul(n, n, 15)]
        assert all(type(c) is int for r in results for c in r.coeffs)
