from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinestat.series import (
    PowerSeries,
    catalan,
    node_gf,
    ps_add,
    ps_from,
    ps_mul,
    ps_shift,
    spine_gf,
)


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
        one_plus_z = ps_from([1, 1], 2)
        assert ps_mul(one_plus_z, one_plus_z, 2).coeffs == (1, 2, 1)

    def test_identity(self):
        a = ps_from([3, 0, 7, 5], 3)
        one = ps_from([1], 3)
        assert ps_mul(a, one, 3) == a

    def test_square_of_node_series(self):
        n = node_gf(6)
        sq = ps_mul(n, n, 6)
        assert sq[2] == 1 and sq[4] == 2 and sq[6] == 5

    def test_truncation(self):
        a = ps_from([0, 1], 1)
        assert ps_mul(a, a, 1).coeffs == (0, 0)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_mul_associative_commutative(self, xs, ys, zs):
        d = 10
        a, b, c = ps_from(xs, d), ps_from(ys, d), ps_from(zs, d)
        assert ps_mul(a, b, d) == ps_mul(b, a, d)
        assert ps_mul(ps_mul(a, b, d), c, d) == ps_mul(a, ps_mul(b, c, d), d)


class TestPsShift:
    def test_basic(self):
        a = ps_from([1, 2, 3], 2)
        assert ps_shift(a, 1, 3).coeffs == (0, 1, 2, 3)

    def test_shift_past_degree(self):
        a = ps_from([1, 2], 1)
        assert ps_shift(a, 5, 1).coeffs == (0, 0)


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
        n = node_gf(41)
        for m in range(21):
            assert n[2 * m + 1] == catalan(m)

    def test_fixed_point_self_consistency(self):
        # Substituting back into z + z*N^2 reproduces the series.
        d = 25
        n = node_gf(d)
        z = ps_from([0, 1], d)
        rhs = ps_shift(ps_mul(n, n, d - 1), 1, d)
        combined = PowerSeries(tuple(z[i] + rhs[i] for i in range(d + 1)))
        assert combined == n


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
        results = [n, spine_gf(3, 15), ps_from([1, 2], 6), ps_add(n, n, 15),
                   ps_mul(n, n, 15), ps_shift(n, 2, 15)]
        assert all(type(c) is int for r in results for c in r.coeffs)
