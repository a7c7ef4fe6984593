from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinestat import series, stats, trees
from spinestat.errors import CapExceeded, DomainError
from spinestat.series import catalan, spine_gf
from spinestat.stats import (
    ROUTES,
    average,
    dist_closed,
    dist_closed_all,
    dist_exhaustive,
    dist_recurrence,
    dist_series,
    render_int,
    render_ratio,
    weighted_sum,
)

def parse_digits(text):
    """int() of a decimal string of any length, 1000 digits at a time, so
    that no single conversion meets str()/int()'s digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def at(route, n):
    """The distribution of one size by a route that takes a range of sizes."""
    [dist] = route(range(n, n + 1))
    return dist


# The distribution tables for n = 1..10: counts of trees with k = 1..n
# right-spine segments.
TABLES = {
    1: [1],
    2: [1, 1],
    3: [2, 2, 1],
    4: [5, 5, 3, 1],
    5: [14, 14, 9, 4, 1],
    6: [42, 42, 28, 14, 5, 1],
    7: [132, 132, 90, 48, 20, 6, 1],
    8: [429, 429, 297, 165, 75, 27, 7, 1],
    9: [1430, 1430, 1001, 572, 275, 110, 35, 8, 1],
    10: [4862, 4862, 3432, 2002, 1001, 429, 154, 44, 9, 1],
}

# Averages as printed: numerator over unreduced Catalan denominator.
AVERAGES = {
    1: (1, 1),
    2: (3, 2),
    3: (9, 5),
    4: (28, 14),
    5: (90, 42),
    6: (297, 132),
    7: (1001, 429),
    8: (3432, 1430),
    9: (11934, 4862),
    10: (41990, 16796),
}


class TestDistExhaustive:
    @pytest.mark.parametrize("n", [1, 6, 10])
    def test_tables(self, n):
        assert list(at(dist_exhaustive, n).counts) == TABLES[n]

    def test_size_zero(self):
        d = at(dist_exhaustive, 0)
        assert d.counts == () and d.total == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dist_exhaustive(range(15, 16))

    def test_fold_matches_tree_count(self):
        # The fold against counting spine_segments over the built trees.
        for d in dist_exhaustive(range(12)):
            expected = Counter(map(trees.spine_segments, trees.enumerate_trees(d.n)))
            assert d.counts == tuple(expected[k] for k in range(1, d.n + 1))
            assert sum(expected.values()) == d.total


class TestDistRecurrence:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_tables(self, n):
        assert list(at(dist_recurrence, n).counts) == TABLES[n]

    def test_n12_first_entry(self):
        assert at(dist_recurrence, 12).count(1) == 58786 == catalan(11)

    def test_table_helper_consistent(self):
        table = dist_recurrence(range(21))
        for n in range(21):
            assert table[n].counts == at(dist_recurrence, n).counts


class TestDistSeries:
    @pytest.mark.parametrize("n", [1, 7])
    def test_tables(self, n):
        assert list(at(dist_series, n).counts) == TABLES[n]

    def test_n9_k6(self):
        assert at(dist_series, 9).count(6) == 110

    def test_table_helper_consistent(self):
        table = dist_series(range(16))
        for n in range(16):
            assert table[n].counts == at(dist_series, n).counts

    def test_identity_matches_cauchy_powers(self):
        # The three-term identity against spine_gf's truncated products.
        for d in dist_series(range(31)):
            degree = 2 * d.n + 1
            for k in range(1, d.n + 1):
                assert d.count(k) == spine_gf(k, degree)[degree]


class TestDistClosed:
    def test_paper_spot_checks(self):
        assert dist_closed(7, 4) == 48
        assert dist_closed(8, 6) == 27

    def test_right_comb_unique(self):
        for n in range(1, 40):
            assert dist_closed(n, n) == 1

    def test_division_is_exact(self):
        import math

        for n in range(1, 60):
            for k in range(1, n + 1):
                assert k * math.comb(2 * n - k, n - k) % (2 * n - k) == 0

    @pytest.mark.parametrize("sizes", [range(201), range(1402, 1403)])
    def test_walk_matches_one_shot(self, sizes):
        # dist_closed_all walks the binomials along k; dist_closed is the
        # one-shot math.comb form of the same count.
        for dist in dist_closed_all(sizes):
            assert list(dist.counts) == [dist_closed(dist.n, k)
                                         for k in range(1, dist.n + 1)]

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (3, -1)])
    def test_domain(self, n, k):
        with pytest.raises(DomainError):
            dist_closed(n, k)


class TestRouteAgreement:
    def test_all_four_routes_small(self):
        for n in range(12):
            ex = at(dist_exhaustive, n).counts
            assert ex == at(dist_recurrence, n).counts
            assert ex == at(dist_series, n).counts
            assert ex == at(dist_closed_all, n).counts

    def test_three_routes_to_100(self):
        rec = dist_recurrence(range(101))
        ser = dist_series(range(101))
        for n in range(101):
            assert rec[n].counts == ser[n].counts == at(dist_closed_all, n).counts


class TestRanges:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "sizes", [range(0), range(12, 13), range(5, 11), range(3, 12, 4)]
    )
    def test_range_equals_single_sizes(self, route, sizes):
        dists = ROUTES[route](sizes)
        assert [d.n for d in dists] == list(sizes)
        for d in dists:
            assert d == at(ROUTES[route], d.n)


def _refuse(*args, **kwargs):
    raise AssertionError("another route's kernel was called")


class TestRouteIndependence:
    """Each route reproduces the tables with the other routes' kernels
    disabled: series uses only N's functional equation, exhaustive only the
    canonical decomposition, and closed only the ballot formula within one
    size.  math.comb stays, because the totals come from catalan."""

    KERNELS = {
        "closed": [(stats, "dist_recurrence"), (stats, "dist_closed"),
                   (series, "node_gf"), (series, "ps_mul"), (trees, "_fold")],
        "series": [(series, "ps_mul"), (trees, "_fold"),
                   (stats, "dist_recurrence"), (stats, "dist_closed")],
        "exhaustive": [(trees, "BinaryTree"), (trees, "spine_segments"),
                       (trees, "successors"), (series, "node_gf"),
                       (stats, "dist_recurrence"), (stats, "dist_closed")],
    }

    @pytest.mark.parametrize("route", sorted(KERNELS))
    def test_tables_without_other_kernels(self, route, monkeypatch):
        for module, name in self.KERNELS[route]:
            monkeypatch.setattr(module, name, _refuse)
        dists = ROUTES[route](range(11))
        assert dists[0].counts == ()
        for n in range(1, 11):
            assert list(dists[n].counts) == TABLES[n]


class TestCount:
    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_outside_1_to_n(self, k):
        with pytest.raises(DomainError):
            at(dist_closed_all, 5).count(k)


class TestInvariants:
    def test_conservation(self):
        for dist in dist_recurrence(range(1, 121)):
            assert sum(dist.counts) == catalan(dist.n) == dist.total

    def test_monotone_counts(self):
        for dist in dist_recurrence(range(2, 61)):
            assert dist.counts[0] == dist.counts[1]
            for a, b in zip(dist.counts, dist.counts[1:]):
                assert a >= b
            assert dist.counts[-1] == 1


class TestWeightedSum:
    def test_paper_values(self):
        assert weighted_sum(9) == 11934
        assert weighted_sum(1) == 1

    def test_n12(self):
        assert weighted_sum(12) == 742900 - 208012 == catalan(13) - catalan(12)

    def test_catalan_difference_identity(self):
        for n in range(1, 80):
            assert weighted_sum(n) == catalan(n + 1) - catalan(n)

    def test_n0_rejected(self):
        with pytest.raises(DomainError):
            weighted_sum(0)


class TestAverage:
    @pytest.mark.parametrize("n", sorted(AVERAGES))
    def test_paper_fractions(self, n):
        num, den = AVERAGES[n]
        assert average(n) == Fraction(num, den)

    def test_closed_form(self):
        for n in range(1, 2001):
            assert average(n) == Fraction(3 * n, n + 2)

    def test_distance_to_three(self):
        for n in (10, 100, 1000, 10000):
            assert 3 - average(n) == Fraction(6, n + 2)

    def test_n0_rejected(self):
        with pytest.raises(DomainError):
            average(0)


class TestRenderDecimal:
    @pytest.mark.parametrize(
        "num,den,places,expected",
        [
            (90, 42, 2, "2.14"),
            (297, 132, 2, "2.25"),
            (1001, 429, 2, "2.33"),
            (11934, 4862, 2, "2.45"),
            (41990, 16796, 2, "2.50"),
            (1, 1, 2, "1.00"),
            (1, 16796, 6, "0.000060"),
            (-5, 2, 1, "-2.5"),
            (5, 2, 0, "2"),   # round half even, down
            (7, 2, 0, "4"),   # round half even, up
        ],
    )
    def test_values(self, num, den, places, expected):
        f = Fraction(num, den)
        assert render_ratio(f.numerator, f.denominator, places) == expected

    @given(num=st.integers(-10**8, 10**8), den=st.integers(1, 10**8),
           g=st.integers(1, 10**6), places=st.integers(0, 6))
    @example(num=5, den=2, g=7, places=0)      # 35/14 -> "2", half even, down
    @example(num=7, den=2, g=7, places=0)      # 49/14 -> "4", half even, up
    @example(num=-5, den=2, g=7, places=0)     # -35/14 -> "-2"
    @example(num=-7, den=2, g=7, places=0)     # -49/14 -> "-4"
    @example(num=-1, den=8, g=3, places=2)     # -0.125 -> "-0.12"
    @settings(max_examples=300, deadline=None)
    def test_unreduced_ratio(self, num, den, g, places):
        f = Fraction(num, den)
        assert (render_ratio(g * num, g * den, places)
                == render_ratio(f.numerator, f.denominator, places))


class TestRenderInt:
    @pytest.mark.parametrize(
        "value",
        [0, 7, -42, 10**4299, -(10**5000), 10**9000 - 1, 10**9000],
        ids=["0", "7", "-42", "1e4299", "-1e5000", "1e9000-1", "1e9000"],
    )
    def test_matches_digits(self, value):
        text = render_int(value)
        assert parse_digits(text) == value
        assert text.lstrip("-")[0] != "0" or value == 0

    def test_about_1e5_digits(self):
        value = 3**209590  # 100,000 decimal digits
        text = render_int(value)
        assert len(text) == 100000
        assert parse_digits(text) == value
