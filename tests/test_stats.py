import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinestat import series, stats, trees
from spinestat.cli import METHODS
from spinestat.errors import CapExceeded, DomainError
from spinestat.series import catalan, spine_gf
from spinestat.stats import (
    average,
    dist_closed,
    dist_exhaustive,
    dist_recurrence,
    dist_series,
    render_int,
    render_ratio,
)

import treeref


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


def route_named(name):
    """The route `name` as stats holds it now, so a monkeypatch on stats counts."""
    return getattr(stats, f"dist_{name}")


def one_shot(n, k):
    """The ballot count k/(2n-k) * C(2n-k, n-k), by math.comb: the closed
    route's reference."""
    import math

    return k * math.comb(2 * n - k, n - k) // (2 * n - k)


@pytest.fixture
def joins(monkeypatch):
    """The joins of every level fold, len(lefts) * len(rights) per block,
    counted by wrapping the block that trees._levels is given."""
    levels, made = trees._levels, []

    def counted(n, cap, leaf, block, *rest):
        def counted_block(lefts, rights, m, i):
            made.append(len(lefts) * len(rights))
            return block(lefts, rights, m, i)

        return levels(n, cap, leaf, counted_block, *rest)

    monkeypatch.setattr(trees, "_levels", counted)
    return made


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
            expected = Counter(map(treeref.spine_segments, treeref.enumerate_trees(d.n)))
            assert d.counts == tuple(expected[k] for k in range(1, d.n + 1))
            assert sum(expected.values()) == d.total

    def test_folds_each_level_once(self, joins):
        # Levels 0..10 are folded once each: c_1 + ... + c_10 = 23,713 joins.
        assert [d.n for d in dist_exhaustive(range(11), cap=11)] == list(range(11))
        assert sum(joins) == 23_713 == sum(map(catalan, range(1, 11)))

    def test_peak_memory(self):
        # With levels 0..12 as tuples of ints the fold peaked at about
        # 2.4 MiB; with them as bytes it peaks at about 0.3 MiB.
        tracemalloc.start()
        try:
            assert at(dist_exhaustive, 13).total == 742_900
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_range_guards(self, joins):
        # A negative size or one above the cap raises before any fold; an
        # empty range gives no distribution, also one with a negative stop.
        with pytest.raises(ValueError):
            dist_exhaustive(range(-1, 3))
        with pytest.raises(CapExceeded):
            dist_exhaustive(range(3, 16))
        assert dist_exhaustive(range(0)) == dist_exhaustive(range(-4)) == []
        assert joins == []


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

    def test_peak_memory(self):
        # The climb frees each count of level n once it is added into level
        # n+1, so it holds one level: about 1.05 times the returned counts'
        # bytes.  A climb that keeps level n, its suffix sums and their
        # reversed copy alive at once peaks at about 2.06 times them.
        dist_recurrence(range(3))
        tracemalloc.start()
        try:
            [dist] = dist_recurrence(range(1400, 1401))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sys.getsizeof(dist.counts) + sum(map(sys.getsizeof, dist.counts))
        assert dist.total == catalan(1400)
        assert peak < 1.3 * held


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
        assert at(dist_closed, 7).count(4) == one_shot(7, 4) == 48
        assert at(dist_closed, 8).count(6) == one_shot(8, 6) == 27

    def test_right_comb_unique(self):
        for dist in dist_closed(range(1, 40)):
            assert dist.count(dist.n) == one_shot(dist.n, dist.n) == 1

    def test_division_is_exact(self):
        import math

        for n in range(1, 60):
            for k in range(1, n + 1):
                assert k * math.comb(2 * n - k, n - k) % (2 * n - k) == 0

    @pytest.mark.parametrize("sizes", [range(201), range(1402, 1403)])
    def test_walk_matches_one_shot(self, sizes):
        # dist_closed walks the binomials along k; one_shot is the math.comb
        # form of the same count.
        for dist in dist_closed(sizes):
            assert list(dist.counts) == [one_shot(dist.n, k)
                                         for k in range(1, dist.n + 1)]

    @pytest.mark.parametrize("n,k", [(5, 0), (5, 6), (3, -1)])
    def test_domain(self, n, k):
        with pytest.raises(DomainError):
            at(dist_closed, n).count(k)


class TestRouteAgreement:
    def test_all_four_routes_small(self):
        for n in range(12):
            ex = at(dist_exhaustive, n).counts
            assert ex == at(dist_recurrence, n).counts
            assert ex == at(dist_series, n).counts
            assert ex == at(dist_closed, n).counts

    def test_three_routes_to_100(self):
        rec = dist_recurrence(range(101))
        ser = dist_series(range(101))
        for n in range(101):
            assert rec[n].counts == ser[n].counts == at(dist_closed, n).counts


def fraction_reference(n, k):
    """S_n^k / c_n as a Fraction, by math.perm: C(2n-k, n-k) / C(2n, n) is
    the falling factorials n!/(n-k)! over (2n)!/(2n-k)!, so the fraction is
    k(n+1)/(2n-k) times their ratio."""
    import math

    return Fraction(k * (n + 1) * math.perm(n, k), (2 * n - k) * math.perm(2 * n, k))


class TestSpineFractions:
    # Each route at the sizes it reaches in the tests above.
    @pytest.mark.parametrize("route, top", [("exhaustive", 12), ("recurrence", 100),
                                            ("series", 100), ("closed", 100)])
    def test_equals_every_route(self, route, top):
        for dist in route_named(route)(range(top + 1)):
            fractions = stats.spine_fractions(dist.n, dist.n)
            assert [Fraction(num, den) for num, den in fractions] == [
                Fraction(count, dist.total) for count in dist.counts], dist.n

    def test_reference_is_the_ballot_count(self):
        for n in range(1, 60):
            for k in range(1, n + 1):
                assert fraction_reference(n, k) == Fraction(one_shot(n, k), catalan(n))

    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 8, 10 ** 12])
    def test_large_n(self, n):
        fractions = stats.spine_fractions(n, 40)
        assert [Fraction(num, den) for num, den in fractions] == [
            fraction_reference(n, k) for k in range(1, 41)]

    def test_tails_difference(self):
        # P(spine = k) = T(k) - T(k+1), with T(k) = P(spine >= k) from the
        # sampler's own tail recurrence and T(n+1) = 0.
        from spinestat import sampler

        for n in range(65):
            tails = [Fraction(num, den) for num, den in sampler._tails(n)] + [Fraction(0)]
            law = [a - b for a, b in zip(tails, tails[1:])]
            assert [Fraction(num, den) for num, den in stats.spine_fractions(n, n)] == law, n

    def test_prefix_of_the_whole_row(self):
        for n in range(30):
            whole = stats.spine_fractions(n, n)
            assert len(whole) == n
            for k_max in range(n + 1):
                assert stats.spine_fractions(n, k_max) == whole[:k_max]

    @pytest.mark.parametrize("n, k_max", [(5, 6), (5, -1), (0, 1), (-1, -1)])
    def test_domain(self, n, k_max):
        with pytest.raises(DomainError):
            stats.spine_fractions(n, k_max)

    @pytest.mark.parametrize("places", [0, 2, 4, 30])
    def test_renders_the_digits_of_count_over_total(self, places):
        # The pairs are not reduced; render_ratio rounds by value.
        for dist in dist_closed(range(0, 201, 7)):
            for count, pair in zip(dist.counts, stats.spine_fractions(dist.n, dist.n)):
                assert render_ratio(*pair, places) == render_ratio(count, dist.total, places)


class TestRanges:
    @pytest.mark.parametrize("route", sorted(METHODS))
    @pytest.mark.parametrize(
        "sizes",
        [range(0), range(12, 13), range(5, 11), range(3, 12, 4), range(11, -1, -3)],
    )
    def test_range_equals_single_sizes(self, route, sizes):
        dists = route_named(route)(sizes)
        assert [d.n for d in dists] == list(sizes)
        for d in dists:
            assert d == at(route_named(route), d.n)

    @pytest.mark.parametrize("route", sorted(METHODS))
    @pytest.mark.parametrize("sizes", [range(-2, 3), range(-1, 0)])
    def test_negative_size_raises_value_error(self, route, sizes):
        with pytest.raises(ValueError):
            route_named(route)(sizes)


def _refuse(*args, **kwargs):
    raise AssertionError("another route's kernel was called")


class TestRouteIndependence:
    """Each route reproduces the tables with the other routes' kernels
    disabled: series uses only N's functional equation, exhaustive only the
    canonical decomposition and no growth step, recurrence only the growth
    step's suffix sums, and closed only the ballot formula within one size.
    math.comb stays, because the totals come from catalan."""

    KERNELS = {
        "closed": [(stats, "dist_recurrence"), (series, "node_gf"),
                   (series, "ps_mul"), (trees, "_levels")],
        "recurrence": [(stats, "dist_closed"), (stats, "dist_series"), (series, "node_gf"),
                       (series, "ps_mul"), (trees, "_levels")],
        "series": [(series, "ps_mul"), (trees, "_levels"),
                   (stats, "dist_recurrence"), (stats, "dist_closed")],
        "exhaustive": [(trees, "grow_codes"), (trees, "shrink_codes"),
                       (trees, "code_levels"), (trees, "_code_block"),
                       (trees, "_mask_block"), (series, "node_gf"),
                       (stats, "dist_recurrence"), (stats, "dist_closed")],
    }

    @pytest.mark.parametrize("route", sorted(KERNELS))
    def test_tables_without_other_kernels(self, route, monkeypatch):
        for module, name in self.KERNELS[route]:
            monkeypatch.setattr(module, name, _refuse)
        dists = route_named(route)(range(11))
        assert dists[0].counts == ()
        for n in range(1, 11):
            assert list(dists[n].counts) == TABLES[n]


class TestCount:
    @pytest.mark.parametrize("k", [0, -1, 6])
    def test_outside_1_to_n(self, k):
        with pytest.raises(DomainError):
            at(dist_closed, 5).count(k)


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
    """The total number of spine segments over all size-n trees, from the
    recurrence route's counts, is c_(n+1) - c_n."""

    @staticmethod
    def weighted_sum(n):
        return sum(k * c for k, c in enumerate(at(dist_recurrence, n).counts, start=1))

    def test_paper_values(self):
        assert self.weighted_sum(9) == 11934
        assert self.weighted_sum(1) == 1

    def test_n12(self):
        assert self.weighted_sum(12) == 742900 - 208012 == catalan(13) - catalan(12)

    def test_catalan_difference_identity(self):
        for n in range(1, 80):
            assert self.weighted_sum(n) == catalan(n + 1) - catalan(n)

    def test_n0_rejected(self):
        # Size 0 has no spine segment to count: k = 0 is outside 1..n.
        with pytest.raises(DomainError):
            at(dist_recurrence, 0).count(0)


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
