"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact unless a tolerance is stated inline.
"""

import io
import time
from collections import Counter
from fractions import Fraction

from spinestat import cli, sampler, stats
from spinestat.asymptotics import limit_fraction, moment_sums
from spinestat.series import catalan

import treeref

TABLES = {
    1: (1,),
    2: (1, 1),
    3: (2, 2, 1),
    4: (5, 5, 3, 1),
    5: (14, 14, 9, 4, 1),
    6: (42, 42, 28, 14, 5, 1),
    7: (132, 132, 90, 48, 20, 6, 1),
    8: (429, 429, 297, 165, 75, 27, 7, 1),
    9: (1430, 1430, 1001, 572, 275, 110, 35, 8, 1),
    10: (4862, 4862, 3432, 2002, 1001, 429, 154, 44, 9, 1),
}

AVERAGES = {
    1: (1, 1), 2: (3, 2), 3: (9, 5), 4: (28, 14), 5: (90, 42),
    6: (297, 132), 7: (1001, 429), 8: (3432, 1430), 9: (11934, 4862),
    10: (41990, 16796),
}


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} "
              f"({elapsed:.2f}s, budget {self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_tables_all_routes():
    with _Criterion(1, "distribution tables n=1..10 by all four routes", 10):
        for n, expected in TABLES.items():
            assert stats.dist_exhaustive(range(n, n + 1))[0].counts == expected
            assert stats.dist_recurrence(range(n, n + 1))[0].counts == expected
            assert stats.dist_series(range(n, n + 1))[0].counts == expected
            assert stats.dist_closed(range(n, n + 1))[0].counts == expected


def test_criterion_2_averages_exact():
    with _Criterion(2, "averages n=1..10, unreduced fractions", 10):
        for n, (num, den) in AVERAGES.items():
            assert catalan(n + 1) - catalan(n) == num
            assert catalan(n) == den
            assert stats.average(n) == Fraction(num, den)


def test_criterion_3_average_limit():
    with _Criterion(3, "|average(n) - 3| = 6/(n+2) exactly", 5):
        for n in (10, 100, 1000, 10000):
            assert 3 - stats.average(n) == Fraction(6, n + 2)
        assert stats.average(10000) == Fraction(30000, 10002)


def test_criterion_4_limit_fractions_symbolic():
    with _Criterion(4, "limit_fraction(k) = k/2^(k+1) for k=1..64", 1):
        for k in range(1, 65):
            assert limit_fraction(k) == Fraction(k, 2 ** (k + 1))


def test_criterion_5_moment_sums():
    with _Criterion(5, "moment partial sums at K=40 near 1 and 3", 1):
        first, second = moment_sums(40)
        tol = Fraction(1, 10 ** 9)
        assert abs(first - 1) < tol
        assert abs(second - 3) < tol


def test_criterion_6_convergence_n1000():
    with _Criterion(6, "spine fractions at n=1000 within 0.01 of limits", 30):
        dist = stats.dist_recurrence(range(1000, 1001))[0]
        for k in range(1, 11):
            gap = Fraction(dist.count(k), dist.total) - Fraction(k, 2 ** (k + 1))
            assert abs(gap) <= Fraction(1, 100)


def test_criterion_7_construction_bijection():
    with _Criterion(7, "growth-step bijection and inverse for n <= 11", 120):
        for n in range(12):
            images = Counter(
                treeref.encode(s)
                for t in treeref.enumerate_trees(n)
                for s in treeref.successors(t)
            )
            expected = Counter(treeref.encode(u) for u in treeref.enumerate_trees(n + 1))
            assert images == expected
            for u in treeref.enumerate_trees(n + 1):
                p, d = treeref.predecessor(u)
                assert treeref.successors(p)[d] == u


def test_criterion_8_identity_suite():
    with _Criterion(8, "count and segment-sum identities for n <= 300", 30):
        for dist in stats.dist_recurrence(range(1, 301)):
            n = dist.n
            assert sum(dist.counts) == catalan(n)
            weighted = sum(k * c for k, c in enumerate(dist.counts, start=1))
            assert weighted == catalan(n + 1) - catalan(n)


def test_criterion_9_oracle_agreement():
    with _Criterion(9, "closed-form oracle vs the other routes, n <= 300", 120):
        # Admission check: ballot formula against exhaustive counts, n <= 9.
        for n in range(10):
            assert (stats.dist_closed(range(n, n + 1))[0].counts
                    == stats.dist_exhaustive(range(n, n + 1))[0].counts)
        rec = stats.dist_recurrence(range(301))
        ser = stats.dist_series(range(301))
        for n in range(301):
            closed = stats.dist_closed(range(n, n + 1))[0].counts
            assert closed == rec[n].counts == ser[n].counts


def test_criterion_10_sampler():
    with _Criterion(10, "seeded sampler at n=50: frequencies and determinism", 60):
        n, samples, seed = 50, 100000, 42
        observed = Counter(sampler.sample_spines(n, samples, seed))
        exact = stats.dist_recurrence(range(n, n + 1))[0]
        for k in range(1, 6):
            empirical = Fraction(observed.get(k, 0), samples)
            target = Fraction(exact.count(k), exact.total)
            assert abs(empirical - target) < Fraction(1, 100)
        args = ["sample", "--n", str(n), "--samples", str(samples),
                "--seed", str(seed)]
        first, second = io.StringIO(), io.StringIO()
        assert cli.main(args, out=first) == 0
        assert cli.main(args, out=second) == 0
        assert first.getvalue() == second.getvalue()
