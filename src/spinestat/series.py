"""Exact truncated formal power series and the tree generating functions.

Series here are indexed by total node count i (internal + external), so the
size-n trees sit at index i = 2n+1.  The node-count series N satisfies
N = z + z*N^2, and its coefficients follow from that equation one at a time;
the series of trees with exactly k right-spine segments is z^(k+1) * N^k.
"""

from __future__ import annotations

import math
from collections import namedtuple

# `fractions` is imported inside `PowerSeries.__call__`, which no CLI
# command runs.


class PowerSeries(namedtuple("PowerSeries", "coeffs")):
    """Dense truncated series; coeffs[i] is the coefficient of z^i.  The
    package's one coefficient type, also used as a polynomial: `of` builds
    one, and it can be evaluated and differentiated.

    An immutable one-field tuple, compared and hashed by value; indexing it
    reads coefficients, not the tuple's fields.
    """

    __slots__ = ()

    @staticmethod
    def of(*coeffs) -> PowerSeries:
        """The polynomial with these coefficients, trailing zeros trimmed;
        the coefficients are kept as given, not converted."""
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return PowerSeries(tuple(c))

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def degree(self) -> int:
        """Index of the last stored coefficient: the degree of a polynomial
        built by `of`, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        """Value at x by Horner's rule, exact for an int or Fraction x."""
        from fractions import Fraction

        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> PowerSeries:
        return PowerSeries.of(*(i * c for i, c in enumerate(self.coeffs) if i))


def ps_from(coeffs, degree: int) -> PowerSeries:
    """Series with the given low-order coefficients, zero-padded to degree."""
    c = list(coeffs)[: degree + 1]
    c += [0] * (degree + 1 - len(c))
    return PowerSeries(tuple(c))


def ps_add(a: PowerSeries, b: PowerSeries, degree: int) -> PowerSeries:
    return PowerSeries(tuple(a[i] + b[i] for i in range(degree + 1)))


def ps_mul(a: PowerSeries, b: PowerSeries, degree: int) -> PowerSeries:
    """Cauchy product truncated at degree, exact integer coefficients."""
    out = [0] * (degree + 1)
    acoeffs = a.coeffs[: degree + 1]
    bcoeffs = b.coeffs
    for i, ai in enumerate(acoeffs):
        if not ai:
            continue
        for j, bj in enumerate(bcoeffs[: degree + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return PowerSeries(tuple(out))


def ps_shift(a: PowerSeries, s: int, degree: int) -> PowerSeries:
    """Multiply by z^s, truncated at degree."""
    return PowerSeries(tuple(0 for _ in range(min(s, degree + 1)))
                       + a.coeffs[: max(0, degree + 1 - s)])


def catalan(n: int) -> int:
    """Number of binary trees of size n: binomial(2n, n) / (n+1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def node_gf(degree: int) -> PowerSeries:
    """Truncation of the node-count series N, the solution of N = z + z*N^2.

    Comparing coefficients gives N_1 = 1 and N_i = sum_j N_j * N_(i-1-j):
    each coefficient is a Cauchy-product term of lower ones, so one pass
    computes them in order.  Even coefficients vanish.  The terms for j and
    i-1-j are equal, so each pair is summed once and doubled, and the middle
    term j = (i-1)/2 is a square, present when that j is odd.
    """
    c = [0] * (degree + 1)
    if degree >= 1:
        c[1] = 1
    for i in range(3, degree + 1, 2):
        half = (i - 1) // 2
        pairs = sum(c[j] * c[i - 1 - j] for j in range(1, half, 2))
        c[i] = 2 * pairs + (c[half] ** 2 if half & 1 else 0)
    return PowerSeries(tuple(c))


def spine_gf(k: int, degree: int) -> PowerSeries:
    """Truncation of z^(k+1) * N^k, counting trees with k spine segments
    by total node count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    inner = degree - (k + 1)
    if inner < 0:
        return ps_from([], degree)
    n = node_gf(inner)
    power = ps_from([1], inner)
    for _ in range(k):
        power = ps_mul(power, n, inner)
    return ps_shift(power, k + 1, degree)
