"""Exact truncated formal power series and the tree generating functions.

Series here are indexed by total node count i (internal + external), so the
size-n trees sit at index i = 2n+1.  The node-count series N satisfies
N = z + z*N^2, and its coefficients follow from a two-term recurrence derived
from that equation alone; the series of trees with exactly k right-spine
segments is z^(k+1) * N^k.
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


def catalan(n: int) -> int:
    """Number of binary trees of size n: binomial(2n, n) / (n+1), exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def node_gf(degree: int) -> PowerSeries:
    """Truncation of the node-count series N, the solution of N = z + z*N^2.

    Differentiating the equation gives N'(1 - 2zN) = 1 + N^2, and by the
    equation itself (1 - 2zN)^2 = 1 - 4zN + 4z(N - z) = 1 - 4z^2.  So
    (1 - 4z^2) N' = (1 + N^2)(1 - 2zN); times z, with zN^2 = N - z used
    twice, this is z(1 - 4z^2) N' + N = 2z.  Comparing coefficients of z^i:
    (i+1) N_i = 4(i-2) N_(i-2) + 2[i = 1].  So N_1 = 1, even coefficients
    vanish, and each odd one is 4(i-2)/(i+1) times the one two below, a
    division that is exact because N_i is an integer.
    """
    c = [0] * (degree + 1)
    if degree >= 1:
        c[1] = 1
    for i in range(3, degree + 1, 2):
        c[i] = 4 * (i - 2) * c[i - 2] // (i + 1)
    return PowerSeries(tuple(c))


def spine_gf(k: int, degree: int) -> PowerSeries:
    """Truncation of z^(k+1) * N^k, counting trees with k spine segments
    by total node count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    inner = degree - (k + 1)
    if inner < 0:
        return PowerSeries((0,) * (degree + 1))
    n = power = node_gf(inner)
    for _ in range(k - 1):
        power = ps_mul(power, n, inner)
    return PowerSeries((0,) * (k + 1) + power.coeffs)
