"""Exact truncated formal power series and the tree generating functions.

Series here are indexed by total node count i (internal + external), so the
size-n trees sit at index i = 2n+1.  The node-count series N satisfies
N = z + z*N^2, and its coefficients follow from that equation one at a time;
the series of trees with exactly k right-spine segments is z^(k+1) * N^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PowerSeries:
    """Dense truncated series; coeffs[i] is the coefficient of z^i."""

    coeffs: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0


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
    computes them in order.  Even coefficients vanish.
    """
    c = [0] * (degree + 1)
    if degree >= 1:
        c[1] = 1
    for i in range(3, degree + 1, 2):
        c[i] = sum(c[j] * c[i - 1 - j] for j in range(1, i - 1, 2))
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
