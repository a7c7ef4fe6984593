"""Limit behaviour of the spine distribution.

Writing the node-count series as N = z * phi(N) with phi(x) = 1 + x^2, the
characteristic root tau is the smallest positive solution of
phi(x) = x * phi'(x); here tau = 1.  Substituting z = N/(1+N^2) turns the
k-segment series into the rational function N^(2k+1) / (1+N^2)^(k+1), and
its derivative at tau gives the limiting fraction of trees with k spine
segments: k / 2^(k+1).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import series
from .errors import DomainError, NoRoot
from .series import PowerSeries


class RationalFn(namedtuple("RationalFn", "num den")):
    """Quotient of two polynomials; den must not be the zero polynomial.
    An immutable pair of PowerSeries, compared and hashed by value."""

    __slots__ = ()

    def __call__(self, x: Fraction) -> Fraction:
        return self.num(x) / self.den(x)

    def derivative_at(self, x: Fraction) -> Fraction:
        """Quotient rule, evaluated exactly at x."""
        d = self.den(x)
        return (self.num.derivative()(x) * d
                - self.num(x) * self.den.derivative()(x)) / (d * d)


def _exact_sqrt(value: Fraction) -> Fraction | None:
    p, q = value.numerator, value.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def tau(phi: PowerSeries) -> Fraction:
    """Smallest positive root of phi(x) = x * phi'(x), exactly.

    For phi = a0 + a1*x + a2*x^2 the linear terms cancel and the equation is
    a0 - a2*x^2 = 0; the needed case, phi = 1 + x^2, gives tau = 1.  NoRoot
    if there is no positive root; DomainError for phi of degree above 2 or
    an irrational root, neither of which has an exact answer here.
    """
    if phi.degree > 2:
        raise DomainError("tau is solved exactly only for phi of degree <= 2")
    a0, a2 = Fraction(phi[0]), phi[2]
    if a2 == 0 or a0 / a2 <= 0:
        raise NoRoot("phi(x) = x*phi'(x) has no positive root")
    root = _exact_sqrt(a0 / a2)
    if root is None:
        raise DomainError("the positive root of phi(x) = x*phi'(x) is irrational")
    return root


def spine_rational(k: int) -> RationalFn:
    """The k-segment series as a rational function of N:
    N^(2k+1) / (1+N^2)^(k+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = PowerSeries.of(*([0] * (2 * k + 1) + [1]))
    den = PowerSeries.of(*_binomial_even_coeffs(k + 1))
    return RationalFn(num, den)


def _binomial_even_coeffs(power: int) -> list[int]:
    # (1 + x^2)^power: binomial coefficients at even exponents.
    coeffs = [0] * (2 * power + 1)
    for m in range(power + 1):
        coeffs[2 * m] = math.comb(power, m)
    return coeffs


def limit_fraction(k: int) -> Fraction:
    """Limiting fraction of size-n trees with k spine segments, computed by
    differentiating the rational form at the characteristic root.  Equals
    k / 2^(k+1)."""
    root = tau(PowerSeries.of(1, 0, 1))
    return spine_rational(k).derivative_at(root)


def substitution_check(k: int, degree: int) -> bool:
    """Verify, through the truncation degree, that substituting
    z = N/(1+N^2) into the k-segment series yields spine_rational(k) as a
    series in N.  Its denominator has constant term 1, so the composed
    series equals num/den exactly when its product with den equals num."""
    if k < 1:
        raise ValueError("k must be >= 1")
    form = spine_rational(k)
    # z = N/(1+N^2) = N - N^3 + N^5 - ...
    z_of_n = PowerSeries(tuple(i % 2 * (-1) ** (i // 2) for i in range(degree + 1)))

    # Compose the z-series with z := z_of_n (Horner).
    s = series.spine_gf(k, degree)
    lhs = PowerSeries((s[degree],) + (0,) * degree)
    for i in range(degree - 1, -1, -1):
        low, *high = series.ps_mul(lhs, z_of_n, degree).coeffs
        lhs = PowerSeries((low + s[i], *high))
    num = tuple(form.num[i] for i in range(degree + 1))
    return series.ps_mul(lhs, form.den, degree).coeffs == num


def moment_sums(k_max: int) -> tuple[Fraction, Fraction]:
    """Exact partial sums of k/2^(k+1) and k^2/2^(k+1) for k = 1..k_max;
    they tend to 1 and 3."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    first = sum(Fraction(k, 2 ** (k + 1)) for k in range(1, k_max + 1))
    second = sum(Fraction(k * k, 2 ** (k + 1)) for k in range(1, k_max + 1))
    return first, second

