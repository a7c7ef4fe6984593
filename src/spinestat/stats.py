"""Right-spine distributions by four independent routes, and exact averages.

S_n^k denotes the number of size-n trees with exactly k segments on the right
spine.  The four routes:

  * exhaustive  — spine lengths folded over the enumeration, each level once
                  up to the largest size (bounded by the cap),
  * recurrence  — level-to-level suffix sums derived from the growth step,
  * series      — coefficients of z^(k+1) * N^k, by N^(k+1) = N^k / z - N^(k-1),
  * closed      — the ballot-number formula S_n^k = k/(2n-k) * C(2n-k, n-k),
                  its binomials walked along k within each size.

Each route has one entry point, dist_<route>(sizes): it takes a range of
sizes and returns one SpineDistribution per size, in the order of the range.
All agree wherever defined; the test suite holds them against each other.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import accumulate

from . import series
from .errors import DEFAULT_CAP, DomainError
from .series import catalan

# `trees` is imported inside `dist_exhaustive` and `fractions` inside
# `average`, their one users here, so a command that runs neither does not
# load them at start-up.


class SpineDistribution(namedtuple("SpineDistribution", "n counts total")):
    """counts[k-1] = number of size-n trees with k spine segments, k = 1..n,
    and total = c_n.  An immutable tuple, compared and hashed by value."""

    __slots__ = ()

    def count(self, k: int) -> int:
        if not 1 <= k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={k}, n={self.n}")
        return self.counts[k - 1]


def _make(n: int, counts) -> SpineDistribution:
    return SpineDistribution(n=n, counts=tuple(counts), total=catalan(n))


def dist_exhaustive(sizes: range, cap: int = DEFAULT_CAP) -> list[SpineDistribution]:
    """Distributions by one canonical fold up to the largest size, each level
    folded once, each tree one byte holding its spine length: a leaf has 0
    segments, and a join one more than its right subtree.  Each level, or
    each piece of the last, is counted by its count(), once per length.  A
    negative size raises ValueError and a size above the cap CapExceeded,
    before any fold."""
    from . import trees

    if not sizes:
        return []
    if min(sizes) < 0:
        raise ValueError("size must be nonnegative")

    found, top = {}, max(sizes)
    for n, level in enumerate(trees.spine_levels(top, cap)):
        if n in sizes:
            counts = [0] * n
            for piece in level if n == top else (level,):
                counts = [count + piece.count(k) for k, count in enumerate(counts, 1)]
            found[n] = _make(n, counts)
    return [found[n] for n in sizes]


def dist_recurrence(sizes: range) -> list[SpineDistribution]:
    """Distributions by climbing the levels once up to the largest size,
    keeping only the current level and the requested ones.  A negative size
    raises ValueError before the climb."""
    if sizes and min(sizes) < 0:
        raise ValueError("size must be nonnegative")
    # Level n+1 from level n: attaching at spine depth d gives spine d+1,
    # so S_{n+1}^j = sum_{k >= j-1} S_n^k with the j=1 term being the whole
    # level total.  Suffix sums make each level O(n).
    found = {}
    level: list[int] = []
    for n in range(max(sizes, default=-1) + 1):
        if n == 1:
            level = [1]
        elif n > 1:
            suffix = list(accumulate(reversed(level)))
            suffix.reverse()
            level = [suffix[0], *suffix]
        if n in sizes:
            found[n] = _make(n, level)
    return [found[n] for n in sizes]


def dist_series(sizes: range) -> list[SpineDistribution]:
    """Distributions from the generating functions z^(k+1) * N^k.  N = z + z*N^2
    times N^(k-1) gives N^(k+1) = N^k / z - N^(k-1): one shifted subtraction."""
    n_max = max(sizes, default=0)
    counts: dict[int, list[int]] = {n: [] for n in sizes}
    # z^(k+1) * N^k at index 2n+1 is N^k at index 2n-k, so N^k is needed
    # to degree 2*n_max - k only.
    before = [1] + [0] * (2 * n_max)
    power = list(series.node_gf(2 * n_max - 1).coeffs)
    for k in range(1, n_max + 1):
        for n, row in counts.items():
            if n >= k:
                row.append(power[2 * n - k])
        before, power = power, [a - b for a, b in zip(power[1:], before)]
    return [_make(n, counts[n]) for n in sizes]


def dist_closed(sizes: range) -> list[SpineDistribution]:
    """Distributions by the ballot formula, for the requested sizes only.
    Within a size, b = C(2n-k, n-k) starts at C(n, 0) = 1 for k = n, whose
    count is 1, and steps down a k by C(m+1, r+1) = C(m, r) * (m+1)/(r+1);
    both divisions are exact.  The walk stops at the last count, k = 1."""
    dists = []
    for n in sizes:
        counts = [1] if n > 0 else []
        b = 1
        for k in range(n - 1, 0, -1):
            b = b * (2 * n - k) // (n - k)
            counts.append(k * b // (2 * n - k))
        counts.reverse()
        dists.append(_make(n, counts))
    return dists


def average(n: int) -> Fraction:
    """Average spine length of a size-n tree: (c_{n+1} - c_n) / c_n,
    which reduces to 3n/(n+2); tends to 3."""
    from fractions import Fraction

    if n < 1:
        raise DomainError("n must be >= 1")
    return Fraction(catalan(n + 1) - catalan(n), catalan(n))


def render_ratio(num: int, den: int, places: int = 2) -> str:
    """Decimal rendering of num/den (den > 0), round-half-even, without
    reducing the fraction first: scaling num and den by g leaves the quotient
    and scales the remainder by g, so the rounding is the same."""
    sign = "-" if num < 0 else ""
    scaled = abs(num) * 10 ** places
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    digits = render_int(q).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def render_int(value: int) -> str:
    """Decimal digits of an int of any size.

    str() refuses ints longer than sys.get_int_max_str_digits() digits (4300
    by default).  Larger values are split by a power of ten into halves that
    are rendered the same way, so no piece reaches the limit and the limit
    itself stays as it is.
    """
    if value < 0:
        return "-" + render_int(-value)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    # A decimal digit takes log2(10) > 3 bits, so this is under the limit.
    if not limit or value.bit_length() < 3 * limit:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half of the digits
    high, low = divmod(value, 10 ** half)
    return render_int(high) + render_int(low).rjust(half, "0")
