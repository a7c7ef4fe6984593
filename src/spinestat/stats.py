"""Right-spine distributions by four independent routes, and exact averages.

S_n^k denotes the number of size-n trees with exactly k segments on the right
spine.  The four routes, registered by name in ROUTES:

  * exhaustive  — spine lengths folded over the enumeration (bounded by the cap),
  * recurrence  — level-to-level suffix sums derived from the growth step,
  * series      — coefficients of z^(k+1) * N^k, by N^(k+1) = N^k / z - N^(k-1),
  * closed      — the ballot-number formula S_n^k = k/(2n-k) * C(2n-k, n-k),
                  its binomials walked along k within each size.

Every route takes a range of sizes and returns one SpineDistribution per
size, in the order of the range.
All agree wherever defined; the test suite holds them against each other.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, namedtuple
from itertools import accumulate

from . import series, trees
from .errors import DomainError
from .series import catalan
from .trees import DEFAULT_CAP

# `fractions` is imported inside `average`, its one user here, so the CLI,
# which renders ratios from ints, does not load it at start-up.


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
    """Distributions by direct enumeration; raises CapExceeded above the cap.
    The canonical fold visits each tree once as its spine length: a leaf has
    0 segments, and a join one more than its right subtree."""
    dists = []
    for n in sizes:
        spines = Counter(trees._fold(n, cap, 0, lambda left, right: right + 1))
        dists.append(_make(n, (spines[k] for k in range(1, n + 1))))
    return dists


def dist_recurrence(sizes: range) -> list[SpineDistribution]:
    """Distributions by climbing the levels once up to the largest size,
    keeping only the current level and the requested ones."""
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


def dist_closed(n: int, k: int) -> int:
    """Ballot-number count of size-n trees with k spine segments."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k * math.comb(2 * n - k, n - k) // (2 * n - k)


def dist_closed_all(sizes: range) -> list[SpineDistribution]:
    """Distributions by the ballot formula, for the requested sizes only.
    Within a size, b = C(2n-k, n-k) starts at C(n, 0) = 1 for k = n and steps
    to k-1 by C(m+1, r+1) = C(m, r) * (m+1)/(r+1); both divisions are exact."""
    dists = []
    for n in sizes:
        counts = []
        b = 1
        for k in range(n, 0, -1):
            counts.append(k * b // (2 * n - k))
            b = b * (2 * n - k + 1) // (n - k + 1)
        counts.reverse()
        dists.append(_make(n, counts))
    return dists


# Called as ROUTES[name](sizes, cap=...); the cap only bounds enumeration.
# Each entry looks its route up by module-level name when called, so a
# wrapper installed on that name (a profiler, say) sees registry calls too.
ROUTES = {
    "exhaustive": lambda sizes, cap=DEFAULT_CAP: dist_exhaustive(sizes, cap),
    "recurrence": lambda sizes, cap=None: dist_recurrence(sizes),
    "series": lambda sizes, cap=None: dist_series(sizes),
    "closed": lambda sizes, cap=None: dist_closed_all(sizes),
}


def weighted_sum(n: int) -> int:
    """Total number of spine segments over all size-n trees; equals
    catalan(n+1) - catalan(n)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    [dist] = ROUTES["recurrence"](range(n, n + 1))
    return sum(k * c for k, c in enumerate(dist.counts, start=1))


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
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # A decimal digit takes log2(10) > 3 bits, so this is under the limit.
    if not limit or value.bit_length() < 3 * limit:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half of the digits
    high, low = divmod(value, 10 ** half)
    return render_int(high) + render_int(low).rjust(half, "0")
