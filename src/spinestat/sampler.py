"""A seeded sampler of spine lengths of uniform random trees, which draws
each spine by inverse CDF from the ballot law's tail in closed form and
builds no tree.  It imports no other spinestat module, so `sample` draws
without loading spinestat.trees and its level fold.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

# `random` is imported inside sample_spines, so importing this module
# does not load it.


def _tails(n: int) -> Iterator[tuple[int, int]]:
    """The spine's tail T(k) = P(spine >= k) of a uniform size-n tree, for
    k = 1..n, as int pairs (num, den): T(1) = 1 and T(k+1) = T(k)(k+2)(n-k)
    / ((k+1)(2n-k)), the ballot law's S_(n+1)^(k+1) / c_n.  The pairs are
    not reduced."""
    num = den = 1
    for k in range(1, n + 1):
        yield num, den
        num *= (k + 2) * (n - k)
        den *= (k + 1) * (2 * n - k)


# The bits of one word of a sample's uniform U.
_WORD_BITS = 64


def _refine(n: int, spine: int, r: int, getrandbits) -> int:
    """The spine of U = r/2^64 + ..., where U < T(k) is decided for the first
    `spine` tails and not yet for the next: each next tail is compared with
    U's interval [r/2^bits, (r+1)/2^bits) in ints, U < T once (r+1) den <=
    num 2^bits and U >= T once r den >= num 2^bits, and a word of U is drawn
    while neither holds."""
    bits = _WORD_BITS
    for num, den in islice(_tails(n), spine, None):
        while (r + 1) * den > num << bits:
            if r * den >= num << bits:
                return spine
            r = r << _WORD_BITS | getrandbits(_WORD_BITS)
            bits += _WORD_BITS
        spine += 1
    return spine


def sample_spines(n: int, samples: int, seed: int) -> Iterator[int]:
    """Spine segment counts of `samples` uniform size-n trees from one seeded
    generator, each drawn by inverse CDF from the ballot law's tail.

    A sample's spine is #{k >= 1 : U < T(k)} for U uniform on [0, 1), with
    T(k) = P(spine >= k) from _tails, so spine >= k exactly when U < T(k).
    Once per call, cuts holds floor(T(k) 2^64) for k = 1.. up to the first
    0, the cut of a tail below 2^-64: every k for n <= 36, where T(n) =
    1/c_n > 2^-64, and fewer from n = 37 on.  A sample draws one word r <
    2^64, the top of U, and counts the cuts above r: r < cut gives U < T,
    and r > cut gives U >= T.  Only r equal to a cut leaves U's place
    against that tail open, r = 0 among them once the list is cut short,
    and then _refine reads further words until it is decided, so nothing
    is rounded.  The tests check the tails against the law of Remy's
    growth followed on the spine (tests/remy.py) and the ballot counts, and
    the draws, word for word, against a Fraction reference.  A negative n
    raises ValueError at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    import random
    from bisect import bisect_right

    getrandbits = random.Random(seed).getrandbits
    cuts = []
    for num, den in _tails(n):
        cuts.append((num << _WORD_BITS) // den)
        if not cuts[-1]:
            break
    cuts.reverse()
    for _ in range(samples):
        r = getrandbits(_WORD_BITS)
        at_most = bisect_right(cuts, r)
        spine = len(cuts) - at_most
        if at_most and cuts[at_most - 1] == r:
            spine = _refine(n, spine, r, getrandbits)
        yield spine
