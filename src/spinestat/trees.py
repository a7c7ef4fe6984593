"""Binary trees as preorder codes: canonical enumeration by one fold over
the sizes, on strings and on int codes with the right spine as a mask, the
growth step and its inverse on those ints, and a seeded sampler of spine
lengths of uniform random trees, which draws the spine after the first
growth steps from its exact law, a table of ints built from the growth
step, and then jumps to each step that may change the spine, by exact waits.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.  The tree-level
reference of the growth step, on nested tuples, is tests/treeref.py.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, chain, repeat

from .errors import CapExceeded

# `random` is imported inside the sampler and `array` inside the int folds,
# so the commands that do not run them do not load them at start-up.

# Exhaustive enumeration above this size (~2.7M trees at 14) is refused
# unless the caller raises the cap explicitly.
DEFAULT_CAP = 14

# Preorder bit encoding of a tree: '1' for internal, '0' for external.
TreeCode = str


# The stored levels are packed: spine counts in bytes, int codes and masks
# in array("Q"), string codes in tuples.  Spine counts are at most n and a
# size-m code has 2m+1 bits, so a fold passes 255 or 64 bits only once it
# holds level 31, c_31 ~ 1.5e16 trees; memory runs out well before that
# (exit 1, "error: out of memory"), so no size is checked.
def _levels(n: int, cap: int, leaf, block, pack) -> Iterator[Iterable]:
    """The levels 0..n of the canonical fold, each built once, in order: the
    levels below n packed by pack(level), which the fold reads to build the
    levels above, and level n as a stream.  Level 0 is (leaf,), and level m
    chains block(lefts, rights, m, i) for i = 0..m-1: the joins of every
    size-i left with every size-(m-1-i) right, left by left.

    The levels are built for this call only and released with the last
    stream; the guards raise at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"size {n} exceeds the exhaustive cap {cap}")
    smaller: list[Sequence] = []
    level = (leaf,)
    for m in range(1, n + 1):
        smaller.append(pack(level))
        yield smaller[-1]
        level = chain.from_iterable(map(block, smaller, reversed(smaller), repeat(m), range(m)))
    yield level


def enumerate_codes(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeCode]:
    """Yield the preorder code of every tree of size n exactly once, in
    canonical order: left-subtree size ascending, then recursively the same
    rule on the left and then the right subtree.  The last level of _levels.
    """
    for level in _levels(n, cap, "0", lambda lefts, rights, m, i: (
            "1" + left + right for left in lefts for right in rights), tuple):
        pass
    yield from level


def _spine_block(lefts: bytes, rights: bytes, m: int, i: int) -> Iterator[int]:
    # A lone left reads the spines once, with no copy as long as a level;
    # more lefts repeat one bytes copy of the block's spines.
    spines = map((1).__add__, rights)
    if len(lefts) == 1:
        return spines
    return chain.from_iterable(repeat(bytes(spines), len(lefts)))


def spine_levels(n: int, cap: int = DEFAULT_CAP) -> Iterator[Iterable[int]]:
    """The levels of _levels as spine segment counts, bytes below m = n and
    a stream at m = n: a leaf has 0 and a join one more than its right
    subtree."""
    return _levels(n, cap, 0, _spine_block, bytes)


def _code_block(lefts: Sequence[int], rights: Sequence[int], m: int, i: int) -> Iterator[int]:
    top, shift = 1 << 2 * m, 2 * (m - i) - 1
    return chain.from_iterable(map((top | left << shift).__or__, rights) for left in lefts)


def _mask_block(lefts: Sequence[int], rights: Sequence[int], m: int, i: int) -> Iterator[int]:
    from array import array

    # One copy of the block's masks, repeated over its lefts: a map per left
    # made the bijection check about 7% slower.
    return chain.from_iterable(repeat(array("Q", map((1 << 2 * m).__or__, rights)), len(lefts)))


def code_levels(n: int, cap: int = DEFAULT_CAP) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
    """The levels of _levels on ints: level m is a pair (codes, masks) of
    parallel arrays of unsigned 64-bit ints ("Q") below m = n, and of
    streams at m = n.  A code holds the 2m+1 preorder bits, the root on top
    (size 0 is 0), and its mask the right spine's internal nodes.  Sizes i
    and r = m-1-i join to top | left << (2r+1) | right and mask
    top | right's mask, top = 1 << 2m: a block shares one array of masks.
    """
    from array import array

    def pack(level):
        return array("Q", level)

    return zip(_levels(n, cap, 0, _code_block, pack), _levels(n, cap, 0, _mask_block, pack))


def successor_codes(code: int, mask: int) -> list[int]:
    """The growth step on int codes: the size+1 codes that grow from
    (code, mask), one per spine depth d from the root to the terminal leaf.
    The subtree at depth d becomes the left child of a new internal node
    with a leaf on its right, giving d+1 spine segments.  At spine bit b
    (the leaf's is 0) the subtree is low = code % above, above = 2 << b,
    and the image 4 code + 2 above - 2 low.  The spine is walked up and
    reversed.  The reference is `successors` in tests/treeref.py.
    """
    images, double, spine = [], code << 1, mask << 1 | 2
    while spine:
        above = spine & -spine
        spine ^= above
        images.append((double + above - code % above) << 1)
    images.reverse()
    return images


def predecessor_code(image: int, bit: int, segments: int) -> tuple[int, int]:
    """The inverse of the growth step on int codes: (p, d) such that
    successor_codes of p has `image` at index d.  `bit` is the lowest set
    bit of image's mask, its last internal spine node, and `segments` the
    mask's bit count.  p drops that bit and bit 0, the leaf on its right:
    image = high * 2b + b + low, b = 1 << bit > low, and p is
    (high * b + low) / 2.  The reference is tests/treeref.py's `predecessor`.
    """
    b = 1 << bit
    return (image - b + image % b) >> 2, segments - 1


# The first _PREFIX steps of a sample are one draw from a table of the
# chain's law, built per call in about _PREFIX^2 int additions; past them
# a sample jumps.  A table 4 times as long costs about 35 times as much
# (0.8 ms at 64 steps, 29 ms at 256), paid even by a call of one sample.
_PREFIX = 64


def _prefix_law(s: int) -> list[int]:
    """The law of the spine L after s steps of sample_spines' chain, as int
    weights of L = 0..s with gcd 1, pushed forward from L = 0 by the step
    rule: out of the 4k+2 draws of step k, L gives each j <= L+1 one (side
    1), L+1 another L+1 (side 0), and keeps the 4k-2L off the spine.  So
    the weight of j after the step sums every weight at L >= j-1, j times
    that at j-1, and 4k-2j times that at j.
    """
    from math import gcd

    weights = [1]
    for k in range(s):
        pushed, tail = [0] * (k + 2), 0
        for spine in range(k, -1, -1):
            weight = weights[spine]
            tail += weight
            pushed[spine + 1] += tail + (spine + 1) * weight
            pushed[spine] += (4 * k - 2 * spine) * weight
        weights = pushed
    common = gcd(*weights)
    return [weight // common for weight in weights]


# The bits of one word of a wait's uniform draw; a wait refines by a word
# until its value is decided.
_WORD_BITS = 64


def _wait(x: int, cap: int, getrandbits) -> int:
    """min(V, cap) for a wait V with P(V >= s) = x/(x+2s), s = 0, 1, ...

    V = ceil(y) - 1 for y = x(1-U)/(2U), U uniform on (0, 1), since
    V >= s iff U < x/(x+2s) iff s < y.  A prefix R of U's words, R < M,
    holds U in [R/M, (R+1)/M), where y runs over (x(M-R-1)/(2(R+1)),
    x(M-R)/(2R)], so V over low = x(M-R-1) // (2(R+1)) to
    (x(M-R)-1) // (2R).  When low >= cap every U there gives cap; when the
    two ends meet every U there gives low; otherwise the next word of U
    is drawn.  A prefix decides a value only when every U it holds gives
    that value, and the undecided mass shrinks to 0, so the result has the
    law of min(V, cap) with no rounding.
    """
    bits = _WORD_BITS
    r, m = getrandbits(bits), 1 << bits
    while True:
        low = x * (m - r - 1) // (2 * (r + 1))
        if low >= cap:
            return cap
        if r and (x * (m - r) - 1) // (2 * r) == low:
            return low
        r = r << bits | getrandbits(bits)
        m <<= bits


def sample_spines(n: int, samples: int, seed: int) -> Iterator[int]:
    """Spine segment counts of `samples` uniform size-n trees from one seeded
    generator, by Remy's growth followed on the spine length alone.

    Step k (k = 0..n-1) grafts onto a tree of m = 2k+1 nodes whose right
    spine has L segments, so L+1 spine nodes.  Remy picks a node v < m and a
    side < 2, each pair with probability 1/(2m).  Side 1 at spine index i
    leaves i+1 segments, side 0 at any spine index leaves L+1, and a v off
    the spine leaves L.  So one uniform u < 2m decides the step:

        u <= L            L = u + 1   (side 1 at spine index u)
        L < u <= 2L + 1   L = L + 1   (side 0 at spine index u - L - 1)
        otherwise         L unchanged (the graft is off the spine)

    Each (spine index, side) pair keeps its probability 1/(2m), so L has
    the law of the spine of a uniform size-n tree, the ballot law.  The
    chain's references are `spine_step` and its exact law `spine_law` in
    tests/remy.py, and the tests check that law against the ballot law and
    the step against every draw sequence of Remy's growth to size 5.

    The first s = min(n, _PREFIX) steps are one draw: _prefix_law(s) is
    the chain's law after them, in ints, and a sample draws r =
    getrandbits(bits) until r is below the weights' total, which is more
    than half of 2^bits, so fewer than two words on average.  L is then
    the first index whose cumulative weight exceeds r, so each L takes
    exactly its weight of the values of r.  For n <= 1 the law is a point
    mass and nothing is drawn.  The tests check _prefix_law against the
    chain pushed forward in exact arithmetic for every s <= 64.

    From step j = _PREFIX on, the sampler jumps to the next step that may
    change L.  L survives step i with probability (2i-L)/(2i+1), and for
    odd L = 2a+1 the product over steps j..t telescopes: of the odd
    numerators 2j-L..2t-L and the odd denominators 2j+1..2t+1, only
    2j-L..2j-1 and 2t-L+2..2t+1 are left:

        prod_{i=j..t} (2i-L)/(2i+1) = prod_{r=0..a} x_r/(x_r+2s),
        x_r = 2j-L+2r, s = t-j+1.

    So the number of steps L survives from j is the minimum of a+1
    independent waits V with P(V >= s) = x_r/(x_r+2s), each drawn exactly
    by _wait and capped at the n-j steps left.  The step that ends the wait
    then changes L, with u uniform below 2L+2 and the rule above.  An even
    L takes the wait of the odd L+1, whose survival is smaller: its step is
    a change of L+1 with probability (2L+4)/(4i+2), and u uniform below
    2L+4 leaves the 2L+2 changes of L, each with probability 1/(4i+2), and
    two values that leave L, so each outcome of the step keeps its
    probability.  The steps are independent given L, so after a step that
    leaves L the next wait starts afresh, and the chain's law is unchanged.
    A jump keeps O(1) state; a sample costs O(log n) draws past the prefix.
    A negative n raises ValueError at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    import random
    from bisect import bisect_right

    getrandbits = random.Random(seed).getrandbits
    prefix = min(n, _PREFIX)
    cumulative = list(accumulate(_prefix_law(prefix)))
    total = cumulative[-1]
    bits = (total - 1).bit_length()
    for _ in range(samples):
        spine = prefix
        if bits:
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            spine = bisect_right(cumulative, r)
        k = _PREFIX
        while k < n:
            odd = spine | 1
            wait = n - k
            for x in range(2 * k - odd, 2 * k, 2):
                wait = _wait(x, wait, getrandbits)
            k += wait
            if k < n:
                bound = 2 * odd + 2
                width = bound.bit_length()
                u = getrandbits(width)
                while u >= bound:
                    u = getrandbits(width)
                if u <= 2 * spine + 1:
                    spine = u + 1 if u <= spine else spine + 1
                k += 1
        yield spine
