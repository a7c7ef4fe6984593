"""Binary trees as preorder codes: canonical enumeration by one fold over
the sizes, on strings and on int codes with the right spine as a mask, the
growth step and its inverse on those ints, and a seeded sampler of spine
lengths of uniform random trees, which draws each spine by inverse CDF from
the ballot law's tail in closed form.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.  The tree-level
reference of the growth step, on nested tuples, is tests/treeref.py.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat

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
