"""Binary trees as preorder codes: canonical enumeration by a fold over the
sizes, the right spine carried through that fold, the level-to-level growth
step and its inverse on spine-marked codes, and a seeded sampler of spine
lengths of uniform random trees.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.  The tree-level
reference of the growth step, on nested tuples, is tests/treeref.py.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapExceeded, EmptyTree

# `random` is imported inside the sampler, so the commands that do not
# sample do not load it at start-up.

# Exhaustive enumeration above this size (~2.7M trees at 14) is refused
# unless the caller raises the cap explicitly.
DEFAULT_CAP = 14

# Preorder bit encoding of a tree: '1' for internal, '0' for external.
TreeCode = str


def _level(smaller: list[tuple], n: int, leaf, join) -> Iterator:
    """Level n of the fold in canonical order, built from the levels 0..n-1."""
    if n == 0:
        yield leaf
    for i in range(n):
        for left in smaller[i]:
            for right in smaller[n - 1 - i]:
                yield join(left, right)


def _levels(n: int, cap: int, leaf, join) -> Iterator:
    """The levels 0..n of the fold, each built once, in order: the levels
    below n as tuples, which the fold reads to build the levels above, and
    level n as a stream.  An external node becomes `leaf` and an internal
    node `join` of its folded subtrees.

    The levels are built for this call only and released with the last
    stream; the guards raise at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"size {n} exceeds the exhaustive cap {cap}")
    smaller: list[tuple] = []
    for m in range(n):
        smaller.append(tuple(_level(smaller, m, leaf, join)))
        yield smaller[m]
    yield _level(smaller, n, leaf, join)


def enumerate_codes(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeCode]:
    """Yield the preorder code of every tree of size n exactly once, in
    canonical order: left-subtree size ascending, then recursively the same
    rule on the left and then the right subtree.  The last level of _levels.
    """
    for level in _levels(n, cap, "0", lambda left, right: "1" + left + right):
        pass
    yield from level


def unmark(marked: str) -> TreeCode:
    """The preorder code of a spine-marked code: 'R' -> '1', 'T' -> '0'."""
    return marked.replace("R", "1").replace("T", "0")


def _marked_join(left: str, right: str) -> str:
    # unmark(left), inlined: it runs once per code.
    return "R" + left.replace("R", "1").replace("T", "0") + right


def marked_levels(n: int, cap: int = DEFAULT_CAP) -> Iterator:
    """The levels 0..n of enumerate_codes, each folded once, with each code's
    right spine marked: 'R' for an internal node on the spine and 'T' for the
    terminal external node.  The sizes below n come as tuples and size n as
    a stream, as _levels gives them.

    A spine-marked code is 'R' + left subtree's code + right subtree's
    spine-marked code, so one fold carries the spine with the code.
    """
    return _levels(n, cap, "T", _marked_join)


def successor_codes(marked: str) -> list[TreeCode]:
    """The growth step on codes: the codes of the size+1 trees that grow
    from the tree of `marked`, one per spine depth, without building a tree.

    At each node on the right spine (depth 0 .. the spine's segment count,
    the last being the terminal external node) the subtree there is replaced
    by an internal node with the old subtree on the left and an external
    node on the right; the image at depth d has d+1 spine segments.  The
    subtree at a spine node is a suffix of the code, so the image at the
    spine node in position p is code[:p] + '1' + code[p:] + '0'.  The
    tree-level reference is `successors` in tests/treeref.py.
    """
    code = unmark(marked)
    images = []
    p = marked.find("R")
    while p >= 0:
        images.append(code[:p] + "1" + code[p:] + "0")
        p = marked.find("R", p + 1)
    images.append(code[:-1] + "100")  # p = len(code) - 1, the terminal leaf
    return images


def spine_tail(marked: str) -> tuple[int, int]:
    """(position of the last internal node on the right spine, number of
    spine segments) of a spine-marked code of size >= 1: the part of the
    spine that predecessor_code reads."""
    last = marked.rfind("R")
    if last < 0:
        raise EmptyTree("the size-0 tree has no predecessor")
    return last, marked.count("R")


def predecessor_code(code: TreeCode, last: int, segments: int) -> tuple[TreeCode, int]:
    """The inverse of the growth step on codes: (p, d) such that
    successor_codes of p's spine-marked code has `code` at index d.
    (last, segments) is the spine_tail of code's spine-marked form.

    The '1' of the last internal spine node and the final '0' (the terminal
    external node, its right child) are removed.  The tree-level reference
    is `predecessor` in tests/treeref.py.
    """
    return code[:last] + code[last + 1:-1], segments - 1


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
    draw-for-draw reference is `spine_chain` in tests/remy.py, and the tests
    check its law exactly and against every draw sequence of Remy's growth
    to size 5.  u is drawn as random.Random(seed).randrange(2m) draws it:
    getrandbits((2m).bit_length()) until the value is below 2m.  The bounds
    2m = 4k+2 run as one range per bit width, so a sample keeps O(log n)
    state and no per-step list.  A negative n raises ValueError at the
    first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    import random

    getrandbits = random.Random(seed).getrandbits
    runs = []
    bound, top = 2, 4 * n + 2
    while bound < top:
        width = bound.bit_length()
        bounds = range(bound, min(1 << width, top), 4)
        runs.append((width, bounds))
        bound += 4 * len(bounds)
    for _ in range(samples):
        spine, edge = 0, 1  # edge = 2 * spine + 1, the last u that reaches the spine
        for width, bounds in runs:
            for bound in bounds:
                u = getrandbits(width)
                while u >= bound:
                    u = getrandbits(width)
                if u <= edge:
                    spine = u + 1 if u <= spine else spine + 1
                    edge = 2 * spine + 1
        yield spine
