"""Binary trees: representation, canonical enumeration, right-spine statistics,
the level-to-level growth step and its inverse (on trees and on preorder
codes), and a seeded sampler of spine lengths of uniform random trees.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapExceeded, EmptyTree, MalformedCode

# `random` is imported inside the sampler, so the commands that do not
# sample do not load it at start-up.

# Exhaustive enumeration above this size (~2.7M trees at 14) is refused
# unless the caller raises the cap explicitly.
DEFAULT_CAP = 14

# Preorder bit encoding of a tree: '1' for internal, '0' for external.
TreeCode = str


class BinaryTree:
    """Either an external node (no children) or an internal node (two children).

    Immutable, compared and hashed by value.  The fields are slots, not a
    tuple: attribute loads of slots are specialised by the interpreter, and
    enumeration and encoding read them per node.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: BinaryTree | None = None, right: BinaryTree | None = None) -> None:
        if (left is None) != (right is None):
            raise ValueError("a node has either zero or two children")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # Equality, hash and repr walk the tree with an explicit stack, so no
    # recursion limit bounds its depth.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is b.__class__ and isinstance(a, BinaryTree):
                pairs.append((a.right, b.right))
                pairs.append((a.left, b.left))
            elif not a == b:
                return False
        return True

    def __hash__(self):
        # The hash of (left's hash, right's hash), children first.
        hashes: list = []
        todo = [(self, False)]
        while todo:
            node, ready = todo.pop()
            if ready:
                right = hashes.pop()
                hashes.append(hash((hashes.pop(), right)))
            elif isinstance(node, BinaryTree):
                todo += ((node, True), (node.right, False), (node.left, False))
            else:
                hashes.append(node)
        return hashes[0]

    def __repr__(self):
        # Items are (True, text to emit) or (False, value to render).
        out: list[str] = []
        todo = [(False, self)]
        while todo:
            literal, item = todo.pop()
            if literal:
                out.append(item)
            elif isinstance(item, BinaryTree):
                out.append(f"{item.__class__.__qualname__}(left=")
                todo += ((True, ")"), (False, item.right), (True, ", right="), (False, item.left))
            else:
                out.append(repr(item))
        return "".join(out)

    def __reduce__(self):
        # The default reduce restores slots through __setattr__, which raises.
        return self.__class__, (self.left, self.right)

    @property
    def is_external(self) -> bool:
        return self.left is None


EXTERNAL = BinaryTree()


def size(t: BinaryTree) -> int:
    """Number of internal nodes."""
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.is_external:
            count += 1
            stack.append(node.left)
            stack.append(node.right)
    return count


def spine_segments(t: BinaryTree) -> int:
    """Number of edges on the maximal path of right children from the root."""
    count = 0
    while not t.is_external:
        count += 1
        t = t.right
    return count


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


def _fold(n: int, cap: int, leaf, join) -> Iterator:
    """The trees of size n in canonical order, folded: the last of _levels."""
    for level in _levels(n, cap, leaf, join):
        pass
    yield from level


def enumerate_trees(n: int, cap: int = DEFAULT_CAP) -> Iterator[BinaryTree]:
    """Yield every tree of size n exactly once, in canonical order.

    Canonical order: left-subtree size ascending, then recursively the same
    rule on the left and then the right subtree.
    """
    yield from _fold(n, cap, EXTERNAL, BinaryTree)


def enumerate_codes(n: int, cap: int = DEFAULT_CAP) -> Iterator[TreeCode]:
    """Yield encode(t) for every t of enumerate_trees(n, cap), in the same
    order, without building the trees."""
    yield from _fold(n, cap, "0", lambda left, right: "1" + left + right)


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
    """encode of each tree of successors(decode(unmark(marked))), in the
    same order, without building a tree.

    The subtree at a spine node is a suffix of the code, so the image at the
    spine node in position p is code[:p] + '1' + code[p:] + '0'.
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
    """predecessor on codes: (encode(p), d) for (p, d) = predecessor(t), where
    code = encode(t) and (last, segments) is its spine_tail.

    The '1' of the last internal spine node and the final '0' (the terminal
    external node, its right child) are removed.
    """
    return code[:last] + code[last + 1:-1], segments - 1


def successors(t: BinaryTree) -> list[BinaryTree]:
    """All size+1 trees obtained by the growth step.

    For each node on the right spine (depth 0 .. spine_segments(t), the last
    being the terminal external node) the subtree there is replaced by an
    internal node with the old subtree on the left and an external node on
    the right.  The result at spine depth d has d+1 spine segments.
    A loop walks the spine, so no recursion limit bounds its length.
    """
    result = []
    lefts: list[BinaryTree] = []
    while True:
        image = BinaryTree(t, EXTERNAL)
        for left in reversed(lefts):
            image = BinaryTree(left, image)
        result.append(image)
        if t.is_external:
            return result
        lefts.append(t.left)
        t = t.right


def predecessor(t: BinaryTree) -> tuple[BinaryTree, int]:
    """Invert the growth step: return (p, d) with successors(p)[d] == t.

    The subtree at the last-but-one node on the right spine is replaced by
    its left subtree, and a loop rebuilds the spine above it.
    """
    if t.is_external:
        raise EmptyTree("the size-0 tree has no predecessor")
    lefts: list[BinaryTree] = []
    while not t.right.is_external:
        lefts.append(t.left)
        t = t.right
    p = t.left
    for left in reversed(lefts):
        p = BinaryTree(left, p)
    return p, len(lefts)


def encode(t: BinaryTree) -> TreeCode:
    """Preorder bit encoding: internal -> '1' + left + right, external -> '0'."""
    bits: list[str] = []
    append = bits.append
    stack = [t]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if node.left is None:
            append("0")
        else:
            append("1")
            push(node.right)
            push(node.left)
    return "".join(bits)


def decode(code: TreeCode) -> BinaryTree:
    """Inverse of encode; raises MalformedCode on any invalid bit string."""
    if not code or set(code) - {"0", "1"}:
        raise MalformedCode("code must be a nonempty string of '0'/'1'")
    if code.count("0") != code.count("1") + 1:
        raise MalformedCode("code must have exactly one more '0' than '1's")
    stack: list[BinaryTree] = []
    for bit in reversed(code):
        if bit == "0":
            stack.append(EXTERNAL)
        else:
            if len(stack) < 2:
                raise MalformedCode("prefix condition violated")
            left = stack.pop()
            right = stack.pop()
            stack.append(BinaryTree(left, right))
    if len(stack) != 1:
        raise MalformedCode("prefix condition violated")
    return stack[0]


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
    state and no per-step list.
    """
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
