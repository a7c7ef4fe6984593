"""Binary trees: representation, canonical enumeration, right-spine statistics,
the level-to-level growth step and its inverse, and a uniform random sampler.

A tree is either a single external node or an internal node with a left and a
right subtree.  "Size" always means the number of internal nodes; a size-n
tree has n+1 external nodes and 2n+1 nodes in total.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import CapExceeded, EmptyTree, MalformedCode

# `random` is imported inside the samplers, so the commands that do not
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(left={self.left!r}, right={self.right!r})"

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


def _fold(n: int, cap: int, leaf, join) -> Iterator:
    """The trees of size n in canonical order, folded: an external node
    becomes `leaf` and an internal node `join` of its folded subtrees.

    The levels 0..n-1 are built for this call only and released when the
    generator finishes; the guards raise at the first next().
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"size {n} exceeds the exhaustive cap {cap}")
    smaller: list[tuple] = []
    for m in range(n):
        smaller.append(tuple(_level(smaller, m, leaf, join)))
    yield from _level(smaller, n, leaf, join)


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


def successors(t: BinaryTree) -> list[BinaryTree]:
    """All size+1 trees obtained by the growth step.

    For each node on the right spine (depth 0 .. spine_segments(t), the last
    being the terminal external node) the subtree there is replaced by an
    internal node with the old subtree on the left and an external node on
    the right.  The result at spine depth d has d+1 spine segments.
    """
    result = [BinaryTree(t, EXTERNAL)]
    if not t.is_external:
        result.extend(BinaryTree(t.left, s) for s in successors(t.right))
    return result


def predecessor(t: BinaryTree) -> tuple[BinaryTree, int]:
    """Invert the growth step: return (p, d) with successors(p)[d] == t.

    The subtree at the last-but-one node on the right spine is replaced by
    its left subtree.
    """
    if t.is_external:
        raise EmptyTree("the size-0 tree has no predecessor")
    if t.right.is_external:
        return t.left, 0
    p, d = predecessor(t.right)
    return BinaryTree(t.left, p), d + 1


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


def _grow_random(n: int, rng: random.Random) -> tuple[list[int], list[int], int]:
    """Leaf-insertion growth (Remy-style) in array form.

    Returns (left, right, root) child-index arrays; -1 marks an external
    node.  Each step picks a uniform node of the current tree and a side,
    and grafts a new internal node with a fresh leaf there; after n steps
    the result is uniform over all trees of size n.
    """
    left = [-1]
    right = [-1]
    parent = [-1]
    root = 0
    for k in range(n):
        v = rng.randrange(2 * k + 1)
        side = rng.randrange(2)
        a = len(left)      # new internal node
        b = a + 1          # new external node
        p = parent[v]
        if side:
            left.append(v)
            right.append(b)
        else:
            left.append(b)
            right.append(v)
        parent.append(p)
        left.append(-1)
        right.append(-1)
        parent.append(a)
        parent[v] = a
        if p < 0:
            root = a
        elif left[p] == v:
            left[p] = a
        else:
            right[p] = a
    return left, right, root


def _tree_from_arrays(left: list[int], right: list[int], root: int) -> BinaryTree:
    built: dict[int, BinaryTree] = {}
    stack = [(root, False)]
    while stack:
        v, ready = stack.pop()
        if left[v] < 0:
            built[v] = EXTERNAL
        elif ready:
            built[v] = BinaryTree(built[left[v]], built[right[v]])
        else:
            stack.append((v, True))
            stack.append((left[v], False))
            stack.append((right[v], False))
    return built[root]


def sample_uniform(n: int, seed: int) -> BinaryTree:
    """A uniformly random tree of size n; deterministic for a fixed seed."""
    import random

    rng = random.Random(seed)
    return _tree_from_arrays(*_grow_random(n, rng))


def sample_spines(n: int, samples: int, seed: int) -> Iterator[int]:
    """Spine segment counts of `samples` uniform size-n trees from one seeded
    generator: the same values as `samples` successive `_grow_random(n, rng)`
    calls on `random.Random(seed)`, without building the trees.

    Only the right spine of the growth is followed, as the list of node ids
    from the root to the terminal leaf.  Step k grafts node m = 2k+1 (and
    its new leaf m+1) at a uniform node v < m.  If v is at spine index i,
    side 1 cuts the spine to spine[:i] + [m, m+1] and side 0 inserts m
    before v; a v off the spine leaves the spine as it is.

    randrange(m) and randrange(2) are replayed with getrandbits and the same
    rejection loop (Random._randbelow_with_getrandbits draws m.bit_length()
    bits until the value is below m), which skips randrange's Python-level
    argument handling but consumes the generator identically.
    """
    import random

    getrandbits = random.Random(seed).getrandbits
    steps = [(m, m.bit_length()) for m in range(1, 2 * n, 2)]
    for _ in range(samples):
        spine = [0]
        for m, width in steps:
            v = getrandbits(width)
            while v >= m:
                v = getrandbits(width)
            side = getrandbits(2)
            while side > 1:
                side = getrandbits(2)
            if v in spine:
                i = spine.index(v)
                if side:
                    spine[i:] = (m, m + 1)
                else:
                    spine.insert(i, m)
        yield len(spine) - 1
