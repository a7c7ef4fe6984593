"""Remy's leaf-insertion sampler of uniform random binary trees, building
the trees, and the spine-length chain it projects to.

`spine_chain` is the draw-for-draw reference of
`spinestat.trees.sample_spines`; the tests check its law against Remy's
growth, which is also their generator of random trees.  Trees are the
nested tuples of treeref.py.
"""

from __future__ import annotations

import random


def grow_random(n: int, rng: random.Random) -> tuple[list[int], list[int], int]:
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


def tree_from_arrays(left: list[int], right: list[int], root: int) -> tuple | None:
    built: dict[int, tuple | None] = {}
    stack = [(root, False)]
    while stack:
        v, ready = stack.pop()
        if left[v] < 0:
            built[v] = None
        elif ready:
            built[v] = (built[left[v]], built[right[v]])
        else:
            stack.append((v, True))
            stack.append((left[v], False))
            stack.append((right[v], False))
    return built[root]


def sample_uniform(n: int, seed: int) -> tuple | None:
    """A uniformly random tree of size n; deterministic for a fixed seed."""
    rng = random.Random(seed)
    return tree_from_arrays(*grow_random(n, rng))


def spine_step(spine: int, u: int) -> int:
    """The spine length after a step that draws u on a spine of `spine`
    segments: u <= L is side 1 at spine index u and leaves u+1 segments;
    L < u <= 2L+1 is side 0 at spine index u-L-1 and leaves L+1; any other
    u grafts off the spine and leaves L."""
    if u <= spine:
        return u + 1
    if u <= 2 * spine + 1:
        return spine + 1
    return spine


def spine_chain(n: int, rng: random.Random) -> int:
    """The right-spine length of Remy's growth to size n, one draw a step:
    step k draws u < 2m over the m = 2k+1 nodes and their two sides."""
    spine = 0
    for k in range(n):
        spine = spine_step(spine, rng.randrange(2 * (2 * k + 1)))
    return spine
