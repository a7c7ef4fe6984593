"""Remy's leaf-insertion sampler of uniform random binary trees, building
the trees, and the spine-length chain it projects to.

`spine_step` is one step of the chain and `spine_law` its exact law after n
steps, pushed forward over every draw of every step: the law reference of
`spinestat.sampler.sample_spines`.  `draw_spine` draws from a law's tails in
exact arithmetic, the sampler's reference draw for draw.  The tests check
the chain against Remy's growth, which is also their generator of random
trees.  Trees are the nested tuples of treeref.py.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate


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


@cache
def spine_law(n: int) -> dict[int, Fraction]:
    """The exact law of the spine after n steps of the chain: the law at n-1
    pushed through spine_step over every u < 2m of step n-1, the 2m draws
    over its m = 2n-1 nodes and their two sides, each with probability
    1/(2m)."""
    if n == 0:
        return {0: Fraction(1)}
    bound = 2 * (2 * n - 1)
    law = Counter()
    for spine, p in spine_law(n - 1).items():
        for after, ways in Counter(spine_step(spine, u) for u in range(bound)).items():
            law[after] += p * ways / bound
    return dict(law)


def spine_tails(law: dict[int, Fraction]) -> list[Fraction]:
    """The tails T(k) = P(spine >= k) of `law`, for k = 1..max spine."""
    return list(accumulate(law.get(k, 0) for k in range(max(law), 0, -1)))[::-1]


def draw_spine(law: dict[int, Fraction], getrandbits) -> int:
    """One spine from `law` by inverse CDF, #{k >= 1 : U < T(k)} over its
    tails for U uniform on [0, 1), read in 64-bit words: after b bits U lies
    in [r/2^b, (r+1)/2^b), a word is drawn while a tail lies strictly inside
    that interval, and then every tail is above it or at most its low end.
    At least one word is drawn, for a point mass too."""
    tails = spine_tails(law)
    r, scale = getrandbits(64), 1 << 64
    while any(r < tail * scale < r + 1 for tail in tails):
        r, scale = r << 64 | getrandbits(64), scale << 64
    return sum(r + 1 <= tail * scale for tail in tails)
