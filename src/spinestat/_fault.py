"""The pair-by-pair check of one level of checks.bijection, run only when
the check of that level, or of one of its blocks, fails, to name its first
fault.  It fills its own slot table of the whole level, 4^n bytes for level
n+1, where a passing check of the top level holds one block's table at a
time.  Each command imports only the layers it runs, and with no bytecode
cached each start compiles what it imports: as part of checks, this code
would be compiled by every `verify`, a passing one too, where it raised the
child's peak RSS by about 0.4 MB.
"""

from __future__ import annotations

from . import trees
from .checks import _pairs, _Slots

# One 64-bit field of trees._fields.
_FIELD = (1 << 64) - 1


def first_fault(n: int, lower, cap: int):
    """The first fault of level n, as a FAIL triple, in the order a check
    of one pair at a time meets it: a size-(n+1) code that the fold gives
    twice; then, pair by pair in canonical order, an image that is not a
    size-(n+1) code or is one an earlier pair gave; then the first code, in
    canonical order, that no pair gives; then the first pair that the
    inverse does not give back.  None if there is none."""
    width, fold, reached, pairs = 2 * n + 3, set(), set(), []
    *_, pieces = trees.code_levels(n + 1, cap=cap)
    pieces = list(pieces)
    upper = [code for codes, _ in pieces for code in codes]
    slots = _Slots(n)
    slots.block()
    slots.fill(pieces, len(upper))
    for code in upper:
        if slots.of(code, 1) is not None:
            if code in fold:
                return "FAIL", f"bijection n={n}", (
                    f"bijection n={n}: the fold gives the size-{n + 1} code {code:0{width}b} twice")
            fold.add(code)
    spine = trees._fields(lower[1]) | trees._ones(len(lower[0]))
    for codes, nodes, depths in _pairs(lower[0], spine, width - 2):
        images = trees.grow_codes(codes, nodes, len(depths))
        # Field by field, so that no int the step returns is refused.
        pairs += zip(trees._array(codes, len(depths)), depths,
                     (images >> 64 * j & _FIELD for j in range(len(depths))))
    order = {code: index for index, code in enumerate(lower[0])}
    pairs.sort(key=lambda pair: (order[pair[0]], pair[1]))
    for code, depth, image in pairs:
        if image not in fold or image in reached:
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: code {code:0{width - 2}b} at depth {depth} gives image"
                f" {image:0{width}b}, a duplicate or not a size-{n + 1} code")
        reached.add(image)
    for code in upper:
        if code not in reached:
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: no code and depth gives the size-{n + 1} code {code:0{width}b}")
    for code, depth, image in pairs:
        origin, back = slots.inverse(image, 1)
        if (origin, back[0]) != (code, depth):
            # The returned code's width is its own, as its size is in question.
            return "FAIL", f"predecessor round trip n={n + 1}", (
                f"predecessor round trip n={n + 1}: image {image:0{width}b}"
                f" returns ('{origin:b}', {back[0]}), expected ('{code:0{width - 2}b}', {depth})")
    return None
