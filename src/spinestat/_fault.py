"""The pair-by-pair check of one level of checks.bijection, run only when
the check of that level, or of one of its blocks, fails, to name its first
fault.  It shares no code with the check it diagnoses, only trees' public
step and inverse: it keeps level n+1 as one dict of codes and masks and
takes one pair at a time, so it is linear in the level and holds no slot
table.  Each command imports only the layers it runs, and with no bytecode
cached each start compiles what it imports: as part of checks, this code
would be compiled by every `verify`, a passing one too, where it raised the
child's peak RSS by about 0.4 MB.
"""

from __future__ import annotations

from . import trees


def first_fault(n: int, lower, cap: int):
    """The first fault of level n, as a FAIL triple, in the order a check
    of one pair at a time meets it: a size-(n+1) code that the fold gives
    twice; then, pair by pair in canonical order, an image that is not a
    size-(n+1) code or is one an earlier pair gave; then the first code, in
    canonical order, that no pair gives; then the first pair that the
    inverse does not give back.  None if there is none."""
    width, upper, fold, reached = 2 * n + 3, [], {}, set()
    *_, pieces = trees.code_levels(n + 1, cap=cap)
    for codes, masks in pieces:
        for code, mask in zip(codes, masks):
            upper.append(code)
            # A code of the level's one table is a 1, 2n free bits and 00.
            if code >> width - 1 == 1 and not code & 3:
                if code in fold:
                    return "FAIL", f"bijection n={n}", (
                        f"bijection n={n}: the fold gives the size-{n + 1} code {code:0{width}b} twice")
                fold[code] = mask

    def pairs():
        # Level n's pairs (code, depth, image) in canonical order: the codes
        # as stored, and each one's spine nodes (its mask and the terminal
        # leaf) from the root down; the image is read as one 64-bit field.
        for code, mask in zip(*lower):
            spine, depth = mask | 1, 0
            while spine:
                node = 1 << spine.bit_length() - 1
                yield code, depth, trees.grow_codes(code, node, 1) % 2 ** 64
                spine, depth = spine ^ node, depth + 1

    for code, depth, image in pairs():
        if image not in fold or image in reached:
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: code {code:0{width - 2}b} at depth {depth} gives image"
                f" {image:0{width}b}, a duplicate or not a size-{n + 1} code")
        reached.add(image)
    for code in upper:
        if code not in reached:
            return "FAIL", f"bijection n={n}", (
                f"bijection n={n}: no code and depth gives the size-{n + 1} code {code:0{width}b}")
    for code, depth, image in pairs():
        mask = fold[image]
        origin, back = trees.shrink_codes(image, mask & -mask, bytes([mask.bit_count()]))
        if (origin, back[0]) != (code, depth):
            # The returned code's width is its own, as its size is in question.
            return "FAIL", f"predecessor round trip n={n + 1}", (
                f"predecessor round trip n={n + 1}: image {image:0{width}b}"
                f" returns ('{origin:b}', {back[0]}), expected ('{code:0{width - 2}b}', {depth})")
    return None
