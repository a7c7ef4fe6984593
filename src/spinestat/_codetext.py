"""The size-n codes as text, a piece of the int-code fold at a time, for
trees.enumerate_codes and the enumerate command.  Each command imports only
the layers it runs, and with no bytecode cached each start compiles what it
imports: as part of trees, this code would be compiled by `sample` and
`dist --method exhaustive` too, which never enumerate.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

from . import trees


def texts(n: int, cap: int) -> Iterator[str]:
    """The size-n codes in canonical order, a piece at a time of
    trees.code_levels' codes, folded with no masks: each code its 2n+1
    binary digits, root first, and a newline."""
    *_, pieces = trees._code_fold(n, cap, trees._code_block)
    for piece in pieces:
        yield _lines(piece, 2 * n + 1)


def _lines(codes, width: int) -> str:
    """The codes of an array("Q"), each below 2^width, width < 64, as
    `width` binary digits and a newline each, in a fixed number of
    operations: the codes are read as 64-bit fields (trees._fields) with
    code 0 on top, reversed first on a little-endian host, and formatted in
    binary once, so code j's digits end the j-th 64 digits from the left;
    each digit column is copied into a text of newlines with one strided
    slice."""
    count, line = len(codes), width + 1
    if sys.byteorder == "little":
        codes = codes[::-1]
    digits = format(trees._fields(codes), f"0{64 * count}b").encode()
    text = bytearray(b"\n" * (count * line))
    for column in range(width):
        text[column::line] = digits[64 - width + column::64]
    return text.decode()


def batches(n: int, cap: int, batch: int) -> Iterator[str]:
    """The texts of `texts` cut at the whole lines that just pass `batch`
    characters, the lines past the last cut of a piece carried ahead of the
    next one, and the rest at the end."""
    line = 2 * n + 2
    size, rest = (batch // line + 1) * line, ""
    for text in texts(n, cap):
        rest += text
        whole = len(rest) - len(rest) % size
        for start in range(0, whole, size):
            yield rest[start:start + size]
        rest = rest[whole:]
    if rest:
        yield rest
