"""Exact checks of spinestat command output.

Every expected value is computed here from first principles (`math.comb`
and `fractions.Fraction`), never taken from stored bytes or from the package
under test.  Output is parsed, not compared byte for byte, so a change of
layout that keeps the values (or of the samples drawn for a seed) needs no
edit here.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd


class Mismatch(Exception):
    """The output parsed but disagrees with the exact value."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def ballot(n: int, k: int) -> int:
    """Number of size-n trees with k right-spine segments, 1 <= k <= n."""
    return k * comb(2 * n - k, n - k) // (2 * n - k)


def decimal(value: Fraction, places: int) -> str:
    """`value` to `places` decimals, rounding half to even."""
    digits = str(round(abs(value) * 10**places)).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def limit_fraction(k: int) -> Fraction:
    return Fraction(k, 2 ** (k + 1))


def _options(argv: list[str]) -> tuple[str, dict[str, str]]:
    flags = iter(argv[1:])
    return argv[0], {flag[2:].replace("-", "_"): value for flag, value in zip(flags, flags)}


def _table(out: str, fmt: str, header: list[str]) -> tuple[dict, list[dict]]:
    """(document fields, rows) of csv or json output; rows map column -> str."""
    if fmt == "json":
        doc = json.loads(out)
        return doc, [{key: str(value) for key, value in row.items()} for row in doc["rows"]]
    lines = list(csv.reader(io.StringIO(out)))
    expect(lines[0] == header, f"csv header {lines[0]}")
    return {}, [dict(zip(header, line, strict=True)) for line in lines[1:]]


def check_dist(opts: dict, out: str) -> None:
    n, fmt = int(opts["n"]), opts.get("format", "text")
    places = int(opts.get("precision", 2))
    total = catalan(n)
    if fmt == "text":
        lines = out.splitlines()
        expect(lines[0] == f"n={n} method={opts['method']} total={total}", "text header")
        pairs = [line.split(" x ") for line in lines[1:]]
        rows = [{"k": k, "count": count} for count, k in pairs]
    else:
        doc, rows = _table(out, fmt, ["n", "k", "count", "fraction", "limit"])
        if fmt == "json":
            expect(doc["n"] == n and int(doc["total"]) == total
                   and doc["method"] == opts["method"], "json header")
        expect(all(int(row["n"]) == n for row in rows if "n" in row), "n column")
    expect([int(row["k"]) for row in rows] == list(range(1, n + 1)), "k column")
    counts = [int(row["count"]) for row in rows]
    expect(counts == [ballot(n, k) for k in range(1, n + 1)], "counts differ from the ballot formula")
    expect(sum(counts) == total, "counts do not sum to c_n")
    for k, row in enumerate(rows, start=1):
        if "fraction" in row:
            expect(row["fraction"] == decimal(Fraction(counts[k - 1], total), places),
                   f"fraction k={k}")
            expect(row["limit"] == decimal(limit_fraction(k), places), f"limit k={k}")


def _check_ratio(opts: dict, out: str, value: Fraction) -> None:
    places = int(opts.get("precision", 2))
    if opts.get("format", "text") == "json":
        doc = json.loads(out)
        num, den = int(doc["numerator"]), int(doc["denominator"])
        expect(doc["reduced"] == str(value), "reduced form")
        rendered = doc["decimal"]
    else:
        parts = out.rstrip("\n").split(" = ")
        num, den = map(int, parts[0].split("/"))
        reduced = gcd(num, den) == 1
        expect(len(parts) == (2 if reduced else 3), "ratio chain length")
        expect(reduced or parts[1] == str(value), "reduced form")
        rendered = parts[-1]
    expect(Fraction(num, den) == value, "value")
    expect(rendered == decimal(value, places), "decimal rendering")


def check_average(opts: dict, out: str) -> None:
    n = int(opts["n"])
    _check_ratio(opts, out, Fraction(3 * n, n + 2))


def check_limit(opts: dict, out: str) -> None:
    _check_ratio(opts, out, limit_fraction(int(opts["k"])))


def check_verify(opts: dict, out: str) -> None:
    lines = out.splitlines()
    expect(bool(lines) and all(line.startswith("PASS ") for line in lines), "non-PASS line")


def _is_code(code: str, n: int) -> bool:
    # Preorder code: '1' internal, '0' external; the open count first hits 0
    # at the last bit.
    if len(code) != 2 * n + 1 or code.count("1") != n or code.count("0") != n + 1:
        return False
    return min(accumulate((1 if bit == "1" else -1 for bit in code[:-1]), initial=1)) > 0


def check_enumerate(opts: dict, out: str) -> None:
    n = int(opts["n"])
    codes = out.splitlines()
    expect(len(codes) == catalan(n), f"{len(codes)} codes, c_n = {catalan(n)}")
    expect(len(set(codes)) == len(codes), "duplicate codes")
    expect(all(_is_code(code, n) for code in codes), "invalid code")


def check_sample(opts: dict, out: str) -> None:
    n, samples = int(opts["n"]), int(opts["samples"])
    fmt, places = opts.get("format", "text"), int(opts.get("precision", 4))
    if fmt == "text":
        lines = out.splitlines()
        expect(lines[0] == f"n={n} samples={samples} seed={opts['seed']}", "text header")
        rows = [dict(field.split("=") for field in line.split()) for line in lines[1:]]
    else:
        doc, rows = _table(out, fmt, ["n", "k", "observed", "empirical", "exact", "limit"])
        if fmt == "json":
            expect((doc["n"], doc["samples"], str(doc["seed"])) == (n, samples, opts["seed"]),
                   "json header")
    expect([int(row["k"]) for row in rows] == list(range(1, len(rows) + 1)), "k column")
    observed = [int(row["observed"]) for row in rows]
    expect(sum(observed) == samples and observed[-1] > 0, "observed counts")
    total = catalan(n)
    for k, row in enumerate(rows, start=1):
        exact = Fraction(ballot(n, k), total) if k <= n else Fraction(0)
        expect(row["exact"] == decimal(exact, places), f"exact k={k}")
        expect(row["empirical"] == decimal(Fraction(observed[k - 1], samples), places),
               f"empirical k={k}")
        expect(row["limit"] == decimal(limit_fraction(k), places), f"limit k={k}")


CHECKS = {
    "dist": check_dist,
    "average": check_average,
    "limit": check_limit,
    "verify": check_verify,
    "enumerate": check_enumerate,
    "sample": check_sample,
}


def check(argv: list[str], returncode: int, out: str) -> str | None:
    """None if the command exited 0 with correct output, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    command, opts = _options(argv)
    try:
        CHECKS[command](opts, out)
    except Mismatch as exc:
        return f"wrong output: {exc}"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    return None
