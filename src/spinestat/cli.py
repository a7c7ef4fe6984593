"""spinestat command line: distributions, averages, limits, verification,
sampling, and raw enumeration.

Exit codes: 0 success, 1 usage error, 2 enumeration cap exceeded,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from fractions import Fraction

from . import __version__, stats, trees
from .errors import CapExceeded
from .series import catalan
from .stats import render_decimal, render_int
from .trees import DEFAULT_CAP

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

METHODS = tuple(stats.ROUTES)
# verify's enumeration cap: the bijection check climbs to min(max_n, cap-1),
# so this bound, not --max-n, sets its cost once --max-n passes it.
VERIFY_CAP = 11
FORMATS = ("text", "csv", "json")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the documented usage code is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _text(value) -> str:
    """Report text of a value; ints of any length go through render_int."""
    if isinstance(value, int):
        return render_int(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return render_int(value.numerator)
        return f"{render_int(value.numerator)}/{render_int(value.denominator)}"
    return value


def _report(out, fmt, text, meta, columns=None, rows=(), line="") -> int:
    """Write a report in `fmt`; every command with --format ends here.

    `text` is the text format's opening, and `line` a template that renders
    one row as a further text line.  `meta` holds the json document's fields
    ahead of the version.  A table report names its `columns`, the keys of
    each row; its csv form puts the document's n in front of every row, and
    its json form ends with the rows.  A report without columns has no csv
    form and prints its text instead.  Ints and Fractions are rendered by
    `_text`, so no size of number meets str()'s digit limit.
    """
    if fmt == "json":
        doc = {**meta, "version": __version__}
        if columns is not None:
            doc["rows"] = rows
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif fmt == "csv" and columns is not None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", *columns])
        for row in rows:
            writer.writerow([_text(meta["n"]), *(_text(row[c]) for c in columns)])
    else:
        print(text, file=out)
        for row in rows:
            print(line.format_map({c: _text(v) for c, v in row.items()}), file=out)
    return EXIT_OK


def _limit_str(k: int, places: int) -> str:
    return render_decimal(Fraction(k, 2 ** (k + 1)), places)


def cmd_dist(args, out) -> int:
    try:
        [dist] = stats.ROUTES[args.method](range(args.n, args.n + 1), cap=args.cap)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    places, total = args.precision, _text(dist.total)
    text = f"n={dist.n} method={args.method} total={total}"
    if dist.n == 0:
        text += "\n(size 0: the single external node, no spine segments)"
    rows = [
        {"k": k, "count": _text(c),
         "fraction": render_decimal(Fraction(c, dist.total), places),
         "limit": _limit_str(k, places)}
        for k, c in enumerate(dist.counts, start=1)
    ]
    meta = {"n": dist.n, "total": total, "method": args.method}
    return _report(out, args.format, text, meta, ("k", "count", "fraction", "limit"),
                   rows, "{count} x {k}")


def _ratio(args, out, head: dict, raw_num: int, raw_den: int) -> int:
    # Text is "<raw> = <reduced> = <decimal>", dropping the middle form when
    # the raw fraction is already reduced.
    value = Fraction(raw_num, raw_den)
    num, den, decimal = _text(raw_num), _text(raw_den), render_decimal(value, args.precision)
    parts = [f"{num}/{den}"]
    if (value.numerator, value.denominator) != (raw_num, raw_den):
        parts.append(_text(value))
    meta = {**head, "numerator": num, "denominator": den, "reduced": _text(value),
            "decimal": decimal}
    return _report(out, args.format, " = ".join([*parts, decimal]), meta)


def cmd_average(args, out) -> int:
    if args.n < 1:
        print("error: --n must be >= 1 for average", file=sys.stderr)
        return EXIT_USAGE
    n = args.n
    # The raw Catalan-difference numerator has ~0.6*n digits; from c_n >= 10^18
    # on, that is n >= 35 (c_34 < 10^18 <= c_35), the equivalent 3n/(n+2)
    # form reads better.
    if n <= 34:
        c = catalan(n)
        return _ratio(args, out, {"n": n}, catalan(n + 1) - c, c)
    return _ratio(args, out, {"n": n}, 3 * n, n + 2)


def cmd_limit(args, out) -> int:
    if args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    return _ratio(args, out, {"k": args.k}, args.k, 2 ** (args.k + 1))


def cmd_enumerate(args, out) -> int:
    try:
        for code in trees.enumerate_codes(args.n, cap=args.cap):
            print(code, file=out)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    return EXIT_OK


def _check_bijection(max_n: int, cap: int) -> tuple[str, str]:
    """Check, for each n up to min(max_n, cap - 1), that the growth step maps
    the pairs (t, d) of a size-n tree and a spine depth one to one onto the
    size-(n+1) trees and that predecessor inverts it, in one pass over the
    images: each image's code is struck from the unseen size-(n+1) codes,
    none may be left, and predecessor must give back (t, d).

    Given the bijection, predecessor undoing every growth step is the same
    as successors(p)[d] == u, (p, d) = predecessor(u), for every size-(n+1)
    tree u, so that verdict keeps the label n+1.  A level's bijection
    verdict comes before its round trip verdict.
    """
    label = "bijection and predecessor round trip"
    top = min(max_n, cap - 1)
    if top < 0:
        return "SKIP", label
    for n in range(top + 1):
        unseen = set(trees.enumerate_codes(n + 1, cap=cap))
        round_trip = True
        for t in trees.enumerate_trees(n, cap=cap):
            for d, s in enumerate(trees.successors(t)):
                try:
                    unseen.remove(trees.encode(s))
                except KeyError:
                    return "FAIL", f"bijection n={n}"
                if trees.predecessor(s) != (t, d):
                    round_trip = False
        if unseen:
            return "FAIL", f"bijection n={n}"
        if not round_trip:
            return "FAIL", f"predecessor round trip n={n + 1}"
    return "PASS", f"{label} (n <= {top})"


def _first_difference(label: str, n: int, counts: dict[str, tuple[int, ...]]) -> str:
    """The stderr detail of a route FAIL: the first k at which the named
    routes' counts at size n differ, and each route's count there."""
    def at(row, k):
        return _text(row[k - 1]) if k <= len(row) else "none"

    width = max(map(len, counts.values()))
    k = next(k for k in range(1, width + 1) if len({at(row, k) for row in counts.values()}) > 1)
    values = " ".join(f"{name}={at(row, k)}" for name, row in counts.items())
    return f"{label} n={n}: first differing k={k}: {values}"


def _check_routes(max_n: int, cap: int) -> tuple[str, str]:
    sizes = range(max_n + 1)
    rec, ser, closed = (stats.ROUTES[name](sizes) for name in ("recurrence", "series", "closed"))
    exhaustive = stats.ROUTES["exhaustive"](range(min(max_n, cap) + 1), cap=cap)
    for n in sizes:
        if not rec[n].counts == ser[n].counts == closed[n].counts:
            counts = {"recurrence": rec[n].counts, "series": ser[n].counts,
                      "closed": closed[n].counts}
            label = "route agreement"
        elif n < len(exhaustive) and exhaustive[n].counts != rec[n].counts:
            counts = {"exhaustive": exhaustive[n].counts, "recurrence": rec[n].counts}
            label = "exhaustive agreement"
        else:
            continue
        print(_first_difference(label, n, counts), file=sys.stderr)
        return "FAIL", f"{label} n={n}"
    return "PASS", f"route agreement (n <= {max_n})"


def _check_identities(max_n: int) -> tuple[str, str]:
    label = "conservation and segment-sum identity"
    if max_n < 1:
        return "SKIP", label
    for dist in stats.ROUTES["recurrence"](range(1, max_n + 1)):
        n = dist.n
        if sum(dist.counts) != catalan(n):
            return "FAIL", f"conservation n={n}"
        weighted = sum(k * c for k, c in enumerate(dist.counts, start=1))
        if weighted != catalan(n + 1) - catalan(n):
            return "FAIL", f"segment-sum identity n={n}"
    return "PASS", f"{label} (n <= {max_n})"


def cmd_verify(args, out) -> int:
    """Print one PASS, FAIL or SKIP line per check; SKIP marks a check that
    no size fell within, which fails nothing but never reads as PASS."""
    checks = [
        _check_bijection(args.max_n, args.cap),
        _check_routes(args.max_n, args.cap),
        _check_identities(args.max_n),
    ]
    for verdict, label in checks:
        print(f"{verdict} {label}", file=out)
    return EXIT_VERIFY if any(verdict == "FAIL" for verdict, _ in checks) else EXIT_OK


def cmd_sample(args, out) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    n, places = args.n, args.precision
    observed = Counter(trees.sample_spines(n, args.samples, args.seed))
    k_top = max(observed) if observed else 0
    # Only the printed rows of the exact column, by the ballot formula.
    total = catalan(n)
    rows = []
    for k in range(1, k_top + 1):
        count = observed.get(k, 0)
        rows.append({
            "k": k,
            "observed": count,
            "empirical": render_decimal(Fraction(count, args.samples), places),
            "exact": render_decimal(Fraction(stats.dist_closed(n, k), total), places)
            if k <= n else render_decimal(Fraction(0), places),
            "limit": _limit_str(k, places),
        })
    text = f"n={_text(n)} samples={_text(args.samples)} seed={_text(args.seed)}"
    meta = {"n": n, "samples": args.samples, "seed": args.seed}
    return _report(out, args.format, text, meta,
                   ("k", "observed", "empirical", "exact", "limit"), rows,
                   "k={k} observed={observed} empirical={empirical} exact={exact} limit={limit}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinestat",
        description="Right-spine statistics of binary trees, in exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision_default=2):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--precision", type=int, default=precision_default,
                       help="decimal places for rendered fractions")

    p = sub.add_parser("dist", help="spine-segment distribution for one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="recurrence")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("average", help="average spine length at one size")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("limit", help="limiting fraction k/2^(k+1)")
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("verify", help="cross-route and bijection checks")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--cap", type=int, default=VERIFY_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="seeded uniform sampling report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    common(p, precision_default=4)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="print all tree codes for one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None, out=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    if getattr(args, "n", 0) < 0 or getattr(args, "max_n", 0) < 0:
        print("error: sizes must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "precision", 0) < 0:
        print("error: --precision must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    return args.func(args, out if out is not None else sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
