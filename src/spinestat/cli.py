"""spinestat command line: distributions, averages, limits, verification,
sampling, and raw enumeration.

Exit codes: 0 success, 1 usage error, a closed output pipe or out of
memory, 2 enumeration cap exceeded, 3 verification failure.  Stdout's own
text buffer batches what is written to it, under PYTHONUNBUFFERED=1 too
(see main).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from itertools import chain, repeat

from . import __version__, stats
from .errors import DEFAULT_CAP, CapExceeded
from .stats import ratio_texts, render_int, render_ratio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_VERIFY = 3

METHODS = ("exhaustive", "recurrence", "series", "closed")
# verify's enumeration cap: the bijection check climbs to min(max_n, cap-1),
# so this bound, not --max-n, sets its cost once --max-n passes it.
VERIFY_CAP = 11
FORMATS = ("text", "csv", "json")
# enumerate writes texts of the whole lines that just pass this many
# characters: the size of the text buffer of sys.stdout (an
# io.TextIOWrapper), so that each text fills it about once.
BATCH = 8192


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the documented usage code is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _json_value(value) -> str:
    """A json document's value: an int by render_int, a string quoted."""
    return render_int(value) if isinstance(value, int) else f'"{value}"'


def _report(out, fmt, text, meta, columns=None, rows=(), line="", numbers=()) -> int:
    """Write a report in `fmt`; every command with --format ends here.

    `text` is the text format's opening, and `line` a template that renders
    one row as a further text line, its fields named by column.  `meta` holds
    the json document's fields ahead of the version, ints and strings.  A
    table report names its `columns`, and each of its `rows` is a tuple of
    their texts in that order; a text line that uses only the first columns
    may be given rows of only those.  Its csv form puts the document's n in
    front of every row, and its json form ends with the rows, `numbers` the
    columns it writes as numbers and the others as strings.  A report
    without columns has no csv form and prints its text instead.  Every
    format is an opening, rows read once and rendered as they come, and a
    closing, handed to `out` a row at a time in one writelines call.
    """
    # Every field is an int or a string of digits, "-", "." and "/": csv
    # needs no quoting, and json no escaping.  Each format's template takes
    # a row's texts by position, "{0}" for the first column.
    columns = columns or ()
    fields = [f"{{{i}}}" for i in range(len(columns))]
    head, joint, tail = text + "\n", "", ""
    line = line.format_map(dict(zip(columns, fields))) + "\n"
    if fmt == "json":
        # The layout of json.dumps(..., indent=2), written as the rows are.
        doc = {**meta, "version": __version__}
        head = "{" + ",".join(f'\n  "{key}": {_json_value(value)}' for key, value in doc.items())
        if not columns:
            head += "\n}\n"
        else:
            head += ',\n  "rows": ['
            line = "\n    {{" + ",".join(
                f'\n      "{c}": ' + (f if c in numbers else f'"{f}"')
                for c, f in zip(columns, fields)) + "\n    }}"
            joint, tail = ",", "\n  ]\n}\n"
    elif fmt == "csv" and columns:
        head = ",".join(["n", *columns]) + "\n"
        line = ",".join([render_int(meta["n"]), *fields]) + "\n"

    def texts():
        yield head
        sep = ""
        for row in rows:
            yield sep + line.format(*row)
            sep = joint
        # The json rows are in indent=2's layout, which writes no rows as "[]".
        yield tail if sep else tail.lstrip()

    out.writelines(texts())
    return EXIT_OK


def _limits(top: int, places: int):
    """The texts of the limits k/2^(k+1), k = 1..top.  From the first k with
    k*10^places < 2^k on, each rounds to 0: k*10^places gains at most a bit
    a step, and 2^k one."""
    scale = 10 ** places
    first_zero = next((k for k in range(1, top + 1) if (k * scale).bit_length() <= k), top + 1)
    ks = range(1, first_zero)
    return chain(ratio_texts(zip(ks, map((2).__lshift__, ks)), places),
                 repeat(render_ratio(0, 1, places), top + 1 - first_zero))


def cmd_dist(args, out) -> int:
    # Looked up at each call, so a wrapper on stats.dist_<method> sees it.
    caps = (args.cap,) if args.method == "exhaustive" else ()
    [dist] = getattr(stats, f"dist_{args.method}")(range(args.n, args.n + 1), *caps)
    n, places, total = dist.n, args.precision, render_int(dist.total)
    text = f"n={n} method={args.method} total={total}"
    if n == 0:
        text += "\n(size 0: the single external node, no spine segments)"
    # k <= n, a size whose counts were built: far below str()'s digit limit.
    ks = range(1, n + 1)
    columns = [map(str, ks), map(render_int, dist.counts)]
    # The text format prints only each count and its k.
    if args.format != "text":
        columns += [ratio_texts(zip(dist.counts, repeat(dist.total)), places),
                    _limits(n, places)]
    meta = {"n": n, "total": total, "method": args.method}
    return _report(out, args.format, text, meta, ("k", "count", "fraction", "limit"),
                   zip(*columns), "{count} x {k}", numbers=("k",))


def _ratio(args, out, head: dict, raw_num: int, raw_den: int) -> int:
    # Text is "<raw> = <reduced> = <decimal>", dropping the middle form when
    # the raw fraction is already reduced.  raw_den > 0.
    g = math.gcd(raw_num, raw_den)
    num, den = render_int(raw_num), render_int(raw_den)
    reduced = render_int(raw_num // g)
    if raw_den != g:
        reduced += f"/{render_int(raw_den // g)}"
    decimal = render_ratio(raw_num, raw_den, args.precision)
    parts = [f"{num}/{den}"]
    if g != 1:
        parts.append(reduced)
    meta = {**head, "numerator": num, "denominator": den, "reduced": reduced,
            "decimal": decimal}
    return _report(out, args.format, " = ".join([*parts, decimal]), meta)


def cmd_average(args, out) -> int:
    n = args.n
    # The raw Catalan-difference numerator has ~0.6*n digits; from c_n >= 10^18
    # on, that is n >= 35 (c_34 < 10^18 <= c_35), the equivalent 3n/(n+2)
    # form reads better.
    if n <= 34:
        from .series import catalan

        c = catalan(n)
        return _ratio(args, out, {"n": n}, catalan(n + 1) - c, c)
    return _ratio(args, out, {"n": n}, 3 * n, n + 2)


def cmd_limit(args, out) -> int:
    return _ratio(args, out, {"k": args.k}, args.k, 2 ** (args.k + 1))


def cmd_enumerate(args, out) -> int:
    from ._codetext import batches

    # Each write just passes BATCH: a write per code made n = 12 take 1.4
    # times as long.
    for text in batches(args.n, args.cap, BATCH):
        out.write(text)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    """Print each check's verdict line, and each FAIL's detail to stderr
    right after its verdict line."""
    from . import checks

    results = checks.run(args.max_n, args.cap)
    for verdict, label, detail in results:
        print(f"{verdict} {label}", file=out)
        if detail:
            out.flush()
            print(detail, file=sys.stderr)
    return EXIT_VERIFY if any(verdict == "FAIL" for verdict, _, _ in results) else EXIT_OK


def cmd_sample(args, out) -> int:
    from . import sampler

    n, samples, places = args.n, args.samples, args.precision
    observed = Counter(sampler.sample_spines(n, samples, args.seed))
    # Only the printed rows, k <= max(observed), whatever n is.  k and the
    # observed counts are at most n and samples, which argparse read as ints.
    ks = range(1, max(observed) + 1)
    counts = [observed[k] for k in ks]
    rows = zip(map(str, ks), map(str, counts),
               ratio_texts(zip(counts, repeat(samples)), places),
               ratio_texts(stats.spine_fractions(n, len(ks)), places),
               _limits(len(ks), places))
    text = f"n={render_int(n)} samples={render_int(samples)} seed={render_int(args.seed)}"
    meta = {"n": n, "samples": samples, "seed": args.seed}
    return _report(out, args.format, text, meta,
                   ("k", "observed", "empirical", "exact", "limit"), rows,
                   "k={k} observed={observed} empirical={empirical} exact={exact} limit={limit}",
                   numbers=("k", "observed"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinestat",
        description="Right-spine statistics of binary trees, in exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # `minimum` maps each flag's dest to its least value, in main's check order.
    def common(p, precision_default=2):
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--precision", type=int, default=precision_default,
                       help="decimal places for rendered fractions")
        p.set_defaults(minimum={**p.get_default("minimum"), "precision": 0})

    p = sub.add_parser("dist", help="spine-segment distribution for one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=METHODS, default="recurrence")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration cap; only --method exhaustive reads it")
    p.set_defaults(func=cmd_dist, minimum={"n": 0})
    common(p)

    p = sub.add_parser("average", help="average spine length at one size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_average, minimum={"n": 1})
    common(p)

    p = sub.add_parser("limit", help="limiting fraction k/2^(k+1)")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_limit, minimum={"k": 1})
    common(p)

    p = sub.add_parser("verify", help="cross-route and bijection checks")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--cap", type=int, default=VERIFY_CAP)
    p.set_defaults(func=cmd_verify, minimum={"max_n": 0})

    p = sub.add_parser("sample", help="seeded uniform sampling report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_sample, minimum={"n": 0, "samples": 1})
    common(p, precision_default=4)

    p = sub.add_parser("enumerate", help="print all tree codes for one size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_enumerate, minimum={"n": 0})

    return parser


def main(argv=None, out=None) -> int:
    parser = build_parser()
    on_stdout = out is None
    if on_stdout:
        out = sys.stdout
    # PYTHONUNBUFFERED=1 sets write_through, which makes every write on stdout
    # a write(2) call; without it, the text buffer writes about 8 KB at a time.
    write_through = on_stdout and getattr(out, "write_through", False)
    if write_through:
        out.reconfigure(write_through=False)
    try:
        try:
            # argparse writes --help and --version to sys.stdout, which is
            # `out` while it parses.
            sys.stdout, stdout = out, sys.stdout
            try:
                args = parser.parse_args(argv)
            finally:
                sys.stdout = stdout
            for dest, least in args.minimum.items():
                if getattr(args, dest) < least:
                    parser.exit(EXIT_USAGE,
                                f"error: --{dest.replace('_', '-')} must be >= {least}\n")
            code = args.func(args, out)
        finally:
            # Text written before an error, too, reaches stdout.
            out.flush()
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE  # what the uncaught exception returned
    except BrokenPipeError:
        # The reader has gone.  If it read stdout, devnull keeps the final flush
        # at exit quiet; a stdout with no descriptor, such as a StringIO, is left.
        if on_stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, sys.stdout.fileno())
            except OSError:
                pass
            os.close(devnull)
        print("error: output pipe closed", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # After a closed pipe, too: its flush then writes to devnull.
        if write_through:
            out.reconfigure(write_through=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
