import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
import tomllib
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinestat
from spinestat import cli, stats, trees
from spinestat.cli import FORMATS, METHODS, main
from spinestat.errors import CapExceeded
from spinestat.series import catalan
from spinestat.stats import render_int

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_main(*args):
    out = io.StringIO()
    code = main(list(args), out=out)
    return code, out.getvalue()


def subprocess_env(**extra):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_subprocess(*args, **env):
    return subprocess.run(
        [sys.executable, "-m", "spinestat", *args], capture_output=True, text=True,
        env=subprocess_env(**env),
    )


# Stdout's two modes: with PYTHONUNBUFFERED=1 every write to it is a write(2)
# call; without, a pipe is written a buffer at a time.
STDOUT_MODES = pytest.mark.parametrize("unbuffered", [True, False],
                                       ids=["PYTHONUNBUFFERED=1", "PYTHONUNBUFFERED unset"])


def stdout_mode_env(unbuffered):
    env = subprocess_env(PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    return env


class TestDist:
    def test_text_n3(self):
        code, out = run_main("dist", "--n", "3", "--method", "recurrence")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n=3 method=recurrence total=5"
        assert lines[1:] == ["2 x 1", "2 x 2", "1 x 3"]

    def test_n0_degenerate(self):
        for method in ("exhaustive", "recurrence", "series", "closed"):
            code, out = run_main("dist", "--n", "0", "--method", method)
            assert code == 0
            assert "total=1" in out
            assert "size 0" in out

    def test_csv_n8_closed(self):
        code, out = run_main("dist", "--n", "8", "--method", "closed", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,count,fraction,limit"
        assert lines[4].startswith("8,4,165,")

    def test_json_matches_csv_counts(self):
        _, csv_out = run_main("dist", "--n", "6", "--format", "csv")
        code, json_out = run_main("dist", "--n", "6", "--format", "json")
        assert code == 0
        doc = json.loads(json_out)
        assert doc["n"] == 6 and doc["total"] == "132" and doc["method"] == "recurrence"
        csv_counts = [line.split(",")[2] for line in csv_out.strip().splitlines()[1:]]
        assert [row["count"] for row in doc["rows"]] == csv_counts
        # The csv is written without a csv module, so a csv reader must get
        # back every json field: no field may need quoting.
        for argv in (*(("dist", "--n", "6", "--method", m) for m in METHODS),
                     ("dist", "--n", "1402", "--method", "closed"),
                     ("sample", "--n", "30", "--samples", "200", "--seed", "5")):
            _, csv_out = run_main(*argv, "--format", "csv")
            doc = json.loads(run_main(*argv, "--format", "json")[1])
            header, *rows = csv.reader(io.StringIO(csv_out))
            assert header == ["n", *doc["rows"][0]]
            assert rows == [[str(doc["n"]), *map(str, row.values())] for row in doc["rows"]]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_rows_are_rendered_as_written(self, fmt):
        # Holding every rendered row of this table peaks at about 15.4 MiB,
        # against 4.2 MiB of counts.
        [dist] = stats.dist_closed(range(5000, 5001))
        counts_size = sys.getsizeof(dist.counts) + sum(map(sys.getsizeof, dist.counts))
        with open(os.devnull, "w") as out:
            tracemalloc.start()
            try:
                code = main(["dist", "--n", "5000", "--method", "closed", "--format", fmt],
                            out=out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak <= counts_size + 1.5 * 2 ** 20

    def test_cap_exceeded_exit_2(self):
        code, _ = run_main("dist", "--n", "15", "--method", "exhaustive")
        assert code == 2

    def test_methods_agree(self):
        outputs = {
            m: run_main("dist", "--n", "9", "--method", m, "--format", "csv")[1]
            for m in ("exhaustive", "recurrence", "series", "closed")
        }
        assert len(set(outputs.values())) == 1

    @pytest.mark.parametrize("method", METHODS)
    def test_method_calls_its_route_on_stats(self, method, monkeypatch):
        # A wrapper installed on stats.dist_<method>, as a profiler or this
        # test does, sees the call; only the exhaustive route takes the cap.
        route, calls = getattr(stats, f"dist_{method}"), []

        def recorder(*args, **kwargs):
            calls.append((args, kwargs))
            return route(*args, **kwargs)

        monkeypatch.setattr(stats, f"dist_{method}", recorder)
        assert run_main("dist", "--n", "3", "--method", method, "--cap", "5")[0] == 0
        cap = (5,) if method == "exhaustive" else ()
        assert calls == [((range(3, 4), *cap), {})]


class TestAverage:
    def test_n10(self):
        code, out = run_main("average", "--n", "10")
        assert code == 0
        assert out.strip() == "41990/16796 = 5/2 = 2.50"

    def test_n1(self):
        code, out = run_main("average", "--n", "1")
        assert code == 0
        assert out.strip() == "1/1 = 1.00"

    def test_n998_uses_closed_form(self):
        code, out = run_main("average", "--n", "998")
        assert code == 0
        assert out.strip() == "2994/1000 = 1497/500 = 2.99"

    def test_n0_exit_1(self):
        code, _ = run_main("average", "--n", "0")
        assert code == 1

    def test_catalan_form_up_to_n34(self):
        # The raw Catalan-difference form is printed while c_n < 10^18.
        assert catalan(34) < 10 ** 18 <= catalan(35)
        c34, c35 = catalan(34), catalan(35)
        assert run_main("average", "--n", "34")[1].startswith(f"{c35 - c34}/{c34} = ")
        assert run_main("average", "--n", "35")[1] == "105/37 = 2.84\n"

    def test_n1000000(self):
        code, out = run_main("average", "--n", "1000000")
        assert code == 0
        assert out == "3000000/1000002 = 500000/166667 = 3.00\n"


class TestLimit:
    def test_k2(self):
        code, out = run_main("limit", "--k", "2")
        assert code == 0
        assert out.strip() == "2/8 = 1/4 = 0.25"

    def test_k1(self):
        code, out = run_main("limit", "--k", "1")
        assert code == 0
        assert out.strip() == "1/4 = 0.25"

    def test_k7(self):
        code, out = run_main("limit", "--k", "7")
        assert code == 0
        assert out.strip().startswith("7/256")

    def test_k0_exit_1(self):
        code, _ = run_main("limit", "--k", "0")
        assert code == 1


class TestVerify:
    def test_max_n_9(self):
        code, out = run_main("verify", "--max-n", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    def test_max_n_0_vacuous(self):
        # The identities start at n=1, so at --max-n 0 they cover nothing.
        code, out = run_main("verify", "--max-n", "0")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS", "PASS", "SKIP"]

    def test_cap_0_skips_bijection(self):
        code, out = run_main("verify", "--max-n", "3", "--cap", "0")
        assert code == 0
        assert out.splitlines() == [
            "SKIP bijection and predecessor round trip",
            "PASS route agreement (n <= 3)",
            "PASS conservation and segment-sum identity (n <= 3)",
        ]

    def test_default_cap_bounds_bijection(self):
        code, out = run_main("verify", "--max-n", "12")
        assert code == 0
        assert out.splitlines() == [
            "PASS bijection and predecessor round trip (n <= 10)",
            "PASS route agreement (n <= 12)",
            "PASS conservation and segment-sum identity (n <= 12)",
        ]


def _size(code):
    return code.bit_length() // 2


def each_image(fault):
    """trees.grow_codes with each pair's image replaced by fault(code,
    node, image), node the bit of the spine node grown at (1 << b; the
    terminal leaf's is 1)."""
    grow = trees.grow_codes

    def planted(codes, nodes, count):
        values = (trees._array(fields, count) for fields in (codes, nodes, grow(codes, nodes, count)))
        return trees._fields(array("Q", map(fault, *values)))

    return planted


def each_return(fault):
    """trees.shrink_codes with each image's returned (code, depth) replaced
    by fault(image, code, depth)."""
    shrink = trees.shrink_codes

    def planted(images, lows, segments):
        count = len(segments)
        codes, depths = shrink(images, lows, segments)
        pairs = list(map(fault, trees._array(images, count), trees._array(codes, count), depths))
        return trees._fields(array("Q", (code for code, _ in pairs))), bytes(d for _, d in pairs)

    return planted


def grown_at_root(code):
    """The image of a code grown at its root: a new root over it, a leaf on
    the right."""
    return 1 << code.bit_length() + 1 | code << 1


class TestVerifyFailures:
    """A broken growth step or inverse gives FAIL and exit 3, never a
    traceback, and one stderr line with the code and depth at fault; a
    broken route gives one stderr line with the first differing k and each
    route's count there."""

    def verify(self, capsys, max_n=4):
        code, out = run_main("verify", "--max-n", str(max_n))
        return code, out.splitlines()[0], capsys.readouterr().err.splitlines()

    def test_duplicated_image(self, monkeypatch, capsys):
        # Size-2 codes grow at their terminal leaf the image of their root.
        monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
            grown_at_root(code) if node == 1 and _size(code) == 2 else image)))
        assert self.verify(capsys) == (3, "FAIL bijection n=2", [
            "bijection n=2: code 10100 at depth 2 gives image 1101000,"
            " a duplicate or not a size-3 code"])

    def test_missing_image(self, monkeypatch, capsys):
        # Size-3 codes do not grow at their terminal leaf.
        monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
            code if node == 1 and _size(code) == 3 else image)))
        assert self.verify(capsys) == (3, "FAIL bijection n=3", [
            "bijection n=3: code 1010100 at depth 3 gives image 001010100,"
            " a duplicate or not a size-4 code"])

    def test_wrong_predecessor_depth(self, monkeypatch, capsys):
        # Out of range: the size-0 code has no image at depth 99.
        monkeypatch.setattr(trees, "shrink_codes", each_return(lambda image, code, depth: (
            code, 99)))
        assert self.verify(capsys, max_n=3) == (3, "FAIL predecessor round trip n=1", [
            "predecessor round trip n=1: image 100 returns ('0', 99), expected ('0', 0)"])

    def test_wrong_predecessor_tree(self, monkeypatch, capsys):
        monkeypatch.setattr(trees, "shrink_codes", each_return(lambda image, code, depth: (
            0 if _size(image) == 3 else code, depth)))
        assert self.verify(capsys) == (3, "FAIL predecessor round trip n=3", [
            "predecessor round trip n=3: image 1101000 returns ('0', 0), expected ('10100', 0)"])

    def test_bijection_verdict_comes_first(self, monkeypatch, capsys):
        # Both fail at level 2: size-2 codes do not grow at their terminal
        # leaf, and the inverse gets the depth wrong on every size-3 code.
        monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
            code if node == 1 and _size(code) == 2 else image)))
        monkeypatch.setattr(trees, "shrink_codes", each_return(lambda image, code, depth: (
            code, 99 if _size(image) == 3 else depth)))
        assert self.verify(capsys) == (3, "FAIL bijection n=2", [
            "bijection n=2: code 10100 at depth 2 gives image 0010100,"
            " a duplicate or not a size-3 code"])

    # One image sent into another block of its level, onto a code that a
    # pair of that block gives too; the details are those of the replay,
    # pair by pair in canonical order.  Level 3's blocks are 1010100
    # 1011000 | 1100100 | 1101000 1110000, the last the root's: a leaf on
    # the right.  Level 3 is stored; level 5 is streamed.
    @pytest.mark.parametrize("code, node, image, detail", [
        # Depth 1 of block 0 onto the image of 11000 at depth 1.
        (0b10100, 0b100, 0b1100100, "bijection n=2: code 11000 at depth 1 gives image 1100100"),
        # Depth 0, from the root's block onto the image of 10100 at depth 1.
        (0b11000, 0b10000, 0b1011000, "bijection n=2: code 11000 at depth 0 gives image 1011000"),
        # Level 4's last code grown at its root onto block 0's first code.
        (0b111100000, 1 << 8, 0b10101010100,
         "bijection n=4: code 111100000 at depth 0 gives image 10101010100"),
    ])
    def test_image_in_another_block(self, code, node, image, detail, monkeypatch, capsys):
        monkeypatch.setattr(trees, "grow_codes", each_image(lambda c, b, grown: (
            image if (c, b) == (code, node) else grown)))
        label, size = detail.partition(":")[0], _size(image)
        assert self.verify(capsys) == (3, f"FAIL {label}", [
            f"{detail}, a duplicate or not a size-{size} code"])

    def test_one_to_one_across_blocks(self, monkeypatch, capsys):
        # Two pairs of level 4 swap their images, across blocks 0 and 1 of
        # the streamed level 5: 101010100 and 110010100 grown at their
        # terminal leaves, at depths 4 and 3.  The inverse swaps them back:
        # a bijection all the same, which fails the check in canonical
        # order but passes pair by pair.
        swapped = {(0b101010100, 1): 0b11001010100, (0b110010100, 1): 0b10101010100}
        monkeypatch.setattr(trees, "grow_codes", each_image(lambda code, node, image: (
            swapped.get((code, node), image))))
        monkeypatch.setattr(trees, "shrink_codes", each_return(lambda image, code, depth: {
            0b11001010100: (0b101010100, 4), 0b10101010100: (0b110010100, 3)}.get(
                image, (code, depth))))
        assert self.verify(capsys) == (0, "PASS bijection and predecessor round trip (n <= 4)", [])

    def test_route_disagreement_detail(self, monkeypatch, capsys):
        dist_series = stats.dist_series

        def perturbed(sizes):
            return [stats.SpineDistribution(d.n, (d.counts[0], d.counts[1] + 1, *d.counts[2:]),
                                            d.total) if d.n == 5 else d
                    for d in dist_series(sizes)]

        monkeypatch.setattr(stats, "dist_series", perturbed)
        code, out = run_main("verify", "--max-n", "6")
        assert code == 3
        assert out.splitlines()[1] == "FAIL route agreement n=5"
        assert capsys.readouterr().err.splitlines() == [
            "route agreement n=5: first differing k=2: recurrence=14 series=15 closed=14"]

    def test_exhaustive_disagreement_detail(self, monkeypatch, capsys):
        dist_exhaustive = stats.dist_exhaustive

        def truncated(sizes, cap):
            return [stats.SpineDistribution(d.n, d.counts[:-1], d.total) if d.n == 3 else d
                    for d in dist_exhaustive(sizes, cap)]

        monkeypatch.setattr(stats, "dist_exhaustive", truncated)
        code, out = run_main("verify", "--max-n", "6")
        assert code == 3
        assert out.splitlines()[1] == "FAIL exhaustive agreement n=3"
        assert capsys.readouterr().err.splitlines() == [
            "exhaustive agreement n=3: first differing k=3: exhaustive=none recurrence=1"]

    @STDOUT_MODES
    def test_detail_follows_its_verdict_on_a_shared_stream(self, unbuffered):
        # The duplicated image and the route disagreement above, in one
        # process whose stdout and stderr are one pipe.
        faults = textwrap.dedent("""
            import sys
            from array import array
            from spinestat import cli, stats, trees
            grow_codes, dist_series = trees.grow_codes, stats.dist_series

            def grow(code, node, image):
                # Size-2 codes grow at their terminal leaf the image of their root.
                return 1 << 6 | code << 1 if node == 1 and code.bit_length() == 5 else image

            trees.grow_codes = lambda codes, nodes, count: trees._fields(array("Q", map(
                grow, *(trees._array(fields, count)
                        for fields in (codes, nodes, grow_codes(codes, nodes, count))))))
            stats.dist_series = lambda sizes: [
                stats.SpineDistribution(d.n, (d.counts[0], d.counts[1] + 1, *d.counts[2:]),
                                        d.total) if d.n == 5 else d
                for d in dist_series(sizes)]
            sys.exit(cli.main(["verify", "--max-n", "6"]))
        """)
        cp = subprocess.run([sys.executable, "-c", faults], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, env=stdout_mode_env(unbuffered))
        assert cp.returncode == 3
        assert cp.stdout.splitlines() == [
            "FAIL bijection n=2",
            "bijection n=2: code 10100 at depth 2 gives image 1101000,"
            " a duplicate or not a size-3 code",
            "FAIL route agreement n=5",
            "route agreement n=5: first differing k=2: recurrence=14 series=15 closed=14",
            "PASS conservation and segment-sum identity (n <= 6)",
        ]


class TestSample:
    def test_n1_all_mass_on_k1(self):
        code, out = run_main("sample", "--n", "1", "--samples", "10", "--seed", "7")
        assert code == 0
        assert "k=1 observed=10 empirical=1.0000" in out

    def test_deterministic_reruns(self):
        a = run_main("sample", "--n", "12", "--samples", "500", "--seed", "42")
        b = run_main("sample", "--n", "12", "--samples", "500", "--seed", "42")
        assert a == b

    def test_n4_k3_near_exact(self):
        code, out = run_main(
            "sample", "--n", "4", "--samples", "14000", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        row = next(r for r in doc["rows"] if r["k"] == 3)
        assert abs(float(row["empirical"]) - 3 / 14) < 0.02

    def test_negative_seed_aliases_its_absolute_value(self):
        # random.Random seeds from |seed|, so --seed -5 draws what --seed 5
        # draws; only the header tells them apart.
        negative = run_main("sample", "--n", "70", "--samples", "300", "--seed", "-5")
        positive = run_main("sample", "--n", "70", "--samples", "300", "--seed", "5")
        assert negative[0] == positive[0] == 0
        [header, *rows] = negative[1].splitlines()
        assert header == "n=70 samples=300 seed=-5"
        assert rows == positive[1].splitlines()[1:]

    def test_bad_samples_exit_1(self):
        code, _ = run_main("sample", "--n", "4", "--samples", "0", "--seed", "1")
        assert code == 1

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n", [0, 1, 9, 4000, 10 ** 12])
    def test_exact_column_builds_no_closed_row(self, n, fmt, monkeypatch):
        def refuse(sizes):
            raise AssertionError("sample built the closed route's row")

        asked = []
        spine_fractions = stats.spine_fractions

        def recorded(n, k_max):
            asked.append(k_max)
            return spine_fractions(n, k_max)

        monkeypatch.setattr(stats, "dist_closed", refuse)
        monkeypatch.setattr(stats, "spine_fractions", recorded)
        code, out = run_main("sample", "--n", str(n), "--samples", "300", "--seed", "4",
                             "--format", fmt)
        assert code == 0
        # One call, for the printed rows k = 1..max(observed) only.
        rows = len(json.loads(out)["rows"]) if fmt == "json" else len(out.splitlines()) - 1
        assert asked == [rows]

    def test_memory_does_not_grow_with_n(self):
        # Only the printed rows: the closed route's whole row at n, n counts
        # of up to 2n bits each, runs out of memory at n = 10^8.  The first
        # run loads the sampler's modules outside the measurement.
        run_main("sample", "--n", "1", "--samples", "1", "--seed", "1")
        tracemalloc.start()
        try:
            code, _ = run_main("sample", "--n", str(10 ** 8), "--samples", "1500",
                               "--seed", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 256 * 1024


class TestEnumerate:
    def test_n2_codes(self):
        code, out = run_main("enumerate", "--n", "2")
        assert code == 0
        # canonical order: left-subtree size ascending
        assert out.split() == ["10100", "11000"]

    def test_counts(self):
        code, out = run_main("enumerate", "--n", "5")
        assert code == 0
        assert len(out.split()) == 42

    def test_cap_exit_2(self):
        code, _ = run_main("enumerate", "--n", "3", "--cap", "2")
        assert code == 2


# A child's stdout as PYTHONUNBUFFERED=1 builds it, a TextIOWrapper that
# writes through, over a raw stream that keeps the length of each write: each
# is one write(2) call on a real descriptor.  The child runs cli.main(argv),
# writes what it got to its real stdout and the lengths to stderr.
_RECORDED_STDOUT = textwrap.dedent("""
    import io, json, sys
    from spinestat import cli

    class Recorded(io.RawIOBase):
        def __init__(self):
            self.lengths, self.data = [], bytearray()

        def writable(self):
            return True

        def write(self, b):
            self.lengths.append(len(b))
            self.data += b
            return len(b)

    raw = Recorded()
    sys.stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    code = cli.main(sys.argv[1:])
    sys.__stdout__.buffer.write(raw.data)
    print(json.dumps(raw.lengths), file=sys.stderr)
    sys.exit(code)
""")


def assert_written_in_batches(argv):
    cp = subprocess.run([sys.executable, "-c", _RECORDED_STDOUT, *argv], capture_output=True,
                        text=True, env=subprocess_env())
    assert cp.returncode == 0, cp.stderr
    text, lengths = cp.stdout, json.loads(cp.stderr)
    assert sum(lengths) == len(text.encode())
    longest_line = max(map(len, text.splitlines(keepends=True)))
    # Every write but the last holds more than BATCH characters less one row,
    # and no row here is as long as two of its longest line.
    assert len(lengths) <= math.ceil(len(text) / (cli.BATCH - 2 * longest_line)) + 1
    # Memory stays bounded: no write holds more than a batch and one line.
    assert max(lengths) <= cli.BATCH + longest_line


@pytest.mark.parametrize("argv", [
    "enumerate --n 11",
    "dist --n 1402 --method closed --format json",
])
def test_stdout_written_in_batches(argv):
    # A code per line, and a json encoder chunk, would each be one write.
    assert_written_in_batches(argv.split())


@pytest.mark.parametrize("fmt", FORMATS)
def test_table_report_is_not_written_a_chunk_at_a_time(fmt):
    # A write per json.dump chunk would be about 28,000 writes for the 0.9 MB
    # json form of this table, and print's two per line 2,804 for its text
    # and csv forms; the bound is 120 to 139 writes.
    assert_written_in_batches(f"dist --n 1401 --format {fmt}".split())


# Each shape of a json document's fields ahead of its rows.  The limit's
# denominator 2^14291 has 4,303 digits, past str()'s default limit.
JSON_OPENINGS = {
    "dist --n 0": {"n": 0, "total": "1", "method": "recurrence"},
    "dist --n 6 --method closed": {"n": 6, "total": "132", "method": "closed"},
    "average --n 10": {"n": 10, "numerator": "41990", "denominator": "16796",
                       "reduced": "5/2", "decimal": "2.50"},
    "average --n 40": {"n": 40, "numerator": "120", "denominator": "42",
                       "reduced": "20/7", "decimal": "2.86"},
    "limit --k 14290": {"k": 14290, "numerator": "14290",
                        "denominator": render_int(2**14291),
                        "reduced": "7145/" + render_int(2**14290), "decimal": "0.00"},
    "sample --n 5 --samples 10 --seed 1": {"n": 5, "samples": 10, "seed": 1},
}


@pytest.mark.parametrize("argv", JSON_OPENINGS)
def test_json_opening_is_the_layout_of_json_dumps(argv):
    # The opening is written by hand; json.dumps(..., indent=2) is the
    # layout it keeps.
    code, out = run_main(*argv.split(), "--format", "json")
    assert code == 0
    opening = json.dumps({**JSON_OPENINGS[argv], "version": spinestat.__version__}, indent=2)
    if argv.startswith(("average", "limit")):
        assert out == opening + "\n"
    elif argv == "dist --n 0":
        assert out == opening.removesuffix("\n}") + ',\n  "rows": []\n}\n'
    else:
        assert out.startswith(opening.removesuffix("\n}") + ',\n  "rows": [\n    {\n')


class _PipeGone(io.RawIOBase):
    """A raw stream whose reader has gone."""

    def writable(self):
        return True

    def write(self, b):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, raw, code", [
    ("limit --k 2", io.BytesIO, 0),
    ("enumerate --n 3 --cap 2", io.BytesIO, 2),
    ("enumerate --n 3", _PipeGone, 1),
], ids=["success", "cap exceeded", "closed pipe"])
@pytest.mark.parametrize("write_through", [True, False])
def test_main_leaves_stdout_as_found(monkeypatch, argv, raw, code, write_through):
    stdout = io.TextIOWrapper(raw(), encoding="utf-8", write_through=write_through)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv.split()) == code
    assert sys.stdout is stdout
    assert stdout.write_through == write_through


def test_main_writes_a_redirected_stdout():
    # A StringIO has no write_through.
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["limit", "--k", "2"]) == 0
    assert out.getvalue() == run_main("limit", "--k", "2")[1]


class TestNegativePrecision:
    @pytest.mark.parametrize("args", [
        ("dist", "--n", "4"),
        ("average", "--n", "4"),
        ("limit", "--k", "3"),
        ("sample", "--n", "4", "--samples", "10", "--seed", "1"),
    ])
    def test_exit_1_one_line(self, args, capsys):
        code, out = run_main(*args, "--precision", "-1")
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: --precision must be >= 0\n"


class TestExitPath:
    """Every error leaves main by one path: its exit code, empty stdout and
    one stderr line."""

    @pytest.mark.parametrize("args, line", [
        (("dist", "--n", "-1"), "error: --n must be >= 0"),
        (("average", "--n", "0"), "error: --n must be >= 1"),
        (("limit", "--k", "0"), "error: --k must be >= 1"),
        (("verify", "--max-n", "-1"), "error: --max-n must be >= 0"),
        (("sample", "--n", "4", "--samples", "0", "--seed", "1"), "error: --samples must be >= 1"),
        (("enumerate", "--n", "-1"), "error: --n must be >= 0"),
    ])
    def test_lower_bound(self, args, line, capsys):
        assert run_main(*args) == (1, "")
        assert capsys.readouterr().err.splitlines() == [line]

    def test_bounds_checked_in_a_fixed_order(self):
        args = ("average", "--n", "-1", "--precision", "-1")
        runs = [run_subprocess(*args, PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert [(cp.returncode, cp.stdout) for cp in runs] == [(1, "")] * 2
        assert runs[0].stderr == runs[1].stderr == "error: --n must be >= 1\n"

    @pytest.mark.parametrize("args", [
        ("dist", "--n", "3", "--method", "exhaustive", "--cap", "2"),
        ("enumerate", "--n", "3", "--cap", "2"),
    ])
    def test_cap_exceeded(self, args, capsys):
        assert run_main(*args) == (2, "")
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_output_before_an_error_is_written(self, monkeypatch, capsys):
        def write_then_fail(args, out):
            print("a line", file=out)
            raise CapExceeded("size 9 exceeds the exhaustive cap 1")

        monkeypatch.setattr(cli, "cmd_limit", write_then_fail)
        assert run_main("limit", "--k", "2") == (2, "a line\n")
        assert capsys.readouterr().err == "error: size 9 exceeds the exhaustive cap 1\n"

    def test_closed_pipe_with_no_stdout_descriptor(self, capsys):
        # capsys's sys.stdout, like a StringIO, has no descriptor to point at
        # devnull.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        assert main(["enumerate", "--n", "3"], out=ClosedPipe()) == 1
        assert capsys.readouterr() == ("", "error: output pipe closed\n")

    def test_closed_pipe_of_a_callers_out_leaves_stdout(self):
        # A broken `out` of the caller's is not stdout: what the caller prints
        # to stdout afterwards still comes out.
        script = textwrap.dedent("""
            import io
            from spinestat.cli import main

            class ClosedPipe(io.StringIO):
                def write(self, text):
                    raise BrokenPipeError

            print("before", flush=True)
            print(main(["enumerate", "--n", "3"], out=ClosedPipe()))
            print("after")
        """)
        cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=subprocess_env())
        assert (cp.returncode, cp.stdout, cp.stderr) == (
            0, "before\n1\nafter\n", "error: output pipe closed\n")


class TestBigIntegers:
    # render_int itself is checked against an independent digit parser in
    # test_stats; here the CLI must print exactly its digits.
    def test_limit_k_100000_json(self):
        code, out = run_main("limit", "--k", "100000", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 100000 and doc["numerator"] == "100000"
        assert doc["denominator"] == render_int(2**100001)
        # 100000 = 2^5 * 3125
        assert doc["reduced"] == "3125/" + render_int(2**99996)
        assert doc["decimal"] == "0.00"

    def test_limit_past_4300_digits_text(self):
        code, out = run_main("limit", "--k", "14284")
        assert code == 0
        # 14284 = 4 * 3571
        assert out == (f"14284/{render_int(2**14285)} = "
                       f"3571/{render_int(2**14283)} = 0.00\n")


class TestProcessLevel:
    def test_help(self):
        cp = run_subprocess("--help")
        assert cp.returncode == 0
        assert "spinestat" in cp.stdout

    @pytest.mark.parametrize("argv, start", [(["--version"], "0.1.0\n"),
                                             (["dist", "--help"], "usage: spinestat dist")],
                             ids=["--version", "dist --help"])
    def test_help_and_version_write_out(self, argv, start, capsys):
        code, out = run_main(*argv)
        assert code == 0
        assert out.startswith(start)
        assert capsys.readouterr().out == ""

    def test_usage_error_exit_1(self):
        cp = run_subprocess("dist")
        assert cp.returncode == 1

    def test_unknown_command_exit_1(self):
        cp = run_subprocess("frobnicate")
        assert cp.returncode == 1

    @pytest.mark.parametrize("argv", [["dist", "--n", "200000", "--method", "closed"],
                                      ["verify", "--max-n", "100000"]],
                             ids=["dist closed", "verify"])
    def test_out_of_memory_exit_1_one_line(self, argv):
        # The address-space limit is set in the child between fork and exec,
        # so it binds that process alone.  100 MiB is several times what a
        # start needs, and each command reaches it within about a second.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (100 * 2 ** 20, 100 * 2 ** 20))

        cp = subprocess.run([sys.executable, "-m", "spinestat", *argv], capture_output=True,
                            text=True, env=subprocess_env(), preexec_fn=limit, timeout=60)
        assert (cp.returncode, cp.stderr) == (1, "error: out of memory\n")

    def test_byte_identical_output(self):
        args = ("dist", "--n", "7", "--format", "json")
        assert run_subprocess(*args).stdout == run_subprocess(*args).stdout

    @STDOUT_MODES
    def test_closed_pipe_exit_1_without_traceback(self, unbuffered):
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinestat", "enumerate", "--n", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=stdout_mode_env(unbuffered),
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1

    @STDOUT_MODES
    def test_enumerate_into_head(self, unbuffered):
        # spinestat enumerate --n 12 | head -1
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinestat", "enumerate", "--n", "12"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=stdout_mode_env(unbuffered),
        )
        head = subprocess.run(["head", "-1"], stdin=proc.stdout, capture_output=True,
                              timeout=60)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.stdout == b"10" * 12 + b"0\n"
        assert err == b"error: output pipe closed\n"

    def test_imports_only_the_standard_library(self):
        # Every module of the package, the lazily loaded ones too, but
        # __main__, which runs the command line when imported; it imports
        # only sys and cli.  -S: no site module, whose .pth files may import
        # third-party packages.
        modules = sorted(f"spinestat.{path.stem}".removesuffix(".__init__")
                         for path in Path(SRC, "spinestat").glob("*.py") if path.stem != "__main__")
        assert {"spinestat", "spinestat._codetext", "spinestat._fault"} <= set(modules)
        code = (f"import sys, {', '.join(modules)}; "
                "print(*sorted({name.partition('.')[0] for name in sys.modules}))")
        cp = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC})
        assert cp.returncode == 0, cp.stderr
        outside = set(cp.stdout.split()) - sys.stdlib_module_names - {"spinestat", "__main__"}
        assert not outside

    def test_console_script(self):
        argv = ["average", "--n", "4"]
        try:
            cp = subprocess.run(["spinestat", *argv], capture_output=True, text=True)
        except FileNotFoundError:
            # Not installed: run the [project.scripts] target as the
            # generated wrapper runs it.
            with open(Path(SRC).parent / "pyproject.toml", "rb") as f:
                target = tomllib.load(f)["project"]["scripts"]["spinestat"]
            module, _, func = target.partition(":")
            wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
            cp = subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True,
                                text=True, env=subprocess_env())
        assert cp.returncode == 0
        assert cp.stdout.strip() == "28/14 = 2 = 2.00"


# Bounded so that every argv runs in milliseconds: exhaustive sizes stay at
# most 9 and every other size at most 30, but sample's, whose cost follows
# the spines drawn and not n, up to 10^18.
_BAD_TOKENS = ["--n", "x", "-1", "3.5", "", "--", "--bogus", "--format", "xml",
               "--method", "--precision", "--cap", "--seed", "frobnicate"]


def _flag(name, values):
    return st.tuples(st.just(name), values.map(str))


@st.composite
def _argv(draw):
    small, sizes = st.integers(-2, 9), st.integers(-2, 30)
    precision = _flag("--precision", st.integers(-2, 12))
    fmt = _flag("--format", st.sampled_from(FORMATS))
    command = draw(st.sampled_from(
        ["dist", "average", "limit", "verify", "sample", "enumerate"]))
    if command == "dist":
        method = draw(st.sampled_from(METHODS))
        flags = [_flag("--method", st.just(method)), _flag("--cap", small), fmt, precision,
                 _flag("--n", small if method == "exhaustive" else sizes)]
    elif command == "average":
        flags = [_flag("--n", sizes), fmt, precision]
    elif command == "limit":
        flags = [_flag("--k", st.integers(-2, 5000)), fmt, precision]
    elif command == "verify":
        flags = [_flag("--max-n", small), _flag("--cap", small)]
    elif command == "sample":
        flags = [_flag("--n", st.one_of(sizes, st.integers(31, 10 ** 18))),
                 _flag("--samples", st.integers(-1, 50)),
                 _flag("--seed", st.integers(-10**6, 10**6)), fmt, precision]
    else:
        flags = [_flag("--n", small), _flag("--cap", small)]
    argv = [command]
    for flag in flags:
        # A required flag is left out now and then, for the usage errors.
        if draw(st.integers(0, 9)):
            argv.extend(draw(flag))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_BAD_TOKENS)))
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_argv_fuzz(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        first = run_main(*argv)
    assert first[0] in (0, 1, 2, 3)
    if first[0]:
        assert "error:" in err.getvalue().splitlines()[-1]
    assert run_main(*argv) == first
