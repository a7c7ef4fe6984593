"""verify's checks as a library: each returns (verdict, label, detail) and
prints nothing."""

import io

import pytest

from spinestat import checks, stats
from spinestat.cli import EXIT_VERIFY, main

BIJECTION = "bijection and predecessor round trip"
IDENTITIES = "conservation and segment-sum identity"


@pytest.mark.parametrize("max_n, cap, lines", [
    (0, 11, [f"PASS {BIJECTION} (n <= 0)", "PASS route agreement (n <= 0)", f"SKIP {IDENTITIES}"]),
    (3, 0, [f"SKIP {BIJECTION}", "PASS route agreement (n <= 3)", f"PASS {IDENTITIES} (n <= 3)"]),
    (12, 11, [f"PASS {BIJECTION} (n <= 10)", "PASS route agreement (n <= 12)",
              f"PASS {IDENTITIES} (n <= 12)"]),
])
def test_run_gives_verify_lines(max_n, cap, lines):
    assert checks.run(max_n, cap) == [(*line.split(" ", 1), "") for line in lines]


def test_route_detail_is_returned_not_printed(monkeypatch, capsys):
    dist_series = stats.dist_series

    def perturbed(sizes):
        return [stats.SpineDistribution(d.n, (d.counts[0], d.counts[1] + 1, *d.counts[2:]),
                                        d.total) if d.n == 5 else d
                for d in dist_series(sizes)]

    monkeypatch.setattr(stats, "dist_series", perturbed)
    rec = stats.ROUTES["recurrence"](range(7))
    assert checks.routes(rec, 11) == (
        "FAIL", "route agreement n=5",
        "route agreement n=5: first differing k=2: recurrence=14 series=15 closed=14")
    assert capsys.readouterr() == ("", "")


def test_run_builds_the_recurrence_route_once(monkeypatch):
    dist_recurrence, calls = stats.dist_recurrence, []

    def counted(sizes):
        calls.append(sizes)
        return dist_recurrence(sizes)

    monkeypatch.setattr(stats, "dist_recurrence", counted)
    assert all(verdict == "PASS" for verdict, _, _ in checks.run(6, 11))
    assert calls == [range(7)]


def _with_counts(rec, n, counts):
    return [stats.SpineDistribution(d.n, counts(d.counts), d.total) if d.n == n else d
            for d in rec]


# Size 4 loses its sum; size 5 keeps its sum, 42, with 14 and 9 swapped.
BROKEN = {
    "conservation n=4": (4, lambda c: (c[0] + 1, *c[1:])),
    "segment-sum identity n=5": (5, lambda c: (c[0], c[2], c[1], *c[3:])),
}


@pytest.mark.parametrize("label", sorted(BROKEN))
def test_identities_fail(label):
    rec = _with_counts(stats.dist_recurrence(range(7)), *BROKEN[label])
    assert checks.identities(rec) == ("FAIL", label, "")


@pytest.mark.parametrize("label", sorted(BROKEN))
def test_verify_exits_3_on_broken_identities(label, monkeypatch):
    rec = _with_counts(stats.dist_recurrence(range(7)), *BROKEN[label])
    monkeypatch.setattr(stats, "dist_recurrence", lambda sizes: rec)
    out = io.StringIO()
    assert main(["verify", "--max-n", "6"], out=out) == EXIT_VERIFY == 3
    assert f"FAIL {label}" in out.getvalue().splitlines()
