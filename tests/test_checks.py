"""verify's checks as a library: each returns (verdict, label, detail) and
prints nothing."""

import pytest

from spinestat import checks, stats

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
