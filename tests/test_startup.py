"""What a command loads: each CLI start imports only the modules the command
runs, and the package's lazily loaded names still resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinestat
from spinestat import asymptotics

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules no text-format computing command needs; dataclasses would also
# bring in inspect, and typing comes with many modules.
DEFERRED = {"dataclasses", "inspect", "typing", "json", "csv", "fractions", "decimal",
            "spinestat.checks", "spinestat.asymptotics"}


def loaded(*argv):
    """The exit code of cli.main(argv) and the names in sys.modules after it,
    in a fresh interpreter without the site module (whose .pth files may
    import anything)."""
    code = ("import io, sys\n"
            "from spinestat import cli\n"
            f"code = cli.main({list(argv)!r}, out=io.StringIO())\n"
            "print(code, *sorted(sys.modules))\n")
    cp = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": SRC})
    assert cp.returncode == 0, cp.stderr
    exit_code, *modules = cp.stdout.splitlines()[-1].split()
    return int(exit_code), set(modules)


@pytest.mark.parametrize("argv", [
    ("dist", "--n", "6"),
    ("dist", "--n", "6", "--method", "series"),
    ("dist", "--n", "6", "--method", "closed"),
    ("dist", "--n", "6", "--method", "exhaustive"),
    ("average", "--n", "5"),
    ("average", "--n", "40"),
    ("limit", "--k", "3"),
    ("sample", "--n", "5", "--samples", "10", "--seed", "1"),
    ("enumerate", "--n", "3"),
    ("--version",),
], ids=" ".join)
def test_text_commands_load_no_deferred_module(argv):
    code, modules = loaded(*argv)
    assert code == 0
    assert not modules & DEFERRED
    assert ("random" in modules) == (argv[0] == "sample")


# A report without columns has no csv form and writes its text instead.
@pytest.mark.parametrize("argv, module", [
    (("dist", "--n", "6", "--format", "json"), "json"),
    (("dist", "--n", "6", "--format", "csv"), "csv"),
    (("sample", "--n", "5", "--samples", "10", "--seed", "1", "--format", "csv"), "csv"),
    (("average", "--n", "5", "--format", "json"), "json"),
    (("limit", "--k", "3", "--format", "csv"), None),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_a_format_loads_only_its_module(argv, module):
    code, modules = loaded(*argv)
    assert code == 0
    assert modules & DEFERRED == ({module} if module else set())


def test_verify_loads_checks():
    code, modules = loaded("verify", "--max-n", "3")
    assert code == 0
    assert "spinestat.checks" in modules
    assert not modules & (DEFERRED - {"spinestat.checks"})


def test_every_exported_name_resolves():
    for name in spinestat.__all__:
        assert getattr(spinestat, name) is not None, name


def test_limit_names_come_from_asymptotics():
    from spinestat import limit_fraction, moment_sums, tau

    assert (limit_fraction, moment_sums, tau) == (
        asymptotics.limit_fraction, asymptotics.moment_sums, asymptotics.tau)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        spinestat.nonesuch
    with pytest.raises(ImportError):
        from spinestat import nonesuch  # noqa: F401
