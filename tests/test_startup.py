"""What a command loads: each CLI start imports only the modules the command
runs, and the package's lazily loaded names still resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinestat
from spinestat import asymptotics, cli, stats, trees

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules no text-format computing command needs; dataclasses would also
# bring in inspect, and typing comes with many modules.
DEFERRED = {"dataclasses", "inspect", "typing", "json", "csv", "fractions", "decimal",
            "spinestat.checks", "spinestat.asymptotics"}


def loaded(*argv, out="io.StringIO()"):
    """The exit code of cli.main(argv, out) and the names in sys.modules after
    it, in a fresh interpreter without the site module (whose .pth files may
    import anything).  Its stdout writes through, as under PYTHONUNBUFFERED=1."""
    code = ("import io, sys\n"
            "from spinestat import cli\n"
            f"code = cli.main({list(argv)!r}, out={out})\n"
            "print(code, *sorted(sys.modules))\n")
    cp = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                        env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"})
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


def test_writing_stdout_loads_no_deferred_module():
    code, modules = loaded("dist", "--n", "6", out="None")
    assert code == 0
    assert not modules & DEFERRED


# csv is written as text is, with no module of its own.  A report without
# columns has no csv form and writes its text instead.
@pytest.mark.parametrize("argv, module", [
    (("dist", "--n", "6", "--format", "json"), "json"),
    (("dist", "--n", "6", "--format", "csv"), None),
    (("sample", "--n", "5", "--samples", "10", "--seed", "1", "--format", "csv"), None),
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
    # Removed public names raise as an unknown name does.
    for name in ("nonesuch", "weighted_sum", "sample_uniform", "BinaryTree", "EXTERNAL",
                 "encode", "decode", "successors", "predecessor", "size", "spine_segments",
                 "enumerate_trees", "MalformedCode"):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(spinestat, name)
        assert name not in spinestat.__all__
    with pytest.raises(ImportError):
        from spinestat import nonesuch  # noqa: F401
    with pytest.raises(ImportError):
        from spinestat.series import ps_from  # noqa: F401
    for module, name in ((trees, "enumerate_marked"), (stats, "dist_closed_all"),
                         (trees, "BinaryTree"), (trees, "_fold"), (cli, "_Batches")):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(module, name)
