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
# bring in inspect, and typing comes with many modules.  array packs the int
# code levels that verify's bijection check and enumerate read, so those two
# commands load it and no other does.
DEFERRED = {"dataclasses", "inspect", "typing", "json", "csv", "fractions", "decimal",
            "array", "spinestat.checks", "spinestat.asymptotics"}

# The spinestat modules that every command loads: the package, the CLI, and
# the report path's stats and errors.
BASE = {"spinestat", "spinestat.cli", "spinestat.errors", "spinestat.stats"}

# The spinestat modules each command line loads besides BASE: the layers it
# runs, and no other.  series comes with the Catalan totals of dist and of
# average up to n = 34; limit, average from n = 35 on and sample compute
# theirs without it.
SERIES = {"spinestat.series"}
LAYERS = {
    ("dist", "--n", "0"): SERIES,
    ("dist", "--n", "6"): SERIES,
    ("dist", "--n", "6", "--method", "series"): SERIES,
    ("dist", "--n", "6", "--method", "closed"): SERIES,
    ("dist", "--n", "6", "--method", "exhaustive"): SERIES | {"spinestat.trees"},
    ("average", "--n", "5"): SERIES,
    ("average", "--n", "34"): SERIES,
    ("average", "--n", "35"): set(),
    ("average", "--n", "40"): set(),
    ("limit", "--k", "3"): set(),
    ("sample", "--n", "5", "--samples", "10", "--seed", "1"): {"spinestat.sampler"},
    ("enumerate", "--n", "3"): {"spinestat.trees", "spinestat._codetext"},
    ("--version",): set(),
}


def package(modules):
    """The spinestat modules among `modules`."""
    return {name for name in modules if name == "spinestat" or name.startswith("spinestat.")}


def modules_after(code):
    """The last stdout line of `code`, split, run in a fresh interpreter
    without the site module (whose .pth files may import anything).  Its
    stdout writes through, as under PYTHONUNBUFFERED=1."""
    cp = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                        text=True, env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"})
    assert cp.returncode == 0, cp.stderr
    return cp.stdout.splitlines()[-1].split()


def loaded(*argv, out="io.StringIO()"):
    """The exit code of cli.main(argv, out) and the names in sys.modules after
    it, as modules_after runs it."""
    exit_code, *modules = modules_after("import io, sys\n"
                                        "from spinestat import cli\n"
                                        f"code = cli.main({list(argv)!r}, out={out})\n"
                                        "print(code, *sorted(sys.modules))\n")
    return int(exit_code), set(modules)


@pytest.mark.parametrize("argv", LAYERS, ids=" ".join)
def test_text_commands_load_no_deferred_module(argv):
    code, modules = loaded(*argv)
    assert code == 0
    assert package(modules) == BASE | LAYERS[argv]
    assert modules & DEFERRED == ({"array"} if argv[0] == "enumerate" else set())
    assert ("random" in modules) == (argv[0] == "sample")


@pytest.mark.parametrize("argv", [("--version",), ("dist", "--n", "6", "--method", "exhaustive")],
                         ids=" ".join)
def test_the_module_entry_point_loads_the_same_layers(argv):
    # `python -m spinestat` imports the package and runs its __main__, which
    # imports cli; -X importtime names every module imported on the way.
    cp = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "spinestat", *argv],
                        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert cp.returncode == 0, cp.stderr
    imported = {line.rpartition("|")[2].strip() for line in cp.stderr.splitlines()
                if line.startswith("import time:")}
    assert package(imported) == BASE | LAYERS[argv]


def test_a_bare_import_loads_no_submodule():
    assert package(modules_after("import sys, spinestat; print(*sys.modules)")) == {"spinestat"}


def test_the_sampler_loads_no_other_layer():
    # Neither trees nor stats: `sample` compiles neither for its draws.
    assert package(modules_after("import sys, spinestat.sampler; print(*sys.modules)")) == {
        "spinestat", "spinestat.sampler"}


def test_writing_stdout_loads_no_deferred_module():
    code, modules = loaded("dist", "--n", "6", out="None")
    assert code == 0
    assert package(modules) == BASE | SERIES
    assert not modules & DEFERRED


# Every format is written as text is, and loads no module of its own: the
# json form's writer would be json, which no command loads.  A report
# without columns has no csv form and writes its text instead.
@pytest.mark.parametrize("argv, module", [
    (("dist", "--n", "6", "--format", "json"), "json"),
    (("dist", "--n", "0", "--format", "json"), "json"),
    (("dist", "--n", "6", "--format", "csv"), None),
    (("sample", "--n", "5", "--samples", "10", "--seed", "1", "--format", "csv"), None),
    (("sample", "--n", "5", "--samples", "10", "--seed", "1", "--format", "json"), "json"),
    (("average", "--n", "5", "--format", "json"), "json"),
    (("average", "--n", "40", "--format", "json"), "json"),
    (("limit", "--k", "3", "--format", "csv"), None),
    (("limit", "--k", "3", "--format", "json"), "json"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_a_format_loads_only_its_module(argv, module):
    code, modules = loaded(*argv)
    assert code == 0
    assert package(modules) == BASE | LAYERS[argv[:-2]]
    assert module not in modules
    assert not modules & DEFERRED


def test_verify_loads_checks():
    code, modules = loaded("verify", "--max-n", "3")
    assert code == 0
    # _fault, which names a failing level's first fault, loads only on a FAIL.
    assert package(modules) == BASE | SERIES | {"spinestat.trees", "spinestat.checks"}
    assert not modules & (DEFERRED - {"spinestat.checks", "array"})


def test_every_exported_name_resolves():
    for name in spinestat.__all__:
        assert getattr(spinestat, name) is not None, name


def test_dir_lists_every_exported_name():
    assert set(spinestat.__all__) <= set(dir(spinestat))


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
