#!/usr/bin/env python3
"""spinestat benchmark: seeded workloads of CLI commands run as subprocesses.

    python3 perfbench/run.py --workload routes --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; nothing is installed.  Each
command runs as `<this python> -m spinestat <argv>` with src on PYTHONPATH,
one child process at a time (a closed loop with one client).  A pass runs
the workload's command list once; passes repeat until --seconds is spent.
Every output is checked with exact arithmetic (checks.py) after the pass's
clock has stopped.

--trace 0 reports the end-to-end metrics: wall_s, cpu_s and peak_rss_mb of a
pass (medians over passes) and setup_s, the median wall time of
`python -m spinestat --version`.  Failed commands stay in the timed passes
and are counted in `failed`; fail_frac = failed / attempted.

--trace 1 makes one tracemalloc pass, then alternates plain passes with
traced passes, in which every command runs under traced.py.  It reports the
per-layer metrics of layers.json: medians over the traced passes, memory
from the tracemalloc pass, and the tracing overhead (median traced pass wall
time over median plain pass wall time).

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it records the run: Python version, commit,
nproc, seed, the command list, quartiles and known defects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120
# A run ends within 180 s even if the program hangs: past this many seconds
# from the start, every child still running is killed and counts as failed.
RUN_LIMIT_S = 165
SETUP_PROBES = 5
PLAIN = [sys.executable, "-m", "spinestat"]
TRACED = [sys.executable, str(HERE / "traced.py"), "--"]
MEMORY = [sys.executable, str(HERE / "traced.py"), "--memory", "--"]
TRACE_PREFIX = "perfbench-trace "


class SetupError(Exception):
    """The program cannot be started from this checkout."""


@dataclass
class Child:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    children: list[Child]


class Spawner:
    """Runs each child through spawner.py (see there for why) and collects
    its output, exit code, wall and CPU time and peak RSS."""

    def __init__(self, env: dict):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "spawner.py"), str(theirs.fileno())],
                cwd=ROOT, env=env, pass_fds=[theirs.fileno()])
        self.pid: int | None = None

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
        self.sock.close()
        self.proc.wait()

    def _reply(self) -> dict:
        message = self.sock.recv(1 << 16)
        if not message:
            raise SetupError("the spawner process exited")
        return json.loads(message)

    def run(self, argv: list[str]) -> Child:
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        try:
            socket.send_fds(self.sock, [json.dumps(argv).encode()], [out_w, err_w])
        finally:
            os.close(out_w)
            os.close(err_w)
        self.pid = self._reply()["pid"]
        chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
        deadline: float | None = min(time.perf_counter() + CHILD_TIMEOUT_S, self.deadline)
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(None if deadline is None
                                   else max(0.0, deadline - time.perf_counter()))
                if not ready and deadline is not None:
                    os.kill(self.pid, signal.SIGKILL)  # then drain until EOF
                    deadline = None
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
                        os.close(key.fd)
        done = self._reply()
        self.pid = None
        return Child(done["code"], b"".join(chunks[out_r]), b"".join(chunks[err_r]),
                     done["wall"], done["cpu"], done["rss_mb"])


def run_pass(commands: list[list[str]], prefix: list[str], spawner: Spawner) -> Pass:
    t0 = time.perf_counter()
    children = [spawner.run(prefix + argv) for argv in commands]
    return Pass(time.perf_counter() - t0, sum(c.cpu for c in children),
                max(c.rss_mb for c in children), children)


class Checker:
    """Checks each output once; a repeat of the same bytes reuses the verdict."""

    def __init__(self, commands: list[list[str]]):
        self.commands = commands
        self.verdicts: dict = {}
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, run: Pass) -> None:
        for argv, child in zip(self.commands, run.children):
            key = (tuple(argv), child.code, blake2b(child.out).digest())
            if key not in self.verdicts:
                text = child.out.decode("utf-8", errors="replace")
                self.verdicts[key] = checks.check(argv, child.code, text)
            self.attempted += 1
            if self.verdicts[key]:
                self.errors.append(f"{' '.join(argv)}: {self.verdicts[key]}")


def probe_setup(spawner: Spawner) -> float:
    child = spawner.run(PLAIN + ["--version"])
    if child.code != 0 or not child.out.strip():
        tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
        raise SetupError(f"`spinestat --version` exited {child.code}: {' '.join(tail)}")
    return child.wall


def probe_defects(workload: str, spawner: Spawner) -> list[dict]:
    found = []
    for argv in workloads.KNOWN_DEFECTS.get(workload, []):
        child = spawner.run(PLAIN + argv)
        tail = child.err.decode(errors="replace").strip().splitlines()[-1:]
        found.append({"argv": " ".join(argv), "exit": child.code,
                      "verdict": checks.check(argv, child.code, child.out.decode(errors="replace"))
                      or "correct",
                      "stderr": " ".join(tail)})
    return found


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def trace_figures(run: Pass) -> list[dict]:
    """The figures each traced child reported on its last stderr line."""
    found = []
    for child in run.children:
        lines = child.err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_PREFIX):
            found.append(json.loads(lines[-1][len(TRACE_PREFIX):]))
    return found


def pass_total(reports: list[dict], name: str) -> float:
    values = [r["figures"][name] for r in reports if name in r["figures"]]
    if name.endswith(("_max", "_mb")):
        return max(values, default=0)
    return sum(values)


def merged_spans(reports: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for report in reports:
        for name, row in report["spans"].items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = max(into.get(key, 0), value) if key.startswith("max_") \
                    else into.get(key, 0) + value
    return merged


def measure_end_to_end(commands, spawner, seconds, checker):
    setup = [probe_setup(spawner) for _ in range(SETUP_PROBES)]
    start, passes = time.perf_counter(), []
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(commands, PLAIN, spawner))
        checker.check(passes[-1])
        setup.append(probe_setup(spawner))
    samples = {
        "wall_s": ("s", [p.wall for p in passes]),
        "cpu_s": ("s", [p.cpu for p in passes]),
        "peak_rss_mb": ("MB", [p.rss_mb for p in passes]),
        "setup_s": ("s", setup),
    }
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (unit, values) in samples.items()}
    return metrics, {"passes": len(passes),
                     "quartiles": {name: quartiles(v) for name, (_, v) in samples.items()}}


def measure_layers(commands, spawner, seconds, checker, layers):
    # The tracemalloc pass goes first, so that the timed pairs fill what is
    # left of --seconds and the run stays about as long as an untraced one.
    start = time.perf_counter()
    memory = run_pass(commands, MEMORY, spawner)
    checker.check(memory)
    plain, traced = [], []
    while not traced or (time.perf_counter() - start + plain[-1].wall + traced[-1].wall
                         <= seconds):
        for passes, prefix in ((plain, PLAIN), (traced, TRACED)):
            passes.append(run_pass(commands, prefix, spawner))
            checker.check(passes[-1])
    reports = [trace_figures(p) for p in traced]
    memory_reports = trace_figures(memory)
    metrics = {}
    for layer in layers["metrics"]:
        name = layer["name"]
        if name == "trace.overhead":
            value = (statistics.median(p.wall for p in traced)
                     / statistics.median(p.wall for p in plain))
        elif name.endswith("_mb"):
            value = pass_total(memory_reports, name)
        else:
            value = statistics.median(pass_total(r, name) for r in reports)
        metrics[name] = {"value": value, "unit": layer["unit"]}
    return metrics, {"passes": len(traced),
                     "plain_wall_s": quartiles([p.wall for p in plain]),
                     "traced_wall_s": quartiles([p.wall for p in traced]),
                     "spans": merged_spans(reports[0]),
                     "unmeasured": layers["unmeasured"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    commands = workloads.commands(args.workload, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    layers = json.loads((HERE / "layers.json").read_text())
    checker = Checker(commands)
    try:
        with Spawner(env) as spawner:
            probe_setup(spawner)  # warm-up: also writes the bytecode caches
            if args.trace:
                metrics, info = measure_layers(commands, spawner, args.seconds, checker, layers)
            else:
                metrics, info = measure_end_to_end(commands, spawner, args.seconds, checker)
            defects = probe_defects(args.workload, spawner)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for error in checker.errors[:10]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    failed = len(checker.errors)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "commit": commit(), "nproc": len(os.sched_getaffinity(0)),
        "commands": [" ".join(argv) for argv in commands],
        "fail_frac": {"failed": failed, "attempted": checker.attempted,
                      "value": failed / checker.attempted},
        "known_defects": defects,
        **info,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
