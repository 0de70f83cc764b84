#!/usr/bin/env python3
"""colorlab's benchmark: the audit, probe and count workloads.

Run from the repository root:

    python3 perfbench/run.py --workload {audit,probe,count} [--seed N]
                             [--seconds S] [--trace 0|1]

The program is imported from ``src/`` next to this directory; nothing needs
to be installed.  Load is a closed loop from one process with one caller and
no threads: each operation starts when the previous one has returned, and
cold ``colorlab`` processes are started one at a time.

``--trace 0`` measures the end-to-end metrics with tracing off:

* wall_s       median seconds of the operation as an API call, after warm-up
* cli_s        median seconds of the same operation as a cold ``colorlab``
               process (interpreter start, import, file parse, output)
* setup_s      median, over fresh processes, of ``import colorlab`` plus
               building the workload's inputs
* peak_rss_mb  peak resident memory of the cold ``colorlab`` processes
* ok_rate      operations with a correct answer / operations attempted

``--trace 1`` is a separate run for the per-layer metrics: the CLI path runs
in process through ``colorlab.cli.main``, once untraced and once with the
layer boundaries wrapped (see ``spans.py``).

Every operation's report is checked: the answer gate of its workload, the
input fingerprint, and byte equality with the first report of the run (API
and CLI alike).  A failed check or an exception is a failed operation, and
any failed operation makes the command exit 1.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the run's metadata, samples and spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 100
CLI_MAIN = "import sys; from colorlab.cli import main; sys.exit(main())"
CHILD_MAIN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import workloads; workloads.setup_child(*sys.argv[2:])"
)

END_TO_END = {
    "wall_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
PER_LAYER = {
    "build.construct_s": "s",
    "build.make_lists_s": "s",
    "build.make_lists_calls": "count",
    "choose.sample_s": "s",
    "choose.sample_calls": "count",
    "choose.sat_fraction": "ratio",
    "solve.indexed_s": "s",
    "solve.indexed_calls": "count",
    "solve.decode_s": "s",
    "solve.decide_self_s": "s",
    "engine.solve_colors_s": "s",
    "engine.solve_colors_calls": "count",
    "engine.nodes": "count",
    "engine.propagations": "count",
    "engine.solutions": "count",
    "engine.node_rate": "1/s",
    "engine.hamilton_s": "s",
    "engine.hamilton_nodes": "count",
    "engine.hamilton_node_rate": "1/s",
    "engine.share": "ratio",
    "verify.coloring_s": "s",
    "verify.planarity_s": "s",
    "verify.hamilton_replay_s": "s",
    "verify.cut_s": "s",
    "verify.matching_s": "s",
    "graphio.parse_s": "s",
    "graphio.serialize_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.span_coverage": "ratio",
    "trace.traced_wall_s": "s",
}


class Run:
    """One workload's inputs, its operations, and the tally of their checks."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.inputs = wl.build(name)
        self.fingerprint = wl.fingerprint(self.inputs)
        pinned = wl.FINGERPRINTS[name]
        self.input_problems = (
            [] if self.fingerprint == pinned else [f"inputs {self.fingerprint} != {pinned}"]
        )
        self.argv = wl.cli_argv(name, wl.write_files(name, self.inputs, workdir), seed)
        self.reference: str | None = None
        self.counters: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, what: str, op) -> float | None:
        """Run op() -> (seconds, report JSON) and check the report.

        Returns the seconds, or None when the operation failed.
        """
        self.attempted += 1
        try:
            seconds, report = op()
            problems = self.input_problems + wl.check_answer(self.name, report, self.seed)
            if self.reference is None and not problems:
                self.reference = report
                self.counters = wl.work_counters(self.name, report)
            elif report != self.reference:
                problems.append("report differs from the run's first report")
        except Exception as exc:  # noqa: BLE001 - every failure is tallied
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.errors.append(f"{what}: {problems[0]}")
            return None
        return seconds

    def api(self) -> tuple[float, str]:
        t0 = time.perf_counter()
        report = wl.run_api(self.name, self.inputs, self.seed)
        return time.perf_counter() - t0, report

    def cli_cold(self) -> tuple[float, str]:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *self.argv],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        seconds = time.perf_counter() - t0
        return seconds, _cli_report(proc.returncode, proc.stdout, proc.stderr)

    def cli_in_process(self) -> tuple[float, str]:
        import colorlab.cli

        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = colorlab.cli.main(list(self.argv))
        seconds = time.perf_counter() - t0
        return seconds, _cli_report(code, out.getvalue(), err.getvalue())

    def child_seconds(self, what: str) -> float:
        """Seconds a fresh process reports for `what` (see workloads.setup_child)."""
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_MAIN, str(HERE), self.name, what],
            env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{what} process failed: {proc.stderr.strip()[-300:]}")
        return float(proc.stdout)

    def child_median(self, what: str) -> float:
        self.child_seconds(what)  # untimed: writes bytecode caches in a fresh checkout
        return statistics.median(self.child_seconds(what) for _ in range(SETUP_SAMPLES))


def _cli_report(code: int, stdout: str, stderr: str) -> str:
    """The report a `colorlab` run printed: its stdout minus print's newline."""
    if code != 0:
        raise RuntimeError(f"colorlab exited {code}: {stderr.strip()[-300:]}")
    if not stdout.endswith("\n"):
        raise RuntimeError("colorlab output does not end with a newline")
    return stdout[:-1]


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def _repeat(seconds: float, body) -> None:
    """Call body() at least once, and again until the time left is less
    than half a call, so a run ends near `seconds` on average."""
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now + (now - t0) / 2 >= deadline:
            return


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.child_median("setup")
    run.attempt("warm-up", run.api)
    wall: list[float] = []
    cli: list[float] = []

    def pair():
        for samples, what, op in ((wall, "api", run.api), (cli, "cli", run.cli_cold)):
            s = run.attempt(what, op)
            if s is not None:
                samples.append(s)

    _repeat(seconds, pair)
    metrics = {
        "wall_s": _median(wall),
        "cli_s": _median(cli),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "ok_rate": (run.attempted - run.failed) / run.attempted,
    }
    return metrics, {"wall_s": wall, "cli_s": cli}


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict]:
    cli_import = run.child_median("cli-import")
    construct: list[float] = []
    plain: list[float] = []
    per_op: list[dict] = []
    last_spans: list[spans.Span] = []

    def traced_cli():
        nonlocal last_spans
        (_, report), wall, recorded = spans.record(run.cli_in_process)
        per_op.append(spans.op_metrics(recorded, wall))
        last_spans = recorded
        return wall, report

    def iteration():
        _, _, built = spans.record(wl.build, run.name)
        construct.append(sum(s.duration for s in built if s.parent < 0))
        s = run.attempt("cli-in-process", run.cli_in_process)
        if s is not None:
            plain.append(s)
        run.attempt("cli-in-process-traced", traced_cli)

    _repeat(seconds, iteration)
    metrics = {name: _median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
    traced = _median([m["trace.traced_wall_s"] for m in per_op])
    metrics.update(
        {
            "build.construct_s": _median(construct),
            "cli.import_s": cli_import,
            "trace.overhead_frac": traced / _median(plain) - 1 if plain and traced else 0.0,
        }
    )
    metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
    t0 = last_spans[0].start if last_spans else 0.0
    samples = {
        "cli_in_process_s": plain,
        "per_op": per_op,
        "last_op_spans": [
            [s.layer, s.parent, s.start - t0, s.duration] for s in last_spans
        ],
    }
    return metrics, samples


def metadata(seed: int) -> dict:
    from colorlab import engine

    return {
        "python": platform.python_version(),
        "backend": engine.BACKEND_NAME,
        "backend_is_pure_python": engine.BACKEND_NAME == "python",
        "git_head": _git_head(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
    }


def _git_head() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "probe", "count"))
    parser.add_argument("--seed", type=int, default=0, help="probe seed (default 0)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "colorlab" / "__init__.py").is_file():
        print(f"error: no colorlab sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import colorlab

    if Path(colorlab.__file__).resolve().parent != SRC / "colorlab":
        print(f"error: imported colorlab from {colorlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    meta = metadata(args.seed)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        run = Run(args.workload, args.seed, workdir)
        measure = measure_layers if args.trace else measure_end_to_end
        try:
            metrics, samples = measure(run, args.seconds)
        except spans.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    units = PER_LAYER if args.trace else END_TO_END

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "fingerprint": run.fingerprint,
        "work_counters": run.counters,
        "errors": run.errors,
        "metrics": metrics,
        "samples": samples,
    }
    with open(WORK / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    flag = "" if meta["backend_is_pure_python"] else "  (NOT the pure-Python kernel)"
    print(
        f"# python {meta['python']}  backend {meta['backend']}{flag}  "
        f"git {meta['git_head']}  nproc {meta['nproc']}"
    )
    pinned = "ok" if not run.input_problems else "MISMATCH"
    print(f"# inputs {json.dumps(run.fingerprint)}  pinned: {pinned}")
    print(f"# work {json.dumps(run.counters)}")
    counts = {name: len(v) for name, v in samples.items() if name != "last_op_spans"}
    print(f"# samples per median {json.dumps(counts)}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>16.6f} {units[name]}")
    print(f"{'error_rate':<28} {run.failed / run.attempted:>16.6f} ratio  ({run.failed}/{run.attempted})")
    for err in run.errors[:5]:
        print(f"# failed {err}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
