"""Cold-process benchmark for bernocchi.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Every operation runs in a fresh interpreter (`python -m bernocchi.cli ...`, or
the cross-check script), so the process-global memos start empty as they do
for a user.  One generator runs one child at a time and waits for it (a
closed loop with one client): the target machine has 2 cores.  Each child
gets a benchmark-owned BERNOCCHI_CACHE_DIR, and every output is checked
against the independent reference in reference.py.

With --trace 0 the end-to-end metrics are printed.  The host is shared and
its speed drifts by tens of percent over minutes, so calibrate.py is timed
before and after every program run and each wall time is scaled by
REFERENCE_NOMINAL_S over the mean of those two; the raw times are kept in the
record.  With --trace 1 each operation runs twice, untraced and then under
traced.py, and the per-layer metrics are printed: means per traced process,
plus the traced/untraced wall-time ratio (raw times).  The last stdout line
is the JSON result; the line before it records the seed, the generated
inputs, the per-run times and the environment.
`bernocchi bench` is not used: it warms the memos before timing.
"""
from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from reference import bernoulli_numbers, genocchi, rational_text
from summary import layer_metrics, mean_trace, ratio, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VERIFY_MAX_N = 100
TABLE_MAX_N = 500
CACHE_ROWS = 300
COMPUTE_MAX_N = 64
CROSSCHECK_GENOCCHI_MAX_K = 60  # crosscheck.GENOCCHI_MAX_K
HELP_SETUP_RUNS = 7
CACHE_SETUP_RUNS = 3
OPERATION_TIMEOUT_S = 60.0
# Wall time of calibrate.py on a quiet host (2-core VM at 2.1 GHz, Python
# 3.11): reported times are what a run would take at that host speed.
REFERENCE_NOMINAL_S = 0.22

TRUSTED_FORMULAS = (
    "SERIES_ORACLE",
    "HIGGINS_9",
    "STIRLING_SINGLE_10",
    "GOULD_DOUBLE_11",
    "STIRLING_RATIO_12",
    "FAULHABER_RECURSION_13",
    "DOUBLE_STIRLING_15",
    "GENOCCHI_THEOREM_16",
)
EVEN_ONLY = {"FAULHABER_RECURSION_13", "DOUBLE_STIRLING_15"}

# Per-layer metrics of the set-up step that are reported under "setup.".
SETUP_LAYER_METRICS = (
    "cli.self_s",
    "stirling.build_s",
    "stirling.save_s",
    "stirling.file_bytes",
    "stirling.rows_built",
)


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    timed_out: bool


@dataclass(frozen=True)
class Op:
    """One program run: its recorded input, how to run it, how to check it."""

    label: str
    cli_args: tuple[str, ...] | None  # None: the cross-check script
    check: Callable[[Proc], str | None]  # why the output of a run that exited 0 is wrong, or None


class Bench:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.cache_dir.mkdir()
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC),
            BERNOCCHI_CACHE_DIR=str(self.cache_dir),
            PYTHONHASHSEED="0",
        )
        self.trace_path = workdir / "trace.json"

    def argv(self, op: Op, traced: bool) -> list[str]:
        if traced:
            tail_args = ["--crosscheck"] if op.cli_args is None else ["--", *op.cli_args]
            return [sys.executable, str(HERE / "traced.py"), str(self.trace_path), *tail_args]
        if op.cli_args is None:
            return [sys.executable, str(HERE / "crosscheck.py")]
        return [sys.executable, "-m", "bernocchi.cli", *op.cli_args]

    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion; wall time, peak RSS, exit code, output."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(child.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], OPERATION_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                child.kill()
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            code=child.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            timed_out=not ready,
        )

    def run(self, op: Op, traced: bool = False) -> tuple[Proc, str | None, dict | None]:
        if traced:
            self.trace_path.unlink(missing_ok=True)
        proc = self.spawn(self.argv(op, traced))
        try:
            problem = "timed out" if proc.timed_out else _exit_problem(proc) or op.check(proc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:  # garbled output
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        trace = None
        if traced and problem is None:
            try:
                trace = json.loads(self.trace_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problem = f"no trace: {exc}"
        return proc, problem, trace

    def reference(self) -> float:
        """Wall time of one run of calibrate.py."""
        proc = self.spawn([sys.executable, str(HERE / "calibrate.py")])
        if proc.code != 0:
            raise RuntimeError(f"calibrate.py failed: {proc.stderr.strip()[-300:]}")
        return proc.wall_s

    def cache_files(self) -> list[str]:
        return sorted(p.name for p in self.cache_dir.iterdir())


# --- checks -----------------------------------------------------------------


def _exit_problem(proc: Proc) -> str | None:
    if proc.code != 0:
        return f"exit {proc.code}: {proc.stderr.strip()[-300:]}"
    return None


def check_help(proc: Proc) -> str | None:
    return None if "usage:" in proc.stdout else "no usage text"


def no_cache_file(bench: Bench, check: Callable[[Proc], str | None]):
    def checked(proc: Proc) -> str | None:
        files = bench.cache_files()
        return check(proc) or (f"cache file present: {files}" if files else None)

    return checked


def check_verify(reference: list) -> Callable[[Proc], str | None]:
    def check(proc: Proc) -> str | None:
        report = json.loads(proc.stdout)
        if report["verdict"] != "ALL_TRUSTED_AGREE":
            return f"verdict {report['verdict']}"
        got = [(r["n"], r["consensus"]) for r in report["records"]]
        want = [(n, rational_text(b)) for n, b in enumerate(reference[: VERIFY_MAX_N + 1])]
        return None if got == want else "consensus differs from the reference"

    return check


def check_table(reference: list) -> Callable[[Proc], str | None]:
    want = [f"{n} {rational_text(b)}" for n, b in enumerate(reference[: TABLE_MAX_N + 1])]

    def check(proc: Proc) -> str | None:
        return None if proc.stdout.splitlines() == want else "table differs from the reference"

    return check


def check_value(want: str) -> Callable[[Proc], str | None]:
    def check(proc: Proc) -> str | None:
        got = proc.stdout.strip()
        return None if got == want else f"value {got[:80]} differs from the reference"

    return check


def check_cache_build(bench: Bench) -> Callable[[Proc], str | None]:
    def check(proc: Proc) -> str | None:
        return None if bench.cache_files() else "cache build wrote no file"

    return check


def check_crosscheck(reference: list) -> Callable[[Proc], str | None]:
    want = [
        rational_text(genocchi(k, reference[k])) for k in range(1, CROSSCHECK_GENOCCHI_MAX_K + 1)
    ]

    def check(proc: Proc) -> str | None:
        result = json.loads(proc.stdout.splitlines()[-1])
        if result["mismatches"]:
            return f"routes disagree: {result['mismatches'][:5]}"
        return None if result["genocchi"] == want else "Genocchi values differ from the reference"

    return check


# --- workloads --------------------------------------------------------------


def compute_inputs(rng: random.Random) -> Iterator[tuple[str, int]]:
    """Endless seeded (trusted formula, applicable n <= COMPUTE_MAX_N) pairs."""
    while True:
        formula = rng.choice(TRUSTED_FORMULAS)
        if formula in EVEN_ONLY:
            n = 2 * rng.randint(1, COMPUTE_MAX_N // 2)
        else:
            n = rng.randint(1 if formula == "GENOCCHI_THEOREM_16" else 0, COMPUTE_MAX_N)
        yield formula, n


def workload(name: str, bench: Bench, seed: int) -> tuple[Op, int, Iterator[Op]]:
    """(set-up step, how many times to time it, endless operations)."""
    help_op = Op("--help", ("--help",), check_help)
    if name == "verify-sweep":
        reference = bernoulli_numbers(VERIFY_MAX_N)
        args = ("verify", "--max-n", str(VERIFY_MAX_N), "--format", "json")
        op = Op(" ".join(args), args, no_cache_file(bench, check_verify(reference)))
        return help_op, HELP_SETUP_RUNS, itertools.repeat(op)
    if name == "table-bernoulli":
        reference = bernoulli_numbers(TABLE_MAX_N)
        args = ("table", "bernoulli", str(TABLE_MAX_N))
        op = Op(" ".join(args), args, no_cache_file(bench, check_table(reference)))
        return help_op, HELP_SETUP_RUNS, itertools.repeat(op)
    if name == "compute-cached":
        reference = bernoulli_numbers(COMPUTE_MAX_N)
        args = ("cache", "build", str(CACHE_ROWS))
        setup = Op(" ".join(args), args, check_cache_build(bench))

        def ops() -> Iterator[Op]:
            for formula, n in compute_inputs(random.Random(seed)):
                value = reference[n]
                if formula == "GENOCCHI_THEOREM_16":
                    value = genocchi(n, value)
                args = ("compute", formula, str(n))
                yield Op(" ".join(args), args, check_value(rational_text(value)))

        return setup, CACHE_SETUP_RUNS, ops()
    if name == "crosscheck":
        reference = bernoulli_numbers(CROSSCHECK_GENOCCHI_MAX_K)
        return help_op, HELP_SETUP_RUNS, itertools.repeat(Op("crosscheck", None, check_crosscheck(reference)))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-sweep", "table-bernoulli", "compute-cached", "crosscheck")


# --- one run ----------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload for about `seconds`; (result, record)."""
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        bench = Bench(workdir)
        setup, setup_runs, ops = workload(name, bench, seed)
        deadline = time.perf_counter() + seconds
        attempted = failed = 0
        problems: list[str] = []
        references = [] if trace else [bench.reference()]

        def tally(label: str, problem: str | None) -> bool:
            """Count one checked run; True when it timed out."""
            nonlocal attempted, failed
            attempted += 1
            if problem is not None:
                failed += 1
                problems.append(f"{label}: {problem}")
            return problem == "timed out"

        def timed(op: Op) -> tuple[Proc, bool, float]:
            """Run op untraced, then the reference; (proc, timed out, scaled wall)."""
            proc, problem, _ = bench.run(op)
            timed_out = tally(op.label, problem)
            references.append(bench.reference())
            return proc, timed_out, proc.wall_s * REFERENCE_NOMINAL_S / statistics.fmean(references[-2:])

        setup_walls, setup_traces = [], []
        for _ in range(setup_runs):
            if trace:
                proc, problem, data = bench.run(setup, traced=True)
                tally(setup.label, problem)
                if data is not None:
                    setup_traces.append(data)
            else:
                setup_walls.append(timed(setup)[2])

        walls, raw_walls, rss, traced_walls, traces, stdout_bytes, inputs = [], [], [], [], [], [], []
        iteration_s = []
        for op in ops:
            started = time.perf_counter()
            inputs.append(op.label)
            if trace:
                proc, problem, _ = bench.run(op)
                timed_out = tally(op.label, problem)
                walls.append(proc.wall_s)
                proc, problem, data = bench.run(op, traced=True)
                timed_out |= tally(f"{op.label} (traced)", problem)
                traced_walls.append(proc.wall_s)
                if data is not None:
                    traces.append(data)
                    stdout_bytes.append(len(proc.stdout.encode()) if op.cli_args else 0)
            else:
                proc, timed_out, scaled = timed(op)
                walls.append(scaled)
                raw_walls.append(proc.wall_s)
                rss.append(proc.rss_mb)
            iteration_s.append(time.perf_counter() - started)
            if timed_out or time.perf_counter() + statistics.median(iteration_s) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = layer_metrics(mean_trace(traces)) if traces else {}
        metrics["cli.stdout_bytes"] = statistics.fmean(stdout_bytes) if stdout_bytes else 0.0
        metrics["trace.overhead_ratio"] = ratio(
            statistics.median(traced_walls), statistics.median(walls)
        )
        setup_metrics = layer_metrics(mean_trace(setup_traces)) if setup_traces else {}
        for key in SETUP_LAYER_METRICS:
            metrics[f"setup.{key}"] = setup_metrics.get(key, 0.0)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.fmean(rss),
            "setup_s": statistics.median(setup_walls),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup": setup.label,
        "setup_runs": setup_runs,
        "inputs": inputs,
        "operations": len(walls),
        "walls_s": walls,
        "raw_walls_s": raw_walls,
        "reference_walls_s": references,
        "wall_raw_s": statistics.median(raw_walls) if raw_walls else None,
        "wall_tail_s": tail(walls),
        "failed_ratio": ratio(failed, attempted),
        "problems": problems[:20],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
    }
    return result, record


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bernocchi" / "cli.py").is_file():
        print(f"run.py: no bernocchi sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("run.py: bernocchi sources do not compile", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"record": record}), flush=True)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:16} {metric:40} {m['value']:.6g} {m['unit']}")
        print(f"{name:16} {'failed_ratio':40} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": m for name, r in results.items() for metric, m in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
