#!/usr/bin/env python3
"""The repository benchmark: one command, named workloads, checked outputs.

Run from the repository root::

    python3 bench/run.py --workload solve-twok-plrg --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate traced run that reports the per-layer
metrics, derived from the program's Chrome trace (``SpanTracer``, the
engine's ``--trace``) plus the benchmark's own spans around calls into
each layer.  Metric names, units and bounds live in ``BENCHMARK.json`` at
the repository root; ``bench/README.md`` says what each one means.

Inputs are generated from ``--seed`` (fixture work, outside every
metric).  Every output is checked; a failed check counts in ``failed``
and makes the exit status 1.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file with the host and input fingerprints, the
raw samples and the paths of the written traces goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Wall-clock cap of one child process; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0

#: Unit and better direction of the numbers a workload prints and stores
#: without a bound (``Bench.reported``).
REPORTED = {
    "solve_s": ("s", "lower"),
    "solve_p90_s": ("s", "lower"),
    "updates_per_s": ("1/s", "higher"),
    "batch_p50_ms": ("ms", "lower"),
    "batch_p90_ms": ("ms", "lower"),
    "job_p50_s": ("s", "lower"),
    "job_p90_s": ("s", "lower"),
    "hit_p50_s": ("s", "lower"),
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}") from None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linearly interpolated percentile, ``pct`` in 0..100."""

    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


class Child:
    """Outcome of one child process."""

    def __init__(self, code: int, wall_s: float, rss_mb: float, out: str, err: str):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.out = out
        self.err = err

    def json(self) -> dict:
        """The child's JSON document (its whole stdout)."""

        return json.loads(self.out)


class Bench:
    """State of one benchmark run, handed to the workload functions."""

    def __init__(
        self,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        tiny: bool,
        results_dir: Path,
    ) -> None:
        from repro.obs import SpanTracer

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.results_dir = results_dir
        self.run_name = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = ROOT / ".bench_work" / f"{self.run_name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        #: Numbers printed and stored but not benchmark metrics (no bound),
        #: such as tail latencies too noisy to bound on a small host.
        self.reported: Dict[str, float] = {}
        self.inputs: Dict[str, dict] = {}
        self.samples: Dict[str, list] = {}
        self.traces: List[str] = []
        self.not_exercised: List[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(HERE)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        #: The benchmark's own spans (calls into each layer, child
        #: processes), written next to the results.
        self.tracer = SpanTracer(process_name="bench")

    # -- bookkeeping ----------------------------------------------------
    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it as failed when not ``ok``."""

        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return bool(ok)

    def path(self, name: str) -> str:
        return str(self.work / name)

    # -- child processes -------------------------------------------------
    def repro_cmd(self, *args: str) -> List[str]:
        """A ``repro-mis`` command line (the package's ``python -m`` entry)."""

        return [sys.executable, "-m", "repro", *args]

    def run_child(self, cmd: List[str], what: str) -> Child:
        """Run ``cmd`` to completion and time it from the outside.

        The peak RSS is the child's own ``ru_maxrss`` from ``wait4``; it
        also covers the grandchildren the child waited for.
        """

        stamp = f"{what}-{time.monotonic_ns()}"
        out_path = self.work / f"{stamp}.out"
        err_path = self.work / f"{stamp}.err"
        mark = self.tracer.now()
        start = time.perf_counter()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, cwd=str(self.work), env=self.env, stdout=out, stderr=err
            )
            code, rusage = wait_rusage(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        self.tracer.add_span(f"bench:{what}", "bench", mark, self.tracer.now())
        text = out_path.read_text("utf-8", "replace")
        errors = err_path.read_text("utf-8", "replace")
        out_path.unlink()
        err_path.unlink()
        return Child(code, wall, rusage.ru_maxrss / 1024.0, text, errors)

    # -- output ----------------------------------------------------------
    def write_trace(self, document: dict, name: str) -> dict:
        """Write a trace next to the results after checking its schema."""

        from repro.obs import validate_trace

        problems = validate_trace(document)
        self.check(not problems, f"trace {name} fails validate_trace: {problems[:3]}")
        path = self.results_dir / f"{self.run_name}.{name}.trace.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        self.traces.append(os.path.relpath(path, ROOT))
        return document


def wait_rusage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with ``wait4`` (killing it past ``timeout``).

    Returns ``(exit code, rusage)``; a timed-out child is killed and
    reported with exit code -9.
    """

    deadline = time.monotonic() + timeout
    delay = 0.001
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            proc.kill()
            _pid, status, rusage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        time.sleep(delay)
        delay = min(delay * 2, 0.01)


def host_fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def workloads() -> Dict[str, object]:
    """Workload name -> function(bench) filling ``bench.metrics``/``layers``."""

    import service_load
    import solves
    import stream_load

    return {
        "solve-twok-plrg": solves.run_twok_plrg,
        "solve-onek-gnm": solves.run_onek_gnm,
        "stream-ckpt-plrg": stream_load.run,
        "service-open-mix": service_load.run,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs and short runs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--results-dir",
        default=str(ROOT / ".bench_results"),
        help="where the results file and traces go",
    )
    return parser


def emit(bench: Bench, spec: dict) -> dict:
    """Assemble the final JSON line (every metric of the mode, with units)."""

    declared = spec["per_layer"] if bench.trace else spec["end_to_end"]
    source = bench.layers if bench.trace else bench.metrics
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing and not bench.trace and not bench.failed:
        raise BenchError(f"workload {bench.workload} did not measure {missing}")
    # A layer this workload does not exercise reads 0 (listed in the
    # results file under "not_exercised"), and so does a metric that
    # failed operations left unmeasured (the run is then not correct).
    bench.not_exercised = missing
    source = dict(source, **{name: 0.0 for name in missing})
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            m["name"]: {"value": float(source[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }


def print_table(bench: Bench, result: dict, spec: dict) -> None:
    """Human-readable lines before the JSON line."""

    declared = spec["per_layer"] if bench.trace else spec["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}
    print(f"# {bench.run_name}: {bench.attempted} checked, {bench.failed} failed")
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:16.6g} {entry['unit']:10s} ({better[name]} is better)")
    error_rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{'error_rate':32s} {error_rate:16.6g} {'fraction':10s} (lower is better)")
    for name, value in sorted(bench.reported.items()):
        unit, direction = REPORTED[name]
        print(f"{name:32s} {value:16.6g} {unit:10s} ({direction} is better; no bound)")
    for key, values in sorted(bench.samples.items()):
        print(f"# samples {key}: {len(values)}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program sources ({SRC.name}/repro) are missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        spec = load_spec()
        table = workloads()
        if args.workload not in table:
            raise BenchError(
                f"unknown workload {args.workload!r}; known: {', '.join(table)}"
            )
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        results_dir = Path(args.results_dir).resolve()
        results_dir.mkdir(parents=True, exist_ok=True)
        bench = Bench(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            args.tiny,
            results_dir,
        )
        bench.work.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        try:
            table[args.workload](bench)
        except BenchError:
            raise
        except Exception as exc:  # a broken program still gets its result line
            traceback.print_exc()
            bench.check(False, f"{args.workload} raised {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        bench.write_trace(bench.tracer.to_document(), "bench")
        result = emit(bench, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = {
        "workload": bench.workload,
        "seed": bench.seed,
        "seconds": bench.seconds,
        "trace": bench.trace,
        "tiny": bench.tiny,
        "host": host_fingerprint(),
        "inputs": bench.inputs,
        "result": result,
        "layers": bench.layers,
        "reported": bench.reported,
        "not_exercised": bench.not_exercised,
        "error_rate": bench.failed / bench.attempted if bench.attempted else 1.0,
        "failures": bench.failures,
        "samples": bench.samples,
        "traces": bench.traces,
        "run_wall_s": time.perf_counter() - started,
    }
    results_file = results_dir / f"{bench.run_name}.json"
    with open(results_file, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print_table(bench, result, spec)
    print(f"# results: {results_file}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
