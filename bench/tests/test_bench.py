"""Tests of the benchmark itself: ``python3 -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import verify
from repro.graphs.generators import cycle_graph, path_graph

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics each workload must actually measure (non-zero),
#: beyond the ones that may legitimately read 0 on tiny inputs.
EXERCISED = {
    "solve-twok-plrg": ["cli.import_s", "storage.open_s", "kernels.two_k_s", "kernels.greedy_s",
                        "storage.checkpoint_write_s", "pipeline.serialize_s"],
    "solve-onek-gnm": ["cli.import_s", "kernels.one_k_s", "kernels.rounds", "kernels.swaps",
                       "storage.checkpoint_writes", "storage.io_sequential_scans"],
    "stream-ckpt-plrg": ["dynamic.apply_s", "dynamic.state_payload_s", "stream.load_s",
                         "stream.seed_solve_s", "stream.batch_self_s", "storage.checkpoint_writes"],
    "service-open-mix": ["service.run_s_p50", "service.attempts", "service.cache_hit_ratio"],
}


def _run(tmp_path, workload: str, trace: int, cwd: Path = BENCH.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "3", "--trace", str(trace), "--tiny", "--results-dir", str(tmp_path)],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, metric["name"]
    document = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert document["host"]["cpu_count"] >= 1 and document["host"]["affinity"]
    for fingerprint in document["inputs"].values():
        if "n" in fingerprint:
            assert {"n", "m", "max_degree", "degree_skew", "seed"} <= set(fingerprint)
    if trace:
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, name
        assert document["traces"], "a traced run writes its traces"
    if workload == "solve-twok-plrg" and trace:
        assert result["metrics"]["kernels.one_k_s"]["value"] == 0.0
        assert "kernels.one_k_s" in document["not_exercised"]
    if workload == "solve-onek-gnm" and trace:
        assert result["metrics"]["kernels.two_k_s"]["value"] == 0.0
        assert "kernels.two_k_s" in document["not_exercised"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero silently."""

    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = _run(tmp_path / "results", WORKLOADS[0], 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_operations_still_print_the_result_line(tmp_path, monkeypatch, capsys, trace):
    """A run whose operations all fail reports them instead of crashing."""

    import run

    def broken(bench):
        bench.check(False, "solve exited 1")
        raise RuntimeError("no output to read")

    monkeypatch.setattr(run, "workloads", lambda: {"broken": broken})
    code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--results-dir", str(tmp_path)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


def test_verifier_accepts_a_maximal_independent_set():
    assert verify.set_problem(path_graph(5), [0, 2, 4]) is None


def test_verifier_rejects_a_non_maximal_set():
    problem = verify.set_problem(path_graph(5), [0, 4])
    assert problem is not None and "not maximal" in problem


def test_verifier_rejects_a_non_independent_set():
    problem = verify.set_problem(cycle_graph(4), [0, 1, 2, 3])
    assert problem is not None and "not independent" in problem


def test_verifier_rejects_unknown_vertices():
    assert "not in the graph" in verify.set_problem(path_graph(3), [0, 2, 7])


def test_self_time_subtracts_covered_children():
    document = {"traceEvents": [
        {"name": "pipeline:x", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
        {"name": "stage:greedy", "ph": "X", "ts": 0, "dur": 30, "pid": 1, "tid": 0},
        {"name": "stage:one_k_swap", "ph": "X", "ts": 30, "dur": 60, "pid": 1, "tid": 0},
        {"name": "checkpoint:write", "ph": "X", "ts": 50, "dur": 10, "pid": 1, "tid": 0},
        {"name": "checkpoint:write", "ph": "X", "ts": 90, "dur": 5, "pid": 1, "tid": 0},
    ]}
    row = layers.solve_layers(document)
    assert row["kernels.greedy_s"] == pytest.approx(30e-6)
    assert row["kernels.one_k_s"] == pytest.approx(50e-6)
    assert "kernels.two_k_s" not in row
    assert row["storage.checkpoint_writes"] == 2.0
    assert row["pipeline.engine_self_s"] == pytest.approx(5e-6)


def _results(tmp_path, name, values, trace=False):
    paths = []
    for index, value in enumerate(values):
        path = tmp_path / f"{name}{index}.json"
        path.write_text(json.dumps({"workload": "w", "trace": trace, "result": {"metrics": {
            "throughput_per_ref": {"value": value, "unit": "1/ref"}}}}))
        paths.append(str(path))
    return paths


def test_compare_skips_traces_and_keeps_trace_modes_apart(tmp_path):
    trace = tmp_path / "w-seed1-trace0.bench.trace.json"
    trace.write_text(json.dumps({"traceEvents": [], "displayTimeUnit": "ms"}))
    base = _results(tmp_path, "base", [100, 101, 99, 100]) + [str(trace)]
    new = _results(tmp_path, "new", [100, 100, 101, 99])
    traced = _results(tmp_path, "traced", [50, 50, 51, 49], trace=True)
    rows = compare.compare(base + traced, new + traced)
    verdicts = {(row["workload"], row["metric"]): row for row in rows}
    assert verdicts[("w", "throughput_per_ref")]["verdict"] == "same"
    assert verdicts[("w", "throughput_per_ref")]["runs"] == [4, 4]
    assert verdicts[("w+trace", "throughput_per_ref")]["base_median"] == 50
    assert compare.main(["--base", *base, "--new", *new]) == 0


def test_compare_flags_regressions_and_noise(tmp_path):
    base = _results(tmp_path, "base", [100, 101, 99, 100, 100])
    worse = _results(tmp_path, "worse", [60, 61, 59, 60, 60])
    same = _results(tmp_path, "same", [101, 100, 102, 99, 100])
    noisy = _results(tmp_path, "noisy", [60, 140, 100, 80, 125])
    assert compare.compare(base, worse)[0]["verdict"] == "worse"
    assert compare.compare(base, same)[0]["verdict"] == "same"
    assert compare.compare(base, noisy)[0]["verdict"] == "unresolved"
    assert compare.main(["--base", *base, "--new", *worse]) == 1
