"""Workload ``service-open-mix``: a live ``repro-mis serve`` fed open-loop.

One client submits jobs through :meth:`ServiceClient.submit` at a fixed
rate, whether or not earlier jobs have finished (an open loop: a stall
delays later jobs, and each job is timed from when it was due).  Distinct
jobs alternate a ``two_k_swap`` spec on a PLRG file and a ``one_k_swap``
spec on a gnm file, each capped at the rounds the solve workloads run
(below what any seed tried needs to converge), so every seed does the
same work.  Each distinct job gets its own ``memory_limit_bytes`` (far
above what either input needs): it joins the cache key without changing
the work, so each distinct job is a cache miss.  Two jobs in five repeat
a distinct job due at least ``DUP_LAG_S`` earlier, so they are served
from the result cache.

Set-up is the time from starting the daemon until a first probe job on a
tiny input is done, repeated ``SETUP_REPEATS`` times on fresh service
directories.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time

import fixtures
import reference
import verify
from run import CHILD_TIMEOUT_S, Bench, median, percentile, wait_rusage

N = 50_000
RATE = 3.0  # jobs per second
DUP_PATTERN = (False, False, True, False, True)
DUP_LAG_S = 2.0
POLL_S = 0.05
JOB_WORKERS = 2
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 30.0
REFERENCE_REPEATS = 3
MEMORY_LIMIT_BASE = 1 << 40
TINY_N = 1_500
INPUTS = (("plrg", "two_k_swap"), ("gnm", "one_k_swap"))
MAX_ROUNDS = {"two_k_swap": 2, "one_k_swap": 4}


def _inputs(bench: Bench):
    from repro.storage.converters import adjacency_to_binary
    from repro.storage.binary_format import MemmapAdjacencySource

    n = TINY_N if bench.tiny else N
    made = []
    for family, pipeline in INPUTS + (("probe", "two_k_swap"),):
        if family == "gnm":
            graph = fixtures.gnm(n, 4 * n, bench.seed)
        else:
            graph = fixtures.plrg(300 if family == "probe" else n, bench.seed)
        if family != "probe":
            bench.inputs[family] = fixtures.fingerprint(graph, bench.seed, family)
        adjacency, csr = bench.path(f"{family}.adj"), bench.path(f"{family}.csr")
        fixtures.write_adjacency(graph, adjacency)
        adjacency_to_binary(adjacency, csr)
        source = MemmapAdjacencySource(csr)
        made.append((csr, pipeline, source.to_graph()))
        source.close()
    return made[:-1], made[-1][0]


def _schedule(jobs: int):
    """(due offset s, distinct index) per job, and the distinct due times."""

    plan = []
    distinct_due = []
    duplicates = 0
    for i in range(jobs):
        due = i / RATE
        eligible = [k for k, at in enumerate(distinct_due) if at <= due - DUP_LAG_S]
        if DUP_PATTERN[i % len(DUP_PATTERN)] and eligible:
            # Alternate the inputs of repeats too, keeping the file mix fixed.
            same_parity = [k for k in eligible if k % 2 == duplicates % 2]
            plan.append((due, (same_parity or eligible)[-1]))
            duplicates += 1
        else:
            plan.append((due, len(distinct_due)))
            distinct_due.append(due)
    return plan, len(distinct_due)


def _spec(inputs, k: int):
    from repro.pipeline.spec import RunSpec

    csr, pipeline, _graph = inputs[k % len(inputs)]
    return RunSpec.from_dict(
        {
            "pipeline": pipeline,
            "input": csr,
            "max_rounds": MAX_ROUNDS[pipeline],
            "memory_limit_bytes": MEMORY_LIMIT_BASE + k,
        }
    )


class Daemon:
    """A ``repro-mis serve`` process in its own process group."""

    def __init__(self, bench: Bench, root: str) -> None:
        self.err = open(f"{root}.log", "wb")
        self.proc = subprocess.Popen(
            bench.repro_cmd(
                "serve",
                root,
                "--job-workers",
                str(JOB_WORKERS),
                "--poll-interval",
                str(POLL_S),
            ),
            cwd=str(bench.work),
            env=bench.env,
            stdout=subprocess.DEVNULL,
            stderr=self.err,
            start_new_session=True,
        )
        self.rusage = None

    def stop(self):
        """Stop the daemon and anything it left; returns its ``wait4`` rusage."""

        if self.rusage is None:
            # One more scheduler pass reaps finished job workers, so their
            # peak RSS folds into the daemon's.
            time.sleep(4 * POLL_S)
            self.proc.send_signal(signal.SIGINT)
            _code, self.rusage = wait_rusage(self.proc, 10.0)
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.err.close()
        return self.rusage


def _wait_done(client, job_ids, timeout: float) -> list:
    deadline = time.monotonic() + timeout
    while True:
        records = [client.status(job_id) for job_id in job_ids]
        if all(r.is_terminal() for r in records) or time.monotonic() > deadline:
            return records
        time.sleep(0.01)


def run(bench: Bench) -> None:
    inputs, probe_csr = _inputs(bench)
    daemons = []
    try:
        _run(bench, inputs, probe_csr, daemons)
    finally:
        for daemon in daemons:
            daemon.stop()


def _run(bench: Bench, inputs, probe_csr: str, daemons: list) -> None:
    from repro import solve_mis
    from repro.obs import read_journal
    from repro.pipeline.spec import RunSpec
    from repro.service import ServiceClient
    from repro.storage.binary_format import MemmapAdjacencySource

    setup = []
    for index in range(SETUP_REPEATS):
        if daemons:
            daemons[-1].stop()
        root = bench.path(f"service{index}")
        mark = bench.tracer.now()
        started = time.perf_counter()
        daemons.append(Daemon(bench, root))
        client = ServiceClient(root)
        probe = client.submit(
            RunSpec.from_dict({"pipeline": "two_k_swap", "input": probe_csr})
        )
        (record,) = _wait_done(client, [probe.job_id], PROBE_TIMEOUT_S)
        setup.append(time.perf_counter() - started)
        bench.tracer.add_span("bench:service_start", "bench", mark, bench.tracer.now())
        if not bench.check(record.state == "done", f"probe job ended {record.state}"):
            return
    bench.samples["setup_s"] = setup

    # The reference task runs only while the daemon is idle (before the
    # load and after it has drained), so job workers do not slow it.
    references = [reference.reference_seconds() for _ in range(REFERENCE_REPEATS)]
    jobs = max(len(DUP_PATTERN), round(RATE * bench.seconds))
    plan, distinct = _schedule(jobs)
    bench.inputs["schedule"] = {
        "jobs": jobs,
        "distinct": distinct,
        "rate_per_s": RATE,
        "job_workers": JOB_WORKERS,
    }
    specs = [_spec(inputs, k) for k in range(distinct)]
    submitted = []
    lags = []
    offset = time.perf_counter() - bench.tracer.now()
    perf0 = time.perf_counter() + 0.2
    wall0 = time.time() + 0.2
    for due, k in plan:
        while time.perf_counter() < perf0 + due:
            time.sleep(min(0.002, max(0.0, perf0 + due - time.perf_counter())))
        lags.append(time.perf_counter() - (perf0 + due))
        submitted.append((client.submit(specs[k]).job_id, due, k))
    records = _wait_done(client, [job_id for job_id, _, _ in submitted], CHILD_TIMEOUT_S / 2)
    references += [reference.reference_seconds() for _ in range(REFERENCE_REPEATS)]
    rusage = daemons[-1].stop()

    latencies, hit_latencies, sizes = [], [], []
    queue_waits, runs = [], []
    first_result = {}
    in_process = {}
    for (job_id, due, k), record in zip(submitted, records):
        if not bench.check(record.state == "done", f"job {job_id} ended {record.state}: {record.error}"):
            continue
        latency = record.updated_at - (wall0 + due)
        latencies.append(latency)
        start = due + perf0 - offset
        bench.tracer.add_span("bench:job", "bench", start, start + latency)
        members = client.result(job_id).independent_set
        sizes.append(len(members))
        if record.cache_hit:
            hit_latencies.append(latency)
        if k not in first_result:
            first_result[k] = members
            pair = k % len(inputs)
            if pair not in in_process:
                csr, pipeline, graph = inputs[pair]
                source = MemmapAdjacencySource(csr)
                expected = solve_mis(
                    source, pipeline=pipeline, max_rounds=MAX_ROUNDS[pipeline]
                ).independent_set
                source.close()
                problem = verify.set_problem(graph, expected)
                bench.check(problem is None, f"in-process {pipeline}: {problem}")
                in_process[pair] = expected
            bench.check(members == in_process[pair], f"job {job_id} != in-process solve_mis")
        else:
            bench.check(members == first_result[k], f"repeat job {job_id} != first result")
        events = {e["event"]: e["ts"] for e in read_journal(client.store.journal_path(job_id))}
        if "attempt_start" in events:
            queue_waits.append(events["attempt_start"] - events["job_queued"])
            runs.append(events["job_done"] - events["attempt_start"])
    if not runs:
        return  # no job ran to completion; the checks counted it

    bench.samples["job_s"] = latencies
    bench.samples["hit_s"] = hit_latencies
    bench.samples["run_s"] = runs
    bench.samples["reference_s"] = references
    bench.reported.update(
        job_p50_s=median(latencies),
        job_p90_s=percentile(latencies, 90),
        hit_p50_s=median(hit_latencies) if hit_latencies else 0.0,
    )
    bench.metrics.update(
        {
            "setup_s": median(setup),
            # Service capacity: jobs done (cache hits included) per
            # reference-task time that job workers were busy.  Unlike jobs
            # per second of the run, which an open loop below saturation
            # pins to the offered rate, this moves with the worker's cost
            # per job and with the cache.
            "throughput_per_ref": len(latencies) / (sum(runs) / median(references)),
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
            "is_size": sum(sizes) / len(sizes),
        }
    )
    bench.layers.update(
        {
            "service.queue_wait_s_p50": median(queue_waits),
            "service.run_s_p50": median(runs),
            "service.hit_p50_s": median(hit_latencies) if hit_latencies else 0.0,
            "service.cache_hit_ratio": len(hit_latencies) / len(latencies),
            "service.attempts": float(sum(r.attempts for r in records)),
            "load.gen_lag_max_s": max(lags),
        }
    )
