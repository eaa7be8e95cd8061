"""Command-line interface: ``repro-mis`` (or ``python -m repro``).

Sub-commands
------------
``generate``
    Generate a synthetic graph (PLRG, Erdős–Rényi, or a dataset stand-in)
    and write it as a binary adjacency file.
``solve``
    Run one of the pipelines on an adjacency file (or generate a graph on
    the fly) and print the result summary.
``watch``
    Hold a graph open and keep its MIS valid over an edge-update stream
    (``--updates FILE``): batched application, per-batch checkpoints, and
    ``--resume`` for bit-identical recovery after a kill.
``compare``
    Run the semi-external pipelines next to the in-memory comparators
    (local search, DynamicUpdate) on one file — a Table 5/6-style
    side-by-side of sizes, times and modeled memory, with an optional
    memory limit that reproduces the paper's "N/A" entries.
``bound``
    Compute the Algorithm-5 upper bound on the independence number.
``theory``
    Evaluate the PLRG performance model for given (|V|, beta).
``datasets``
    List the Table 4 dataset stand-ins.
``import`` / ``export``
    Convert between SNAP-style text edge lists and the binary adjacency
    format.
``convert``
    Convert an adjacency file to the memory-mapped binary CSR artifact
    (``--to-binary``; zero-parse startup, graphs beyond RAM) or back
    (``--to-adjacency``).  Every file-consuming command auto-detects
    either format by magic.
``reduce``
    Apply the exact kernelization rules to an adjacency file and report
    the kernel size; with ``--pipeline`` the kernel is solved through the
    engine (``reduce → …``) and the lifted solution is reported too.
``run``
    Execute a declarative run spec (``--config run.json``) or a whole
    directory of them (``--config-dir specs/``, aggregating the
    per-stage telemetry of the sweep into one report): pipeline
    composition, input, backend, checkpointing — the scenario runner.
``serve`` / ``submit`` / ``status`` / ``results`` / ``cancel``
    Solver-as-a-service over a service directory: ``serve`` runs the
    scheduler + process worker pool (crash-recovering, with a
    digest-keyed result cache), ``submit`` queues run specs (single
    ``--config`` or batch ``--config-dir``; ``--follow`` streams the
    job's event journal live), and the remaining verbs inspect or
    cancel jobs.  The client verbs work purely against the on-disk
    store, so they function whether or not a daemon is up.
``metrics``
    Render the observability layer's metric series — from a service
    directory (queue depth, cache hit-rate, heartbeat ages, replayed
    per-stage telemetry) or from a snapshot file written by ``solve``/
    ``watch --metrics-out`` — as a table, JSON, or Prometheus text
    exposition (``--prometheus``).  ``solve`` and ``watch`` also accept
    ``--trace FILE`` (Chrome trace-event JSON for Perfetto) and
    ``--no-obs`` (disable instrumentation entirely).

Every command that executes solver passes resolves its kernel backend
through one shared helper (``--backend`` flag → ``REPRO_KERNEL_BACKEND``
→ auto-detection) and runs on the stage-based pipeline engine; ``solve``
and ``run`` support ``--checkpoint``/``--resume`` for restartable runs
(an interrupted run exits with status 3 and resumes bit-identically) and
``--checkpoint-every-seconds`` to throttle round checkpoints on
short-round jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional

from repro import __version__
from repro.core.result import MISResult
from repro.errors import (
    CheckpointError,
    GraphError,
    JobNotFoundError,
    JobStateError,
    MemoryBudgetError,
    PipelineInterrupted,
    PipelineSpecError,
    ReproError,
    ServiceError,
    StorageError,
    StreamError,
)
from repro.obs import (
    MetricsRegistry,
    NULL_OBS,
    Observability,
    SpanTracer,
    follow_journal,
)
from repro.pipeline.context import ExecutionContext, add_execution_arguments
from repro.pipeline.spec import (
    BUILTIN_PIPELINES as PIPELINES,
    PipelineSpec,
    RunSpec,
    StageSpec,
    iter_run_specs,
)
from repro.graphs.graph import Graph
from repro.storage.registry import open_adjacency_source
from repro.storage.scan import AdjacencyScanSource

# Modules only some commands need are imported inside those commands, so
# a ``solve`` process compiles only the modules it runs.
if TYPE_CHECKING:
    from repro.service import ServiceClient

__all__ = ["main", "build_parser"]

#: Exit status of a run interrupted by ``--interrupt-after`` (the
#: checkpoint on disk is complete; re-run with ``--resume``).
EXIT_INTERRUPTED = 3


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-mis`` entry point."""

    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description="Semi-external maximum independent set toolkit (VLDB 2015 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic graph file")
    generate.add_argument("output", help="path of the binary adjacency file to write")
    generate.add_argument("--model", choices=["plrg", "gnm", "dataset"], default="plrg")
    generate.add_argument("--vertices", type=int, default=10_000)
    generate.add_argument("--edges", type=int, default=30_000, help="gnm only")
    generate.add_argument("--beta", type=float, default=2.1, help="plrg only")
    generate.add_argument("--dataset", default="dblp", help="dataset stand-in name")
    generate.add_argument("--scale", type=float, default=0.001, help="dataset scale factor")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--order",
        choices=["degree", "id"],
        default="degree",
        help="record order of the output file",
    )

    solve = subparsers.add_parser("solve", help="run a pipeline on an adjacency file")
    solve.add_argument("input", help="path of a binary adjacency file")
    solve.add_argument("--pipeline", choices=sorted(PIPELINES), default="two_k_swap")
    solve.add_argument("--max-rounds", type=int, default=None)
    add_execution_arguments(solve)
    solve.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a versioned checkpoint file after every stage and every "
        "swap round, making the run restartable",
    )
    solve.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed run from --checkpoint instead of starting over "
        "(bit-identical final result and I/O accounting)",
    )
    solve.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="testing/drill knob: exit with status 3 right after the N-th "
        "checkpoint write",
    )
    solve.add_argument(
        "--checkpoint-every-seconds",
        type=float,
        default=None,
        metavar="N",
        help="write round checkpoints at most every N seconds instead of "
        "every round (stage boundaries always checkpoint); resuming from "
        "an older round checkpoint replays the skipped rounds and stays "
        "bit-identical",
    )
    solve.add_argument("--json", action="store_true", help="emit the summary as JSON")
    _add_obs_arguments(solve)

    watch = subparsers.add_parser(
        "watch",
        help="hold a graph open and keep its MIS valid over an edge-update "
        "stream",
    )
    watch.add_argument("input", help="path of a binary adjacency file")
    watch.add_argument(
        "--updates",
        required=True,
        metavar="FILE",
        help="edge-update file: one '+ u v' (insert) or '- u v' (delete) "
        "per line, '#' comments allowed; '-' reads the stream from stdin "
        "(checkpointable but never resumable)",
    )
    watch.add_argument(
        "--pipeline",
        choices=sorted(PIPELINES),
        default="two_k_swap",
        help="pipeline used to compute the initial set (and for rebuilds)",
    )
    add_execution_arguments(watch)
    watch.add_argument(
        "--batch-size",
        type=int,
        default=1024,
        metavar="N",
        help="updates applied (and checkpointed) per batch; bounds per-batch "
        "latency",
    )
    watch.add_argument(
        "--compact-threshold",
        type=int,
        default=None,
        metavar="N",
        help="fold the delta overlay back into fresh CSR arrays once it "
        "holds N directed entries (default: never)",
    )
    watch.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="make every batch durable, resumable with --resume: a "
        "versioned snapshot (maintainer state + stream cursor) at PATH, "
        "rewritten after compactions and whenever PATH.log outgrows it, "
        "plus one appended record per batch in PATH.log",
    )
    watch.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed session from --checkpoint; the final set is "
        "bit-identical to an uninterrupted run",
    )
    watch.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="testing/drill knob: exit with status 3 right after the N-th "
        "checkpoint write",
    )
    watch.add_argument(
        "--quiet", action="store_true", help="suppress the per-batch lines"
    )
    watch.add_argument(
        "--json", action="store_true", help="emit the final summary as JSON"
    )
    _add_obs_arguments(watch)

    compare = subparsers.add_parser(
        "compare",
        help="run pipelines and in-memory comparators side by side (Tables 5/6)",
    )
    compare.add_argument("input", help="path of a binary adjacency file")
    compare.add_argument(
        "--algorithms",
        default="greedy,one_k_swap,two_k_swap,local_search,dynamic_update",
        help="comma-separated subset of: "
        + ",".join(sorted(set(PIPELINES) | set(COMPARATORS))),
    )
    compare.add_argument("--max-rounds", type=int, default=None)
    add_execution_arguments(compare, include_memory_limit=True)
    compare.add_argument("--json", action="store_true", help="emit rows as JSON")

    run = subparsers.add_parser(
        "run", help="execute declarative run specs (scenario runner)"
    )
    run_source = run.add_mutually_exclusive_group(required=True)
    run_source.add_argument(
        "--config",
        metavar="PATH",
        help="JSON run spec: {'pipeline': name-or-inline-spec, 'input': file, "
        "and optional 'backend', 'max_rounds', "
        "'memory_limit_bytes', 'checkpoint', 'resume', "
        "'checkpoint_every_seconds'}",
    )
    run_source.add_argument(
        "--config-dir",
        metavar="DIR",
        help="execute every *.json run spec in DIR (sorted name order) and "
        "aggregate the per-stage telemetry of the sweep into one report",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the spec's checkpoint (overrides 'resume': false; "
        "single --config only)",
    )
    run.add_argument("--json", action="store_true", help="emit the summary as JSON")

    serve = subparsers.add_parser(
        "serve", help="run the solver-service daemon over a service directory"
    )
    serve.add_argument("service_dir", help="service directory (created if missing)")
    serve.add_argument(
        "--job-workers",
        "--workers",
        dest="job_workers",
        type=int,
        default=2,
        help="concurrent job worker processes (one per job; each job runs "
        "serially). --workers is accepted as a legacy alias",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="scheduler poll interval",
    )
    serve.add_argument(
        "--checkpoint-every-seconds",
        type=float,
        default=30.0,
        metavar="N",
        help="default round-checkpoint cadence for jobs whose spec does not "
        "set its own (0 = checkpoint every round)",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=100,
        help="crash-restarts allowed per job before it is failed",
    )
    serve.add_argument(
        "--cache-limit-bytes",
        type=int,
        default=None,
        metavar="N",
        help="bound the result cache: least-recently-used entries are "
        "evicted past N bytes (default: unbounded)",
    )
    serve.add_argument(
        "--heartbeat-timeout-seconds",
        type=float,
        default=None,
        metavar="N",
        help="kill and requeue a worker whose progress heartbeat (beaten "
        "every swap round and stage boundary) is older than N seconds "
        "while its pid is still alive; size N above the longest single "
        "round expected (default: disabled)",
    )
    serve.add_argument(
        "--drain",
        action="store_true",
        help="exit once every job reaches a terminal state (batch mode)",
    )

    submit = subparsers.add_parser(
        "submit", help="queue run specs on a service directory"
    )
    submit.add_argument("service_dir", help="service directory (created if missing)")
    submit_source = submit.add_mutually_exclusive_group(required=True)
    submit_source.add_argument("--config", metavar="PATH", help="one JSON run spec")
    submit_source.add_argument(
        "--config-dir",
        metavar="DIR",
        help="batch-submit every *.json run spec in DIR",
    )
    submit.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="crash-drill knob (single --config only): the worker dies after "
        "every N checkpoint writes and the job finishes through resume",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the submitted job(s) reach a terminal state",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="per-job wait timeout with --wait",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's event journal (stages, batches, lifecycle) "
        "until it reaches a terminal state (single --config only)",
    )
    submit.add_argument("--json", action="store_true", help="emit records as JSON")

    status = subparsers.add_parser(
        "status", help="show job states of a service directory"
    )
    status.add_argument("service_dir", help="an existing service directory")
    status.add_argument("job_id", nargs="?", default=None, help="one job id")
    status.add_argument("--json", action="store_true", help="emit records as JSON")
    status.add_argument(
        "--metrics",
        action="store_true",
        help="also render the store-derived metrics (queue depth, cache "
        "hit-rate, heartbeat ages, per-stage telemetry)",
    )

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="render metrics from a service directory or a saved snapshot",
    )
    metrics_cmd.add_argument(
        "target",
        help="a service directory (live store-derived series) or a metrics "
        "snapshot file written by solve/watch --metrics-out",
    )
    metrics_format = metrics_cmd.add_mutually_exclusive_group()
    metrics_format.add_argument(
        "--prometheus",
        action="store_true",
        help="emit Prometheus text exposition format",
    )
    metrics_format.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )

    results_cmd = subparsers.add_parser(
        "results", help="print the result of a finished service job"
    )
    results_cmd.add_argument("service_dir", help="an existing service directory")
    results_cmd.add_argument("job_id", help="job id (state must be done)")
    results_cmd.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )

    cancel = subparsers.add_parser("cancel", help="cancel a queued or running job")
    cancel.add_argument("service_dir", help="an existing service directory")
    cancel.add_argument("job_id", help="job id to cancel")

    bound = subparsers.add_parser("bound", help="Algorithm 5 upper bound for a file")
    bound.add_argument("input", help="path of a binary adjacency file")

    theory = subparsers.add_parser("theory", help="evaluate the PLRG performance model")
    theory.add_argument("--vertices", type=int, default=10_000_000)
    theory.add_argument("--beta", type=float, default=2.1)

    subparsers.add_parser("datasets", help="list the Table 4 dataset stand-ins")

    import_cmd = subparsers.add_parser(
        "import", help="convert a text edge list into a binary adjacency file"
    )
    import_cmd.add_argument("text_input", help="path of the text edge list")
    import_cmd.add_argument("output", help="path of the binary adjacency file to write")
    import_cmd.add_argument("--order", choices=["degree", "id"], default="degree")
    import_cmd.add_argument(
        "--compact", action="store_true",
        help="renumber sparse vertex ids to 0..n-1 while importing",
    )

    export_cmd = subparsers.add_parser(
        "export", help="convert a binary adjacency file into a text edge list"
    )
    export_cmd.add_argument("input", help="path of the binary adjacency file")
    export_cmd.add_argument("text_output", help="path of the text edge list to write")

    convert_cmd = subparsers.add_parser(
        "convert",
        help="convert between the adjacency format and the memory-mapped "
        "binary CSR artifact",
    )
    convert_cmd.add_argument("input", help="path of the file to convert")
    convert_cmd.add_argument("output", help="path of the converted file to write")
    convert_direction = convert_cmd.add_mutually_exclusive_group(required=True)
    convert_direction.add_argument(
        "--to-binary",
        action="store_true",
        help="adjacency file -> binary CSR artifact (zero-parse startup, "
        "memory-mapped, digest-keyed)",
    )
    convert_direction.add_argument(
        "--to-adjacency",
        action="store_true",
        help="binary CSR artifact -> adjacency file (the exact inverse)",
    )

    reduce_cmd = subparsers.add_parser(
        "reduce", help="apply the exact kernelization rules to an adjacency file"
    )
    reduce_cmd.add_argument("input", help="path of the binary adjacency file")
    reduce_cmd.add_argument(
        "--pipeline",
        choices=sorted(PIPELINES),
        default=None,
        help="additionally solve the kernel with this pipeline (the engine "
        "runs reduce followed by the pipeline's stages and lifts the "
        "solution back to the original graph)",
    )
    reduce_cmd.add_argument("--max-rounds", type=int, default=None)
    add_execution_arguments(reduce_cmd)
    return parser


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags of the solver-running commands."""

    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON file (open in Perfetto or "
        "chrome://tracing) with spans for stages, swap rounds, "
        "stream batches and checkpoint writes",
    )
    group.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics registry snapshot as JSON "
        "(render it later with 'repro-mis metrics FILE')",
    )
    group.add_argument(
        "--no-obs",
        action="store_true",
        help="disable the observability layer entirely (metrics, spans); "
        "the overhead guard baseline",
    )


def _build_obs(args: argparse.Namespace) -> Observability:
    """Build the run's observability bundle from the CLI flags.

    Flag conflicts are validated by the caller via
    :func:`_check_obs_flags` before any file is opened.
    """

    if args.no_obs:
        return NULL_OBS
    tracer = SpanTracer() if args.trace else None
    return Observability(registry=MetricsRegistry(), tracer=tracer)


def _check_obs_flags(args: argparse.Namespace) -> Optional[str]:
    """The flag-conflict message, or ``None`` when the combination is valid."""

    if args.no_obs and (args.trace or args.metrics_out):
        return "--no-obs cannot be combined with --trace/--metrics-out"
    return None


def _finish_obs(args: argparse.Namespace, obs: Observability) -> None:
    """Write the requested trace/metrics artifacts after a finished run."""

    if args.trace:
        obs.tracer.write(args.trace)
    if args.metrics_out:
        from repro.storage.blocks import atomic_write

        snapshot = json.dumps(obs.registry.snapshot(), indent=2, sort_keys=True)
        atomic_write(args.metrics_out, snapshot.encode("utf-8"), b"\n")


def _generate_graph(args: argparse.Namespace) -> Graph:
    """Build the requested in-memory graph for the ``generate`` command."""

    from repro.graphs.datasets import load_dataset
    from repro.graphs.generators import erdos_renyi_gnm
    from repro.graphs.plrg import PLRGParameters, plrg_graph

    if args.model == "plrg":
        params = PLRGParameters.from_vertex_count(args.vertices, args.beta)
        return plrg_graph(params, seed=args.seed)
    if args.model == "gnm":
        return erdos_renyi_gnm(args.vertices, args.edges, seed=args.seed)
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _command_generate(args: argparse.Namespace) -> int:
    from repro.storage.adjacency_file import write_adjacency_file

    try:
        graph = _generate_graph(args)
    except ReproError as exc:
        print(f"cannot generate the graph: {exc}", file=sys.stderr)
        return 2
    order = graph.degree_ascending_order() if args.order == "degree" else range(graph.num_vertices)
    device = write_adjacency_file(graph, args.output, order=list(order))
    device.close()
    print(
        f"wrote {args.output}: {graph.num_vertices:,} vertices, "
        f"{graph.num_edges:,} edges ({args.order} order)"
    )
    return 0


def _print_result(result: MISResult, as_json: bool) -> None:
    """Shared ``solve``/``run`` output: the summary plus per-stage telemetry."""

    summary = result.summary()
    stages = result.extras.get("stages", [])
    if as_json:
        summary["stages"] = stages
        print(json.dumps(summary, indent=2, sort_keys=True))
        return
    from repro.reporting import format_table

    rows = [[key, value] for key, value in summary.items()]
    print(format_table(["metric", "value"], rows))
    if stages:
        print(
            format_table(
                ["stage", "algorithm", "size", "rounds", "seconds", "scans"],
                [
                    [
                        entry["stage"],
                        entry["algorithm"],
                        entry["size"],
                        entry["rounds"],
                        entry["elapsed_seconds"],
                        entry["io"]["sequential_scans"],
                    ]
                    for entry in stages
                ],
            )
        )


def _execute_engine(
    spec: PipelineSpec,
    reader: AdjacencyScanSource,
    args: argparse.Namespace,
    max_rounds: Optional[int],
    checkpoint: Optional[str],
    resume: bool,
    interrupt_after: Optional[int] = None,
    memory_limit_bytes: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    obs: Optional[Observability] = None,
) -> MISResult:
    """Build the context and run the engine — shared by solve/run/sweep."""

    from repro.pipeline.engine import PipelineEngine

    ctx = ExecutionContext.from_args(args, reader)
    if memory_limit_bytes is not None:
        ctx.memory_limit_bytes = memory_limit_bytes
    engine = PipelineEngine(
        spec,
        max_rounds=max_rounds,
        checkpoint_path=checkpoint,
        resume=resume,
        interrupt_after=interrupt_after,
        checkpoint_every_seconds=checkpoint_every_seconds,
        obs=obs,
    )
    return engine.run(ctx)


def _run_engine_command(
    spec: PipelineSpec,
    reader: AdjacencyScanSource,
    args: argparse.Namespace,
    max_rounds: Optional[int],
    checkpoint: Optional[str],
    resume: bool,
    interrupt_after: Optional[int] = None,
    memory_limit_bytes: Optional[int] = None,
    checkpoint_every_seconds: Optional[float] = None,
    obs: Optional[Observability] = None,
) -> int:
    """Run the engine and print the result (solve/run)."""

    try:
        result = _execute_engine(
            spec,
            reader,
            args,
            max_rounds=max_rounds,
            checkpoint=checkpoint,
            resume=resume,
            interrupt_after=interrupt_after,
            memory_limit_bytes=memory_limit_bytes,
            checkpoint_every_seconds=checkpoint_every_seconds,
            obs=obs,
        )
    except PipelineInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INTERRUPTED
    except (PipelineSpecError, CheckpointError, MemoryBudgetError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _open_input(path: str):
    """Open ``path`` as a scan source, or report why not and return ``None``."""

    try:
        return open_adjacency_source(path)
    except (StorageError, OSError) as exc:
        print(f"cannot open input {path!r}: {exc}", file=sys.stderr)
        return None


def _command_solve(args: argparse.Namespace) -> int:
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.interrupt_after is not None and args.checkpoint is None:
        # Without a checkpoint no write ever happens, so the interrupt
        # would silently never fire — reject instead of lying to a drill.
        print("--interrupt-after requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.interrupt_after is not None and args.interrupt_after < 1:
        print("--interrupt-after must be >= 1 (checkpoint writes)", file=sys.stderr)
        return 2
    if (
        args.checkpoint_every_seconds is not None
        and args.checkpoint_every_seconds <= 0
    ):
        print("--checkpoint-every-seconds must be positive", file=sys.stderr)
        return 2
    conflict = _check_obs_flags(args)
    if conflict:
        print(conflict, file=sys.stderr)
        return 2
    obs = _build_obs(args)
    reader = _open_input(args.input)
    if reader is None:
        return 2
    # Every backend consumes the file semi-externally: the numpy kernels
    # run record-major over a SEXTCSR1 memmap (text inputs spill once to a
    # private SEXTCSR1 memmap; the spill is not charged to IOStats), the
    # python reference streams records.
    try:
        code = _run_engine_command(
            PIPELINES[args.pipeline],
            reader,
            args,
            max_rounds=args.max_rounds,
            checkpoint=args.checkpoint,
            resume=args.resume,
            interrupt_after=args.interrupt_after,
            checkpoint_every_seconds=args.checkpoint_every_seconds,
            obs=obs,
        )
    finally:
        reader.close()
    if code == 0:
        _finish_obs(args, obs)
    return code


def _command_watch(args: argparse.Namespace) -> int:
    from repro.pipeline.stream import StreamSession
    from repro.service.cache import input_digest

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.resume and args.updates == "-":
        print(
            "--resume cannot be combined with --updates -: a stdin stream "
            "is consumed on first read and can never be replayed",
            file=sys.stderr,
        )
        return 2
    if args.interrupt_after is not None and args.checkpoint is None:
        print("--interrupt-after requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.interrupt_after is not None and args.interrupt_after < 1:
        print("--interrupt-after must be >= 1 (checkpoint writes)", file=sys.stderr)
        return 2
    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    if args.compact_threshold is not None and args.compact_threshold < 1:
        print("--compact-threshold must be >= 1", file=sys.stderr)
        return 2
    conflict = _check_obs_flags(args)
    if conflict:
        print(conflict, file=sys.stderr)
        return 2
    obs = _build_obs(args)
    reader = _open_input(args.input)
    if reader is None:
        return 2
    try:
        # The graph digest pins the checkpoint to this input's content:
        # resuming against a different (or edited) graph is refused.
        digest = input_digest(args.input)
        ctx = ExecutionContext.create(reader, backend=args.backend)
        session = StreamSession(
            ctx.materialize_graph(),
            args.updates,
            graph_digest=digest,
            pipeline=args.pipeline,
            backend=args.backend,
            batch_size=args.batch_size,
            compact_threshold=args.compact_threshold,
            checkpoint=args.checkpoint,
            resume=args.resume,
            interrupt_after=args.interrupt_after,
            obs=obs,
        )
        total = session.total_batches
        for report in session.process():
            if not args.quiet and not args.json:
                compacted = ", compacted" if report.compacted else ""
                waves = (
                    f", waves={report.sub_waves}" if report.sub_waves else ""
                )
                print(
                    f"batch {report.batch_index + 1}/{total}: "
                    f"+{report.insertions}/-{report.deletions}, "
                    f"set={report.set_size}, "
                    f"evict={report.evictions}, "
                    f"overlay={report.overlay_size}{waves}{compacted}"
                )
    except PipelineInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INTERRUPTED
    except (StreamError, GraphError, CheckpointError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        reader.close()
    summary = session.result()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        stats = summary["stats"]
        print(f"pipeline        : {summary['pipeline']}")
        print(f"batches         : {summary['batches_applied']}")
        print(
            f"updates         : +{stats['edges_inserted']}"
            f"/-{stats['edges_deleted']}"
        )
        print(f"evictions       : {stats['evictions']}")
        print(f"conflict density: {summary['conflict_density']:.3f}")
        wave = session.maintainer.wave
        if wave.sub_waves:
            print(
                f"wave scheduler  : {wave.sub_waves} sub-waves over "
                f"{wave.chunks} chunks, "
                f"{wave.batched_evictions} batched evictions, "
                f"{wave.scalar_fallbacks} scalar fallbacks"
            )
        print(f"compactions     : {stats['compactions']}")
        print(f"final set size  : {summary['set_size']}")
        print(f"elapsed seconds : {summary['elapsed_seconds']:.3f}")
    _finish_obs(args, obs)
    return 0


def _refuse_run_spec(path: str, run_spec: RunSpec, resume: bool) -> bool:
    """Report a spec ``run`` cannot execute; ``True`` means exit status 2."""

    if run_spec.updates is not None:
        problem = (
            "run spec has 'updates' (a stream session); use "
            "'repro-mis watch' or 'repro-mis submit'"
        )
    elif (resume or run_spec.resume) and run_spec.checkpoint is None:
        problem = "resuming requires a 'checkpoint' path in the run spec"
    else:
        return False
    print(f"{path}: {problem}", file=sys.stderr)
    return True


def _command_run(args: argparse.Namespace) -> int:
    if args.config_dir is not None:
        if args.resume:
            print("--resume requires a single --config", file=sys.stderr)
            return 2
        return _command_run_directory(args)
    try:
        run_spec = RunSpec.from_path(args.config)
    except PipelineSpecError as exc:
        print(f"invalid run spec: {exc}", file=sys.stderr)
        return 2
    if _refuse_run_spec(args.config, run_spec, args.resume):
        return 2
    reader = _open_input(run_spec.input)
    if reader is None:
        return 2
    # The run spec's backend fills the namespace slot the shared context
    # builder reads, so resolution is identical to the other commands.
    args.backend = run_spec.backend or "auto"
    try:
        return _run_engine_command(
            run_spec.pipeline,
            reader,
            args,
            max_rounds=run_spec.max_rounds,
            checkpoint=run_spec.checkpoint,
            resume=run_spec.resume or args.resume,
            memory_limit_bytes=run_spec.memory_limit_bytes,
            checkpoint_every_seconds=run_spec.checkpoint_every_seconds,
        )
    finally:
        reader.close()


def _command_run_directory(args: argparse.Namespace) -> int:
    """Scenario sweep: run every spec in a directory, aggregate telemetry."""

    from repro.reporting import format_table

    try:
        specs = iter_run_specs(args.config_dir)
    except PipelineSpecError as exc:
        print(f"invalid run spec: {exc}", file=sys.stderr)
        return 2
    if any(_refuse_run_spec(path, run_spec, False) for path, run_spec in specs):
        return 2

    runs: List[Dict[str, object]] = []
    aggregate: Dict[str, Dict[str, object]] = {}
    for path, run_spec in specs:
        try:
            reader = open_adjacency_source(run_spec.input)
        except (StorageError, OSError) as exc:
            print(
                f"{path}: cannot open input {run_spec.input!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        args.backend = run_spec.backend or "auto"
        try:
            result = _execute_engine(
                run_spec.pipeline,
                reader,
                args,
                max_rounds=run_spec.max_rounds,
                checkpoint=run_spec.checkpoint,
                resume=run_spec.resume,
                memory_limit_bytes=run_spec.memory_limit_bytes,
                checkpoint_every_seconds=run_spec.checkpoint_every_seconds,
            )
        except (PipelineSpecError, CheckpointError, MemoryBudgetError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 2
        finally:
            reader.close()
        stages = result.extras.get("stages", [])
        runs.append(
            {
                "config": path,
                "input": run_spec.input,
                "summary": result.summary(),
                "stages": stages,
            }
        )
        for entry in stages:
            agg = aggregate.setdefault(
                entry["stage"],
                {
                    "stage": entry["stage"],
                    "executions": 0,
                    "rounds": 0,
                    "elapsed_seconds": 0.0,
                    "sequential_scans": 0,
                    "bytes_read": 0,
                    "random_vertex_lookups": 0,
                },
            )
            agg["executions"] += 1
            agg["rounds"] += entry["rounds"]
            agg["elapsed_seconds"] = round(
                agg["elapsed_seconds"] + entry["elapsed_seconds"], 6
            )
            agg["sequential_scans"] += entry["io"]["sequential_scans"]
            agg["bytes_read"] += entry["io"]["bytes_read"]
            agg["random_vertex_lookups"] += entry["io"]["random_vertex_lookups"]
    aggregate_rows = [aggregate[name] for name in sorted(aggregate)]

    if args.json:
        print(
            json.dumps(
                {"runs": runs, "aggregate_stages": aggregate_rows},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        format_table(
            ["config", "algorithm", "size", "rounds", "seconds", "scans"],
            [
                [
                    row["config"],
                    row["summary"]["algorithm"],
                    row["summary"]["size"],
                    row["summary"]["rounds"],
                    row["summary"]["elapsed_seconds"],
                    row["summary"]["sequential_scans"],
                ]
                for row in runs
            ],
            title=f"scenario sweep: {len(runs)} runs from {args.config_dir}",
        )
    )
    print()
    print(
        format_table(
            [
                "stage",
                "executions",
                "rounds",
                "seconds",
                "scans",
                "bytes read",
                "lookups",
            ],
            [
                [
                    row["stage"],
                    row["executions"],
                    row["rounds"],
                    row["elapsed_seconds"],
                    row["sequential_scans"],
                    row["bytes_read"],
                    row["random_vertex_lookups"],
                ]
                for row in aggregate_rows
            ],
            title="aggregate per-stage telemetry",
        )
    )
    return 0


#: In-memory comparator algorithms runnable from ``repro-mis compare``.
COMPARATORS = ("local_search", "dynamic_update")


def _command_compare(args: argparse.Namespace) -> int:
    from repro.pipeline.engine import PipelineEngine
    from repro.reporting import format_table

    names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    known = set(PIPELINES) | set(COMPARATORS)
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown algorithm(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    reader = _open_input(args.input)
    if reader is None:
        return 2
    # One shared context for every engine run: the reader's I/O counters
    # accumulate across algorithms and the graph is materialised at most
    # once for the in-memory comparators.
    ctx = ExecutionContext.from_args(args, reader)
    rows: List[Dict[str, object]] = []
    for name in names:
        if name in PIPELINES:
            result = PipelineEngine(PIPELINES[name], max_rounds=args.max_rounds).run(ctx)
            rows.append(
                {
                    "algorithm": name,
                    "model": "semi-external",
                    "size": result.size,
                    "memory_bytes": result.memory_bytes,
                    "elapsed_seconds": round(result.elapsed_seconds, 6),
                    "not_applicable": False,
                }
            )
            continue
        # In-memory comparators need the whole graph resident.  Check the
        # modeled footprint against the budget from the file header first,
        # so that emulating a small machine never materialises the graph.
        required = ctx.memory_model.algorithm_bytes(
            name, reader.num_vertices, num_edges=reader.num_edges
        )
        if (
            args.memory_limit_bytes is not None
            and required > args.memory_limit_bytes
        ):
            rows.append(
                {
                    "algorithm": name,
                    "model": "in-memory",
                    "size": "N/A",
                    "memory_bytes": required,
                    "elapsed_seconds": "N/A",
                    "not_applicable": True,
                }
            )
            continue
        comparator_spec = PipelineSpec(name=name, stages=(StageSpec(name),))
        result = PipelineEngine(comparator_spec).run(ctx)
        rows.append(
            {
                "algorithm": name,
                "model": "in-memory",
                "size": result.size,
                "memory_bytes": result.memory_bytes,
                "elapsed_seconds": round(result.elapsed_seconds, 6),
                "not_applicable": False,
            }
        )
    reader.close()

    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(
            format_table(
                ["algorithm", "model", "size", "memory bytes", "seconds"],
                [
                    [
                        row["algorithm"],
                        row["model"],
                        row["size"],
                        row["memory_bytes"],
                        row["elapsed_seconds"],
                    ]
                    for row in rows
                ],
            )
        )
    return 0


def _record_row(client: ServiceClient, record) -> List[object]:
    from repro.reporting import format_bytes

    return [
        record.job_id,
        record.state,
        record.spec.get("pipeline", {}).get("name", "?"),
        record.spec.get("backend") or "auto",
        record.attempts,
        "yes" if record.cache_hit else "no",
        format_bytes(client.checkpoint_size(record.job_id)),
        record.error or "",
    ]


_STATUS_HEADERS = [
    "job",
    "state",
    "pipeline",
    "backend",
    "attempts",
    "cache hit",
    "checkpoint",
    "error",
]


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, SolverService

    if args.checkpoint_every_seconds < 0:
        print(
            "--checkpoint-every-seconds must be >= 0 (0 = every round)",
            file=sys.stderr,
        )
        return 2
    if args.cache_limit_bytes is not None and args.cache_limit_bytes < 0:
        print("--cache-limit-bytes must be >= 0", file=sys.stderr)
        return 2
    if (
        args.heartbeat_timeout_seconds is not None
        and args.heartbeat_timeout_seconds <= 0
    ):
        print("--heartbeat-timeout-seconds must be positive", file=sys.stderr)
        return 2
    try:
        service = SolverService(
            args.service_dir,
            ServiceConfig(
                workers=args.job_workers,
                poll_interval_seconds=args.poll_interval,
                checkpoint_every_seconds=args.checkpoint_every_seconds or None,
                max_restarts=args.max_restarts,
                cache_limit_bytes=args.cache_limit_bytes,
                heartbeat_timeout_seconds=args.heartbeat_timeout_seconds,
            ),
        )
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"serving {args.service_dir} with {args.job_workers} job worker(s)"
        + (" until drained" if args.drain else ""),
        file=sys.stderr,
    )
    try:
        service.serve_forever(drain=args.drain)
    except KeyboardInterrupt:
        # Workers keep running as orphans and finish their jobs; the next
        # daemon adopts or resumes them — stopping the loop loses nothing.
        print("interrupted; jobs resume on the next serve", file=sys.stderr)
    return 0


def _follow_job(client: ServiceClient, job_id: str, timeout: float) -> int:
    """Tail one job's event journal until its record is terminal.

    Prints each journal record as a ``[event] key=value ...`` line —
    per-stage progress for solve jobs, per-batch progress for stream
    jobs, and the scheduler's lifecycle edges (requeues, cache hits) —
    without polling or parsing worker logs.
    """

    path = client.store.journal_path(job_id)
    terminal_polls = []

    def _terminal() -> bool:
        # Terminal events are journalled just after the record turns
        # terminal, so stop one poll later to read the last event.
        if client.status(job_id).is_terminal():
            terminal_polls.append(True)
        return len(terminal_polls) > 1

    try:
        for event in follow_journal(path, stop=_terminal, timeout_seconds=timeout):
            name = event.get("event", "?")
            fields = " ".join(
                f"{key}={value}"
                for key, value in event.items()
                if key not in ("v", "ts", "event", "job_id")
            )
            print(f"[{name}] {fields}".rstrip(), flush=True)
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    from repro.reporting import format_table
    from repro.service import ServiceClient

    if args.interrupt_after is not None and args.config_dir is not None:
        print("--interrupt-after requires a single --config", file=sys.stderr)
        return 2
    if args.follow and args.config_dir is not None:
        print("--follow requires a single --config", file=sys.stderr)
        return 2
    client = ServiceClient(args.service_dir)
    try:
        if args.config_dir is not None:
            records = [
                record for _path, record in client.submit_directory(args.config_dir)
            ]
        else:
            records = [
                client.submit(args.config, interrupt_after=args.interrupt_after)
            ]
    except (PipelineSpecError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.follow:
        code = _follow_job(client, records[0].job_id, args.timeout)
        if code:
            return code
        records = [client.status(records[0].job_id)]
    if args.wait:
        try:
            records = [
                client.wait(record.job_id, timeout_seconds=args.timeout)
                for record in records
            ]
        except ServiceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
    else:
        print(
            format_table(
                _STATUS_HEADERS, [_record_row(client, r) for r in records]
            )
        )
    failed = [r for r in records if r.state == "failed"]
    return 1 if failed else 0


def _command_status(args: argparse.Namespace) -> int:
    from repro.reporting import format_table
    from repro.service import ServiceClient
    from repro.service.metrics import build_service_registry

    try:
        client = ServiceClient(args.service_dir, create=False)
        if args.job_id is not None:
            records = [client.status(args.job_id)]
        else:
            records = client.list()
    except (JobNotFoundError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    registry = build_service_registry(client.store) if args.metrics else None
    if args.json:
        document: object = [r.to_dict() for r in records]
        if registry is not None:
            document = {"jobs": document, "metrics": registry.snapshot()}
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            format_table(
                _STATUS_HEADERS, [_record_row(client, r) for r in records]
            )
        )
        if registry is not None:
            print()
            print(format_table(["series", "type", "value"], registry.render_rows()))
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    """Render metrics from a service directory or a saved snapshot file."""

    from repro.reporting import format_table
    from repro.service.jobstore import JobStore
    from repro.service.metrics import build_service_registry

    target = args.target
    try:
        if os.path.isdir(target):
            registry = build_service_registry(JobStore(target, create=False))
        else:
            with open(target, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            registry = MetricsRegistry.from_snapshot(snapshot)
    except (OSError, json.JSONDecodeError, ServiceError, ValueError) as exc:
        print(f"cannot load metrics from {target!r}: {exc}", file=sys.stderr)
        return 2
    if args.prometheus:
        text = registry.render_prometheus()
        sys.stdout.write(text if text.endswith("\n") or not text else text + "\n")
    elif args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(format_table(["series", "type", "value"], registry.render_rows()))
    return 0


def _command_results(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.service_dir, create=False)
        result = client.result(args.job_id)
    except (JobStateError, JobNotFoundError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _print_result(result, args.json)
    return 0


def _command_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    try:
        client = ServiceClient(args.service_dir, create=False)
        record = client.cancel(args.job_id)
    except (JobStateError, JobNotFoundError, ServiceError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if record.state == "cancelled":
        print(f"job {record.job_id} cancelled")
    else:
        print(f"job {record.job_id} cancel requested (worker will be stopped)")
    return 0


def _command_bound(args: argparse.Namespace) -> int:
    from repro.analysis.upper_bound import independence_upper_bound

    reader = _open_input(args.input)
    if reader is None:
        return 2
    bound = independence_upper_bound(reader)
    print(f"independence number upper bound: {bound:,}")
    reader.close()
    return 0


def _command_theory(args: argparse.Namespace) -> int:
    from repro.analysis.plrg_theory import PLRGTheory
    from repro.graphs.plrg import PLRGParameters
    from repro.reporting import format_table

    params = PLRGParameters.from_vertex_count(args.vertices, args.beta)
    theory = PLRGTheory(params)
    rows = [[key, value] for key, value in theory.summary().items()]
    print(format_table(["quantity", "value"], rows))
    return 0


def _command_import(args: argparse.Namespace) -> int:
    from repro.storage.converters import import_edge_list

    graph, _mapping = import_edge_list(
        args.text_input, args.output, order=args.order, compact=args.compact
    )
    print(
        f"imported {args.text_input} -> {args.output}: "
        f"{graph.num_vertices:,} vertices, {graph.num_edges:,} edges ({args.order} order)"
    )
    return 0


def _command_export(args: argparse.Namespace) -> int:
    from repro.storage.converters import export_edge_list

    edges = export_edge_list(args.input, args.text_output)
    print(f"exported {edges:,} edges to {args.text_output}")
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    from repro.storage.binary_format import MemmapAdjacencySource
    from repro.storage.converters import adjacency_to_binary, binary_to_adjacency

    try:
        if args.to_binary:
            header = adjacency_to_binary(args.input, args.output)
            # Verify the artifact end to end once, at birth: every later
            # open can then trust the header checksum + size check alone.
            MemmapAdjacencySource(args.output, verify=True).close()
            print(
                f"converted {args.input} -> {args.output}: "
                f"{header.num_vertices:,} vertices, {header.num_edges:,} edges, "
                f"digest {header.digest}"
            )
        else:
            header = binary_to_adjacency(args.input, args.output)
            print(
                f"converted {args.input} -> {args.output}: "
                f"{header.num_vertices:,} vertices, {header.num_edges:,} edges"
            )
    except (StorageError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _command_reduce(args: argparse.Namespace) -> int:
    from repro.pipeline.engine import PipelineEngine
    from repro.reporting import format_table

    reader = _open_input(args.input)
    if reader is None:
        return 2
    ctx = ExecutionContext.from_args(args, reader)
    if args.pipeline is None:
        spec = PipelineSpec(name="reduce", stages=(StageSpec("reduce"),))
    else:
        # Compose reduce with the requested pipeline's stages: the engine
        # solves the kernel and lifts the solution back automatically.  A
        # pipeline that already starts with reduce is used as-is — the
        # kernel is irreducible, so a second reduce pass would only waste
        # a full sweep.
        tail = PIPELINES[args.pipeline]
        if tail.stages[0].stage == "reduce":
            spec = tail
        else:
            spec = PipelineSpec(
                name=f"reduce+{args.pipeline}",
                stages=(StageSpec("reduce"),) + tail.stages,
            )
    result = PipelineEngine(spec, max_rounds=args.max_rounds).run(ctx)
    reduce_stats = result.extras["stages"][0]["extras"]
    rows = [
        ["original vertices", reader.num_vertices],
        ["kernel vertices", int(reduce_stats["kernel_vertices"])],
        ["kernel edges", int(reduce_stats["kernel_edges"])],
        ["forced picks", int(reduce_stats["forced_vertices"])],
        ["folds", int(reduce_stats["folds"])],
        ["isolated-rule applications", int(reduce_stats["isolated"])],
        ["pendant-rule applications", int(reduce_stats["pendant"])],
        ["triangle-rule applications", int(reduce_stats["triangle"])],
    ]
    if args.pipeline is not None:
        rows.append(["solved independent set", result.size])
    print(format_table(["quantity", "value"], rows))
    reader.close()
    return 0


def _command_datasets(_args: argparse.Namespace) -> int:
    from repro.graphs.datasets import DATASETS
    from repro.reporting import format_table

    rows = [
        [spec.name, spec.real_vertices, spec.real_edges, spec.avg_degree, spec.disk_size]
        for spec in DATASETS.values()
    ]
    print(format_table(["dataset", "|V|", "|E|", "avg degree", "disk size"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-mis`` console script."""

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "solve": _command_solve,
        "watch": _command_watch,
        "compare": _command_compare,
        "run": _command_run,
        "bound": _command_bound,
        "theory": _command_theory,
        "datasets": _command_datasets,
        "import": _command_import,
        "export": _command_export,
        "convert": _command_convert,
        "reduce": _command_reduce,
        "serve": _command_serve,
        "submit": _command_submit,
        "status": _command_status,
        "metrics": _command_metrics,
        "results": _command_results,
        "cancel": _command_cancel,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
