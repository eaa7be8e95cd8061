"""Forked worker pool executing sharded sweeps over the shared CSR.

The pool forks ``workers`` processes *after* the record-major CSR (see
:mod:`repro.core.parallel.csr`) and the per-vertex working arrays have
been created, so every array is inherited by address — shared-memory
segments stay shared, memmap pages stay shared, and nothing is pickled.
Each worker owns a contiguous record range balanced by CSR slot count and
serves commands over a pipe:

``label1``
    The one-k IS-neighbour labelling
    (:func:`~repro.core.kernels.numpy_backend.label_records`) over the
    worker's record range, scattered into the shared per-vertex
    ``cnt``/``nbr_sum`` arrays.  The scatter targets (``order[r0:r1]``)
    are disjoint across workers, so no reduction is needed and the merged
    arrays are bit-identical to the in-process full-graph labelling.
``greedy_init`` / ``greedy_wave``
    Wave-iterated greedy: the shared ``state`` array holds the decided
    flags (0 undecided / 1 in / 2 out) and each wave decides every local
    record whose earlier neighbours are all settled.  Decisions are
    final and monotone, so cross-worker reads may be stale without ever
    being wrong; the fixpoint is the scan-order greedy set.
``fill_text``
    Striped semi-external scan: the worker physically reads its byte
    stripe of the adjacency file (through its own descriptor), parses the
    records into the shared CSR, and returns the modeled ``IOStats``
    delta of the equivalent sequential reads.  The parent merges the
    deltas in rank order, which telescopes to exactly the serial scan's
    charges (each stripe's charge simulation is seeded with the previous
    stripe's end-of-read cursor).

The parent broadcasts one command to every worker and then collects the
acknowledgements in rank order — a barrier per sweep, which is what keeps
the merge order (and therefore the accounting) deterministic.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional

import numpy as np

from repro.core.kernels.base import contribute_metrics, metrics_enabled
from repro.core.kernels.numpy_backend import _ragged_slot_indices, label_records
from repro.errors import SolverError
from repro.obs.metrics import MetricsRegistry
from repro.storage import format as fmt
from repro.storage.io_stats import IOStats

__all__ = ["ParallelPool"]


class _SpanCharger:
    """Replays ``BlockDevice.read_at`` accounting onto a local ``IOStats``.

    Used by the striped text fill: the worker charges its stripe's batch
    reads against a cursor seeded by the parent, so the per-worker deltas
    sum (in rank order) to the exact charges of one serial sequential
    scan over the same spans.
    """

    def __init__(self, block_size: int, cursor_offset: int, last_block: int) -> None:
        self.block_size = block_size
        self.next_offset = cursor_offset
        self.last_block = last_block
        self.stats = IOStats()

    def charge(self, offset: int, length: int) -> None:
        sequential = offset == self.next_offset
        self.next_offset = offset + length
        if length > 0:
            first = offset // self.block_size
            blocks = (offset + length - 1) // self.block_size - first + 1
            if sequential and first == self.last_block:
                blocks -= 1
            self.last_block = (offset + length - 1) // self.block_size
        else:  # pragma: no cover - spans are never empty
            blocks = 0
        self.stats.record_read(length, blocks, sequential)


class ParallelPool:
    """Fork-based worker pool over a :class:`SharedCSR` and shared state.

    Parameters
    ----------
    csr:
        The materialised record-major CSR (or, for a striped text fill,
        pre-allocated segments whose ``indptr`` is already final).
    workers:
        Number of worker processes (>= 2; ``workers == 1`` runs serial
        code and never builds a pool).
    text_plan:
        Optional ``(path_or_device, block_size, starts, bounds)`` tuple
        enabling the ``fill_text`` command: the absolute record byte
        starts and batch bounds of the adjacency file to stripe.
    """

    def __init__(self, csr, workers: int, text_plan=None) -> None:
        if workers < 2:
            raise SolverError(f"ParallelPool needs >= 2 workers, got {workers}")
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - linux containers fork
            raise SolverError(
                "parallel execution requires the 'fork' start method"
            ) from exc
        self.csr = csr
        self.workers = int(workers)
        self._text_plan = text_plan
        n = csr.num_vertices
        records = csr.order.shape[0]

        from repro.core.parallel.csr import _shared_array

        self._segments: List = []
        self.state = _shared_array((n,), np.uint8, self._segments)
        self.cnt = _shared_array((n,), np.int64, self._segments)
        self.nbr_sum = _shared_array((n,), np.int64, self._segments)

        # Record ranges balanced by slot count, so the O(E) sweeps split
        # evenly even when the degree distribution is skewed (PLRG).
        total_slots = int(csr.indptr[-1])
        targets = (np.arange(1, self.workers, dtype=np.int64) * total_slots) // max(
            self.workers, 1
        )
        cuts = np.searchsorted(csr.indptr, targets, side="left")
        bounds = np.concatenate(([0], cuts, [records]))
        bounds = np.maximum.accumulate(bounds)
        self.ranges = [
            (int(bounds[w]), int(bounds[w + 1])) for w in range(self.workers)
        ]

        # Per-rank command registries: the parent mirrors each command a
        # rank executed (broadcast is a barrier, so the mirror is exact).
        # fold_metrics() merges all rank snapshots in one call — the
        # order-independent fold — and contributes only the delta since
        # the previous fold to the installed process-wide sink.
        self.rank_metrics = [MetricsRegistry() for _ in range(self.workers)]
        self._contributed = MetricsRegistry()

        self._pipes = []
        self._procs = []
        for rank in range(self.workers):
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_worker_main,
                args=(self, rank, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    # ------------------------------------------------------------------
    # Parent-side command interface
    # ------------------------------------------------------------------
    def broadcast(self, command: str, payloads: Optional[list] = None) -> list:
        """Send ``command`` to every worker; collect replies in rank order."""

        for rank, pipe in enumerate(self._pipes):
            pipe.send((command, payloads[rank] if payloads is not None else None))
        results = []
        for rank, pipe in enumerate(self._pipes):
            status, value = pipe.recv()
            if status != "ok":
                raise SolverError(
                    f"parallel worker {rank} failed during {command!r}: {value}"
                )
            results.append(value)
            self.rank_metrics[rank].inc(
                "repro_parallel_commands_total", command=command
            )
        return results

    def fold_metrics(self) -> None:
        """Fold every rank's registry into the process-wide metrics sink.

        All rank snapshots are merged in a single
        :meth:`~repro.obs.metrics.MetricsRegistry.merge` call (the
        permutation-invariant fold), and only the counter deltas since
        the previous fold are contributed — the pool outlives individual
        passes via the session cache, so cumulative totals must not be
        double-counted.
        """

        if not metrics_enabled():
            return
        merged = MetricsRegistry()
        merged.merge(*(registry.snapshot() for registry in self.rank_metrics))
        delta = MetricsRegistry()
        for entry in merged.snapshot()["series"]:
            gained = self._contributed.advance(
                entry["name"], entry["value"], **entry["labels"]
            )
            if gained:
                delta.inc(entry["name"], gained, **entry["labels"])
        snapshot = delta.snapshot()
        if snapshot["series"]:
            contribute_metrics(snapshot)

    def label_is(self):
        """Sharded one-k labelling of the shared ``state``: ``(cnt, nbr_sum)``."""

        self.broadcast("label1")
        return self.cnt, self.nbr_sum

    def greedy_run(self) -> None:
        """Drive greedy waves over the shared decided array to the fixpoint."""

        self.broadcast("greedy_init")
        remaining = None
        while True:
            counts = self.broadcast("greedy_wave")
            total = sum(counts)
            if total == 0:
                return
            if remaining is not None and total >= remaining:
                raise SolverError(
                    "parallel greedy made no progress "
                    f"({total} records still undecided)"
                )  # pragma: no cover - the earliest undecided record always settles
            remaining = total

    def close(self) -> None:
        """Terminate the workers and release every shared segment."""

        for pipe in self._pipes:
            try:
                pipe.send(("exit", None))
            except (BrokenPipeError, OSError):  # pragma: no cover - defensive
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        for pipe in self._pipes:
            pipe.close()
        self._pipes = []
        self._procs = []
        self.state = None
        self.cnt = None
        self.nbr_sum = None
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - defensive
                pass
        self._segments = []


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _Worker:
    """Per-process command handlers over the fork-inherited arrays."""

    def __init__(self, pool: ParallelPool, rank: int) -> None:
        self.rank = rank
        self.csr = pool.csr
        self.state = pool.state
        self.cnt = pool.cnt
        self.nbr_sum = pool.nbr_sum
        self.text_plan = pool._text_plan
        self.r0, self.r1 = pool.ranges[rank]
        indptr = self.csr.indptr
        self.s0 = int(indptr[self.r0])
        self.s1 = int(indptr[self.r1])
        self.verts = self.csr.order[self.r0 : self.r1]
        self.lens = indptr[self.r0 + 1 : self.r1 + 1] - indptr[self.r0 : self.r1]
        self.local_offsets = np.concatenate(
            ([0], np.cumsum(self.lens, dtype=np.int64))
        )
        self._pending = None

    def label1(self, _payload) -> None:
        tgts = self.csr.indices[self.s0 : self.s1]
        cnt, nbr_sum = label_records(self.local_offsets, tgts, self.state)
        self.cnt[self.verts] = cnt
        self.nbr_sum[self.verts] = nbr_sum

    # -- wave-iterated greedy ------------------------------------------
    _GREEDY_CHUNK = 8192

    def greedy_init(self, _payload) -> None:
        self._pending = np.arange(self.r0, self.r1, dtype=np.int64)

    def greedy_wave(self, _payload) -> int:
        """One wave of chunk-serial greedy over this worker's record range.

        The worker walks its still-undecided records in scan order, chunk
        by chunk, exactly like the serial chunked greedy — a record is
        accepted when every earlier neighbour is excluded, rejected when
        one is accepted — except that a record whose earlier neighbour
        lies in a *preceding* worker's range and is still undecided (or
        was deferred earlier in this wave) is deferred to the next wave.
        Decisions are final and monotone, so concurrent stale reads only
        ever defer work, never corrupt it; the fixpoint over waves is the
        scan-order greedy set, and the globally earliest undecided record
        always resolves, guaranteeing progress.
        """

        pending = self._pending
        if pending.size == 0:
            return 0
        csr = self.csr
        indptr = csr.indptr
        indices = csr.indices
        pos = csr.pos
        order = csr.order
        decided = self.state  # 0 undecided / 1 in / 2 out
        r0 = self.r0
        deferred_flags = np.zeros(self.r1 - r0, dtype=bool)
        kept = []
        for start in range(0, pending.size, self._GREEDY_CHUNK):
            chunk = pending[start : start + self._GREEDY_CHUNK]
            verts = order[chunk]
            undecided = decided[verts] == 0
            if not undecided.all():
                chunk = chunk[undecided]
                verts = verts[undecided]
            m = chunk.size
            if m == 0:
                continue
            lens = indptr[chunk + 1] - indptr[chunk]
            nbrs = indices[_ragged_slot_indices(indptr[chunk], lens)]
            src = np.repeat(np.arange(m, dtype=np.int64), lens)
            nrec = pos[nbrs]
            ndec = decided[nbrs]
            earlier = nrec < np.repeat(chunk, lens)

            status = np.ones(m, dtype=np.int8)  # 1 accept / 2 reject / 3 defer
            any_in = np.bincount(src[earlier & (ndec == 1)], minlength=m) > 0
            status[any_in] = 2

            # Earlier undecided neighbours: outside the range (or deferred
            # inside it) force a defer; inside the current chunk they are
            # resolved by the scalar fold below, exactly like the serial
            # chunk commit.
            open_earlier = earlier & (ndec == 0)
            in_range = open_earlier & (nrec >= r0)
            is_deferred = np.zeros(earlier.shape, dtype=bool)
            if in_range.any():
                is_deferred[in_range] = deferred_flags[nrec[in_range] - r0]
            blocked = (open_earlier & (nrec < r0)) | is_deferred
            defer_now = np.bincount(src[blocked], minlength=m) > 0
            status[defer_now & (status == 1)] = 3

            intra = in_range & ~is_deferred
            if intra.any():
                dep_idx = np.searchsorted(chunk, nrec[intra])
                flags = status.tolist()
                for s, d in zip(src[intra].tolist(), dep_idx.tolist()):
                    dep_status = flags[d]
                    if dep_status == 1:
                        flags[s] = 2
                    elif dep_status == 3 and flags[s] == 1:
                        flags[s] = 3
                status = np.asarray(flags, dtype=np.int8)

            accept = status == 1
            decided[verts[accept]] = 1
            decided[verts[status == 2]] = 2
            # An accepted record excludes every neighbour (earlier ones
            # are already excluded; the write is idempotent).
            decided[nbrs[np.repeat(accept, lens)]] = 2
            defer_recs = chunk[status == 3]
            if defer_recs.size:
                deferred_flags[defer_recs - r0] = True
                kept.append(defer_recs)
        self._pending = (
            np.concatenate(kept) if kept else np.empty(0, dtype=np.int64)
        )
        return int(self._pending.size)

    # -- striped semi-external scan ------------------------------------
    def fill_text(self, payload) -> IOStats:
        record_lo, record_hi, cursor_offset, cursor_last_block = payload
        backing, block_size, starts, bounds = self.text_plan
        charger = _SpanCharger(block_size, cursor_offset, cursor_last_block)
        if record_lo >= record_hi:
            return charger.stats
        base = fmt.HEADER_SIZE
        lo_byte = base + int(starts[record_lo])
        hi_byte = base + int(starts[record_hi])
        data = self._read_span(backing, lo_byte, hi_byte - lo_byte)
        in_range = (bounds >= record_lo) & (bounds <= record_hi)
        for a, b in zip(bounds[in_range][:-1].tolist(), bounds[in_range][1:].tolist()):
            charger.charge(base + int(starts[a]), int(starts[b] - starts[a]))
        words = np.frombuffer(data, dtype="<u4")
        rel_starts = (starts[record_lo:record_hi] - starts[record_lo]) // (
            fmt.VERTEX_ID_BYTES
        )
        csr = self.csr
        degrees = (
            csr.indptr[record_lo + 1 : record_hi + 1]
            - csr.indptr[record_lo:record_hi]
        )
        csr.order[record_lo:record_hi] = words[rel_starts]
        slot_lo = int(csr.indptr[record_lo])
        slot_hi = int(csr.indptr[record_hi])
        local = csr.indptr[record_lo:record_hi] - slot_lo
        gather = np.arange(slot_hi - slot_lo, dtype=np.int64) + np.repeat(
            rel_starts + 2 - local, degrees
        )
        csr.indices[slot_lo:slot_hi] = words[gather]
        return charger.stats

    @staticmethod
    def _read_span(backing, offset: int, length: int) -> bytes:
        """Physically read a byte span through a worker-private descriptor.

        Path-backed devices are reopened (the forked descriptor would
        share one file offset across all workers); in-memory devices are
        private after the fork, so the inherited buffer is read directly.
        """

        if isinstance(backing, str):
            fd = os.open(backing, os.O_RDONLY)
            try:
                data = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        else:
            backing.seek(offset)
            data = backing.read(length)
        if len(data) != length:
            raise SolverError(
                f"short read of {len(data)}/{length} bytes at offset {offset}"
            )
        return data


def _worker_main(pool: ParallelPool, rank: int, conn) -> None:
    """Worker process entry point: serve commands until ``exit``."""

    worker = _Worker(pool, rank)
    handlers = {
        "label1": worker.label1,
        "greedy_init": worker.greedy_init,
        "greedy_wave": worker.greedy_wave,
        "fill_text": worker.fill_text,
    }
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        if command == "exit":
            conn.send(("ok", None))
            break
        handler = handlers.get(command)
        if handler is None:  # pragma: no cover - defensive
            conn.send(("error", f"unknown command {command!r}"))
            continue
        try:
            conn.send(("ok", handler(payload)))
        except BaseException as exc:  # noqa: BLE001 - report, then keep serving
            conn.send(("error", repr(exc)))
