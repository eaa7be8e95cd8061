"""Parallel kernel passes: session glue around the serial kernels.

:class:`ParallelKernel` wraps a serial backend (numpy or python) and runs
its passes with the O(E) sweeps sharded across a
:class:`~repro.core.parallel.pool.ParallelPool` of forked processes over
the shared record-major CSR.  Workers shard exactly two sweeps:

* greedy, as a decided-flag fixpoint: a vertex enters the set once all
  earlier neighbours are excluded, is excluded once an earlier neighbour
  enters.  Decisions are monotone, so the workers' stale reads are
  harmless and the unique fixpoint is the scan-order greedy set;
* the one-k IS-neighbour labelling.  The one-k pass itself is the numpy
  backend's record-major engine
  (:func:`~repro.core.kernels.numpy_backend.one_k_records`) — the same
  code the serial numpy backend runs — with the pool's sharded labelling
  plugged in.

Two-k runs the wrapped serial kernel at every worker count.

The contract is *bit-identity* with the wrapped backend: same independent
sets, same per-round :class:`RoundStats`, same oscillation fingerprints
and ``on_round`` snapshots, and the same modeled ``IOStats`` (every
logical sequential scan of the serial execution is replayed through the
sources' ``charge_scan`` hooks; per-worker deltas of the striped text fill
are merged in rank order so they telescope to the serial charges).
Fingerprints are encoded per delegate backend (the numpy and python
backends hash different canonical encodings of the same state), so a
parallel run is checkpoint-compatible with the serial backend it wraps in
both directions.
"""

from __future__ import annotations

import atexit
import hashlib
from collections import OrderedDict
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.core.kernels.base import KernelBackend
from repro.core.kernels.numpy_backend import _fingerprint, one_k_records
from repro.core.parallel.csr import SharedCSR, materialize_csr, plan_text_stripes
from repro.core.parallel.pool import ParallelPool
from repro.core.result import RoundStats
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader
from repro.storage.scan import batch_bounds

__all__ = ["ParallelKernel"]


def _python_fingerprint(state, isn) -> bytes:
    """The python reference's one-k oscillation fingerprint of ``(state, isn)``."""

    digest = hashlib.blake2b(digest_size=16)
    digest.update(state.tobytes())
    digest.update(repr([None if x < 0 else x for x in isn.tolist()]).encode())
    return digest.digest()


class _Session:
    """One pass's materialised CSR, worker pool and scan-charge ledger."""

    def __init__(self, source, workers: int) -> None:
        self.source = source
        self.workers = int(workers)
        self.csr: Optional[SharedCSR] = None
        self.pool: Optional[ParallelPool] = None
        # True when materialisation already performed (and charged) the
        # pass's first sequential scan, so the first scan point is free.
        self._first_scan_charged = False

    def open(self) -> "_Session":
        source = self.source
        try:
            if isinstance(source, AdjacencyFileReader):
                stripes = plan_text_stripes(source, self.workers)
                if stripes is not None:
                    self._open_striped_text(source, stripes)
                    return self
            self.csr, self._first_scan_charged = materialize_csr(source)
            self.pool = ParallelPool(self.csr, self.workers)
        except BaseException:
            self.close()
            raise
        return self

    def _open_striped_text(self, reader: AdjacencyFileReader, stripes) -> None:
        """Fill the shared CSR from worker byte stripes of the file.

        Only possible on a *warm* reader (record degrees cached by an
        earlier scan): the parent lays out ``indptr`` from the degree
        cache before forking, each worker physically reads and parses its
        stripe, and the modeled per-stripe ``IOStats`` deltas — each
        seeded with its predecessor's end-of-read cursor — are merged in
        rank order, telescoping to exactly one serial sequential scan.
        """

        degrees = reader.record_degrees_array()
        csr = SharedCSR.allocate_for_text(reader)
        self.csr = csr
        csr.indptr[0] = 0
        np.cumsum(degrees, out=csr.indptr[1:])
        record_bytes = fmt.RECORD_HEADER_SIZE + fmt.VERTEX_ID_BYTES * degrees
        starts = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(record_bytes, out=starts[1:])
        bounds = batch_bounds(record_bytes, reader.batch_bytes())
        text_plan = (reader.raw_backing(), reader.block_size, starts, bounds)
        self.pool = ParallelPool(csr, self.workers, text_plan=text_plan)

        # Rank 0 starts wherever the device cursor really is (a scan that
        # follows another scan begins with a seek, exactly like serial);
        # later ranks are seeded with their predecessor's end-of-read
        # state from the stripe plan.
        cursor_offset, cursor_last = reader.sequential_cursor()
        payloads = []
        for rank, (lo, hi, byte_start, prev_last) in enumerate(stripes):
            if rank == 0:
                payloads.append((lo, hi, cursor_offset, cursor_last))
            else:
                payloads.append((lo, hi, byte_start, prev_last))
        deltas = self.pool.broadcast("fill_text", payloads)
        stats = reader.stats
        for delta in deltas:
            stats.merge(delta)
        stats.record_scan()
        end_offset = fmt.HEADER_SIZE + int(starts[-1])
        reader.restore_sequential_cursor(
            (end_offset, (end_offset - 1) // reader.block_size)
        )
        csr._finish()
        self._first_scan_charged = True

    def charge_scan(self) -> None:
        """Replay one logical sequential scan onto the source's counters."""

        if self._first_scan_charged:
            self._first_scan_charged = False
            return
        charge = getattr(self.source, "charge_scan", None)
        if charge is None or not charge():  # pragma: no cover - all sources replay
            self.source.stats.record_scan()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.csr is not None:
            self.csr.close()
            self.csr = None


#: Sessions kept warm between passes, keyed by ``(id(source), workers)``.
#: A pipeline (greedy → one-k → two-k) over one source then materialises
#: the shared CSR and forks the worker pool once instead of per pass.  The
#: cached session pins the source object, so an ``id`` is never recycled
#: while its entry is live; entries are closed on eviction (LRU), when a
#: pass raises (worker state may be inconsistent), and at interpreter
#: exit.
_SESSION_CACHE: "OrderedDict[Tuple[int, int], _Session]" = OrderedDict()
_SESSION_CACHE_LIMIT = 4


def _acquire_session(source, workers: int) -> _Session:
    key = (id(source), int(workers))
    session = _SESSION_CACHE.get(key)
    if session is not None:
        if getattr(source, "closed", False):
            del _SESSION_CACHE[key]
            session.close()
        else:
            _SESSION_CACHE.move_to_end(key)
            return session
    session = _Session(source, workers).open()
    _SESSION_CACHE[key] = session
    while len(_SESSION_CACHE) > _SESSION_CACHE_LIMIT:
        _, old = _SESSION_CACHE.popitem(last=False)
        old.close()
    return session


def _evict_session(session: _Session) -> None:
    for key, cached in list(_SESSION_CACHE.items()):
        if cached is session:
            del _SESSION_CACHE[key]
            break
    session.close()


def _close_all_sessions() -> None:
    while _SESSION_CACHE:
        _, session = _SESSION_CACHE.popitem(last=False)
        session.close()


atexit.register(_close_all_sessions)


class ParallelKernel(KernelBackend):
    """Kernel backend running the sharded passes of a serial delegate.

    ``name`` mirrors the delegate so checkpoints written under
    parallelism resume on the serial backend (and vice versa) — worker
    count is an execution property, not part of the algorithm state.
    """

    def __init__(self, delegate: KernelBackend, workers: int) -> None:
        self._delegate = delegate
        self.workers = int(workers)
        self.name = delegate.name
        # One-k oscillation fingerprints in the delegate's encoding.
        self._fingerprint = (
            _python_fingerprint if delegate.name == "python" else _fingerprint
        )

    # ------------------------------------------------------------------
    # Delegated capabilities
    # ------------------------------------------------------------------
    def supports(self, source) -> bool:
        return self._delegate.supports(source)

    def supports_graph(self, graph) -> bool:
        return self._delegate.supports_graph(graph)

    def local_search_pass(self, *args, **kwargs):
        return self._delegate.local_search_pass(*args, **kwargs)

    def dynamic_update_pass(self, *args, **kwargs):
        return self._delegate.dynamic_update_pass(*args, **kwargs)

    def supports_maintainer(self, maintainer) -> bool:
        return self._delegate.supports_maintainer(maintainer)

    def normalize_updates_pass(self, *args, **kwargs):
        return self._delegate.normalize_updates_pass(*args, **kwargs)

    def dynamic_apply_pass(self, *args, **kwargs):
        # Update application is inherently serial state maintenance; the
        # sharded passes add nothing, so it rides the delegate unchanged.
        return self._delegate.dynamic_apply_pass(*args, **kwargs)

    # ------------------------------------------------------------------
    # Algorithm 1: greedy (wave-iterated fixpoint)
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> FrozenSet[int]:
        session = _acquire_session(source, self.workers)
        try:
            pool = session.pool
            pool.state[:] = 0
            pool.greedy_run()
            result = frozenset(np.flatnonzero(pool.state == 1).tolist())
            session.charge_scan()
            pool.fold_metrics()
            return result
        except BaseException:
            _evict_session(session)
            raise

    # ------------------------------------------------------------------
    # Algorithm 2: one-k-swap (sharded labelling)
    # ------------------------------------------------------------------
    def one_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
        session = _acquire_session(source, self.workers)
        try:
            pool = session.pool
            result = one_k_records(
                session.csr,
                pool.state,
                pool.label_is,
                initial_set,
                max_rounds,
                resume,
                on_round,
                charge_scan=session.charge_scan,
                fingerprint=self._fingerprint,
            )
            pool.fold_metrics()
            return result
        except BaseException:
            _evict_session(session)
            raise

    # ------------------------------------------------------------------
    # Algorithms 3 & 4: two-k-swap (serial at every worker count)
    # ------------------------------------------------------------------
    def two_k_swap_pass(self, *args, **kwargs):
        return self._delegate.two_k_swap_pass(*args, **kwargs)
