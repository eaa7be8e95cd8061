"""Digest-keyed result cache of the solver service.

A cache entry maps ``(input content digest, canonical spec, backend)``
to the encoded :class:`~repro.core.result.MISResult` of a completed job.
Because every pipeline run is deterministic (and bit-identical across
the kernel backends on the solver passes), a resubmitted identical job
can be answered from the cache without any solver work — the returned
result is the *identical* ``MISResult`` of the original solve, set,
telemetry, I/O counters and all; ``tests/test_service.py`` verifies the
cached result against a fresh solve bit for bit.

The key is content-addressed, not path-addressed: the input file is
digested (size + BLAKE2b over its bytes), so renaming a graph file still
hits while editing it misses.  Binary CSR artifacts short-circuit the
byte walk entirely — :func:`input_digest` lifts the content digest
embedded in their header, so keying a terabyte-scale artifact costs a
64-byte read.  The spec side of the key canonicalises only the
solver-relevant fields — pipeline composition, round cap, memory limit,
requested backend — and deliberately excludes checkpoint paths and
checkpoint cadence, which cannot change the result.

A hit costs a copy of the stored result text, not a parse of it: the
entry's layout is fixed (:meth:`ResultCache.put`), so :meth:`ResultCache.get`
slices the ``result`` text out and decodes only ``extras.stages``,
walking the canonical (sorted-key) JSON members in front of it.

The cache can be bounded: ``ResultCache(directory, limit_bytes=...)``
evicts least-recently-used entries (by file mtime, refreshed on every
hit) until the directory fits the budget.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, NamedTuple, Optional

from repro.errors import ServiceError, StorageError
from repro.pipeline.spec import RunSpec
from repro.storage.blocks import atomic_write

__all__ = [
    "CacheHit",
    "ResultCache",
    "cache_key",
    "canonical_json",
    "file_digest",
    "input_digest",
    "spec_key_fields",
]

_CHUNK_BYTES = 1 << 20

_DECODER = json.JSONDecoder()


def canonical_json(value) -> bytes:
    """``value`` as canonical JSON text: sorted keys, compact separators.

    The one rendering of a job's result file (``canonical_json`` of the
    encoded result) and of the cache entry, which splices that same text
    (see :meth:`ResultCache.put`).
    """

    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def file_digest(path: str) -> str:
    """Content digest of a file (streamed; raises ServiceError if unreadable)."""

    digest = hashlib.blake2b(digest_size=16)
    try:
        size = os.stat(path).st_size
        digest.update(str(size).encode("ascii"))
        with open(path, "rb") as handle:
            while True:
                chunk = handle.read(_CHUNK_BYTES)
                if not chunk:
                    break
                digest.update(chunk)
    except OSError as exc:
        raise ServiceError(f"cannot digest input file {path!r}: {exc}") from None
    return digest.hexdigest()


def input_digest(path: str) -> str:
    """Content digest of a graph input file, format-aware.

    A valid binary CSR artifact already carries a BLAKE2b-128 digest of
    its sections in the header; returning it (namespaced ``csr1:`` so it
    can never collide with a whole-file digest) keys the cache without
    reading the sections — the zero-parse startup property extends to
    cache lookups.  Anything else — text adjacency files, but also
    corrupt or truncated artifacts — falls back to :func:`file_digest`,
    which is content-true: a damaged artifact keys differently from the
    intact one, so a failing job can never be answered from (or poison)
    the healthy entry.
    """

    try:
        with open(path, "rb") as handle:
            magic = handle.read(8)
    except OSError as exc:
        raise ServiceError(f"cannot digest input file {path!r}: {exc}") from None
    if magic == b"SEXTCSR1":
        from repro.storage.binary_format import read_binary_header

        try:
            return f"csr1:{read_binary_header(path).digest}"
        except StorageError:
            pass  # damaged artifact: fall through to the byte digest
    return file_digest(path)


def spec_key_fields(spec: RunSpec, input_digest: str) -> Dict[str, object]:
    """The canonical, solver-relevant identity of a submitted run.

    ``checkpoint``/``resume``/``checkpoint_every_seconds`` are excluded:
    they change how a run is persisted, never what it computes.  The
    requested backend stays in the key per the service contract (both
    backends produce bit-identical pipeline results, but a cache entry
    records exactly what was asked for).  The update-file digest, batch
    size and compaction threshold appear only when ``updates`` is set (the
    batch boundaries never change the final set, but compaction cadence is
    observable in the stream telemetry, so the full stream identity is
    keyed).
    """

    fields: Dict[str, object] = {
        # None, "" and "auto" are one request: the lookup's default.
        "backend": spec.backend or "auto",
        "input_digest": input_digest,
        "max_rounds": spec.max_rounds,
        "memory_limit_bytes": spec.memory_limit_bytes,
        "pipeline": spec.pipeline.to_dict(),
    }
    if spec.updates is not None:
        fields["updates_digest"] = file_digest(spec.updates)
        fields["batch_size"] = spec.batch_size
        fields["compact_threshold"] = spec.compact_threshold
    return fields


def cache_key(spec: RunSpec, input_digest: str) -> str:
    """The cache key digest for a run spec over a digested input."""

    canonical = canonical_json(spec_key_fields(spec, input_digest))
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


class CacheHit(NamedTuple):
    """A cached result: its stored text and the stage reports inside it."""

    #: :func:`canonical_json` of the encoded result, byte for byte as the
    #: worker wrote it to the original job's result file.
    result: bytes
    #: The result's ``extras["stages"]`` (empty when it has none).
    stages: list


def _member_at(text: str, start: int, name: str) -> Optional[int]:
    """Where the value of key ``name`` starts in the JSON object at ``text[start]``.

    The object must be canonical (sorted keys, no whitespace, as
    :func:`canonical_json` renders it): only the members sorted before
    ``name`` are decoded, and the walk stops at the first key past it.
    Returns ``None`` when the key is absent; raises ``ValueError`` (or
    ``IndexError`` on truncated text) when the text is not such an object.
    """

    if text[start] != "{":
        raise ValueError("expected a JSON object")
    at = start + 1
    if text[at] == "}":
        return None
    while True:
        key, at = _DECODER.raw_decode(text, at)
        if not isinstance(key, str) or text[at] != ":":
            raise ValueError("expected an object key")
        if key == name:
            return at + 1
        if key > name:
            return None
        _skipped, at = _DECODER.raw_decode(text, at + 1)
        if text[at] == "}":
            return None
        if text[at] != ",":
            raise ValueError("expected ',' between object members")
        at += 1


def _parse_entry(data: bytes) -> CacheHit:
    """The :class:`CacheHit` in an entry as :meth:`ResultCache.put` writes it."""

    # canonical_json escapes every non-ASCII character, so character and
    # byte offsets coincide.
    text = data.decode("ascii")
    start = _member_at(text, 0, "result")
    if start is None or text[start] != "{" or not text.endswith("}"):
        raise ValueError("no result object")
    stages: list = []
    extras = _member_at(text, start, "extras")
    if extras is not None:
        at = _member_at(text, extras, "stages")
        if at is not None:
            stages = _DECODER.raw_decode(text, at)[0]
            if not isinstance(stages, list):
                raise ValueError("extras.stages is not a list")
    return CacheHit(data[start:-1], stages)


class ResultCache:
    """On-disk result cache: one JSON entry per cache key.

    ``limit_bytes`` bounds the total size of the entry files; ``None``
    (the default) leaves the cache unbounded.  Recency is tracked through
    entry mtimes — cheap, crash-safe, and shared correctly across the
    scheduler and however many workers touch the directory — and a hit
    refreshes the entry's mtime so hot results survive eviction sweeps.
    """

    def __init__(
        self,
        directory: str,
        limit_bytes: Optional[int] = None,
        registry=None,
    ) -> None:
        if limit_bytes is not None and limit_bytes < 0:
            raise ServiceError(
                f"cache limit_bytes must be >= 0 or None, got {limit_bytes}"
            )
        self.directory = directory
        self.limit_bytes = limit_bytes
        #: Optional metrics registry; when set, lookups/stores/evictions
        #: are counted under ``repro_cache_*`` series.
        self.registry = registry

    def _count(self, name: str, amount: int = 1) -> None:
        if self.registry is not None and amount:
            self.registry.inc(name, amount)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, key: str) -> Optional[CacheHit]:
        """The result stored under ``key``, or ``None``.

        Raises :class:`ServiceError` for an entry that cannot be read or
        is not laid out as :meth:`put` writes it.  The result text past
        ``extras.stages`` is copied unparsed; :meth:`put` writes entries
        atomically, so a torn entry is never observed.
        """

        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self._count("repro_cache_misses_total")
            return None
        except OSError as exc:
            raise ServiceError(f"cache entry for {key!r} is unreadable: {exc}")
        try:
            hit = _parse_entry(data)
        except (ValueError, IndexError) as exc:
            raise ServiceError(
                f"cache entry for {key!r} is malformed: {exc}"
            ) from None
        try:
            os.utime(path)  # mark the entry recently used
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        self._count("repro_cache_hits_total")
        return hit

    def put(
        self,
        key: str,
        key_fields: Dict[str, object],
        rendered_result: bytes,
    ) -> None:
        """Store a result under ``key`` (first write wins; writes are durable).

        ``rendered_result`` is :func:`canonical_json` of the encoded
        result, the text the worker also writes to the job's result file;
        the entry splices it verbatim, so the entry is byte-identical to
        ``canonical_json`` of the whole entry dict.
        ``key_fields`` are stored alongside the result for auditability —
        a cache entry is self-describing about what it answers.
        """

        path = self.entry_path(key)
        if os.path.exists(path):
            return
        self._count("repro_cache_stores_total")
        os.makedirs(self.directory, exist_ok=True)
        # The entry's keys in sorted order: "key" < "key_fields" < "result".
        atomic_write(
            path,
            b'{"key":',
            canonical_json(key),
            b',"key_fields":',
            canonical_json(key_fields),
            b',"result":',
            rendered_result,
            b"}",
        )
        self.evict()

    def evict(self, limit_bytes: Optional[int] = None) -> List[str]:
        """Remove least-recently-used entries until the cache fits.

        ``limit_bytes`` overrides the configured limit for this sweep.
        Returns the evicted keys, oldest first.  With no limit configured
        this is a no-op that never touches the directory, so unbounded
        caches pay nothing.
        """

        limit = self.limit_bytes if limit_bytes is None else limit_bytes
        if limit is None:
            return []
        try:
            names = [
                name for name in os.listdir(self.directory) if name.endswith(".json")
            ]
        except FileNotFoundError:
            return []
        entries = []
        total = 0
        for name in names:
            path = os.path.join(self.directory, name)
            try:
                info = os.stat(path)
            except OSError:  # raced away mid-sweep
                continue
            entries.append((info.st_mtime, name, info.st_size))
            total += info.st_size
        # Oldest mtime first; the name tie-breaks so concurrent sweeps
        # over same-mtime entries pick identical victims.
        entries.sort()
        evicted: List[str] = []
        for mtime, name, size in entries:
            if total <= limit:
                break
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - another sweep got it first
                pass
            total -= size
            evicted.append(name[: -len(".json")])
        self._count("repro_cache_evictions_total", len(evicted))
        return evicted

    def size(self) -> int:
        """Number of cached results."""

        try:
            return sum(
                1 for name in os.listdir(self.directory) if name.endswith(".json")
            )
        except FileNotFoundError:
            return 0

    def total_bytes(self) -> int:
        """Total size of the entry files in bytes."""

        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return 0
        total = 0
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                total += os.stat(os.path.join(self.directory, name)).st_size
            except OSError:  # pragma: no cover - raced away
                continue
        return total
