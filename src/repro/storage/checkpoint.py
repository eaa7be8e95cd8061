"""Versioned on-disk checkpoint files for restartable solver runs.

Long-running semi-external runs (hours of sequential scans on massive
graphs) need to survive being killed.  The pipeline engine persists its
state through this module: a checkpoint file is a three-section binary
document

* line 1 — a JSON header ``{"arrays_bytes", "arrays_checksum",
  "checksum", "format", "payload_bytes", "version"}``;
* the JSON-encoded payload itself (``payload_bytes`` long);
* a binary *arrays section* (``arrays_bytes`` long) holding the large
  integer arrays of the payload.

Format version 2 packs every long list of integers (vertex-state arrays,
ISN entries, independent-set members, kernel edge artifacts …) out of the
JSON text into the arrays section: each array is stored zlib-compressed
in the smallest signed integer width that fits its values, and the JSON
payload keeps only a compact reference
``{"__ckarray__": [offset, nbytes, typecode, count]}``.  On big graphs
this shrinks round checkpoints by an order of magnitude compared to the
version-1 JSON int lists while remaining deterministic.

Payload values may be int lists or 1-D integer or bool NumPy arrays.
Arrays are packed with ``min``/``max`` + ``astype(...).tobytes()``
instead of a per-element Python walk, into exactly the bytes the equal
int list packs to — so a document does not depend on whether its writer
held lists or ndarrays, and it decodes to plain int lists either way
(bool arrays decode as 0/1 ints).  Compression uses zlib level :data:`ZLIB_LEVEL`
(1): the arrays are mostly small-range integers where the fastest level
gives up well under 1% of size against the default and is several times
faster to encode.

The header pins the format name and version, both section byte lengths
and a BLAKE2b digest per section, so every failure mode is detected
*before* any state is applied:

* a file that is not a checkpoint at all, or whose payload or arrays
  section is truncated or altered, raises
  :class:`~repro.errors.CheckpointCorruptError`;
* a checkpoint from an incompatible format version (including the
  retired version-1 JSON-list layout) raises
  :class:`~repro.errors.CheckpointVersionError`;

both derive from :class:`~repro.errors.CheckpointError`, and there is no
silent partial resume.  Writes go through a temporary file in the same
directory followed by an atomic :func:`os.replace` and an fsync of the
directory, so a crash *during* a checkpoint write leaves the previous
complete checkpoint intact and a finished write survives power loss.

Pre-encoded sections
--------------------
Writers that checkpoint frequently can avoid re-encoding the immutable
part of their payload on every write: :func:`encode_section` serializes
one top-level payload value (JSON text plus its slice of the arrays
section) once, and :func:`write_checkpoint` splices such
:class:`EncodedSection` objects verbatim into the document.  The pipeline
engine uses this for the completed-stage prefix — per-round checkpoint
writes then only encode the loop snapshot, and each stage boundary
encodes only the new stage's entry (:func:`extend_section`).  A document
written with pre-encoded sections decodes to the exact payload of one
written plain (and is byte-identical whenever the section keys sort
before the other array-bearing payload keys, as the engine's do).  A
section encoded at arrays offset 0 also carries the BLAKE2b state after
its blob, so a write hashes only the bytes that follow the spliced
prefix.

Record logs
-----------
Writers whose state changes by a small delta per step can append the
delta instead of rewriting the state: :func:`append_record` appends one
document, framed and checksummed exactly like a checkpoint file, to a
log and fsyncs it, so a log is a concatenation of checkpoint documents.
:func:`read_records` returns the log's valid prefix and the offset where
it ends; a record torn by a crash, or one that fails its checksum, ends
the prefix instead of raising.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as _np

from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)
from repro.storage import blocks

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "EncodedSection",
    "Written",
    "append_record",
    "encode_section",
    "extend_section",
    "read_checkpoint",
    "read_records",
    "write_checkpoint",
]

#: Format name recorded in (and required of) every checkpoint header.
CHECKPOINT_FORMAT = "repro-mis-checkpoint"

#: Current checkpoint format version.  Bump on any payload layout change;
#: older files then fail with :class:`CheckpointVersionError` instead of
#: being misinterpreted.  Version 2 moved large integer arrays out of the
#: JSON payload into a compressed binary section.  Version 3 round
#: snapshots carry one fingerprint encoding for both kernel backends.
#: Version 4 round snapshots store each per-vertex array as a sparse
#: overlay on the pass's labelled start, pinned to its initial set.
CHECKPOINT_VERSION = 4

#: JSON key marking an arrays-section reference.  Payloads may not use it
#: as an ordinary dict key.
ARRAY_KEY = "__ckarray__"

#: Integer lists shorter than this stay inline in the JSON payload — the
#: reference object plus compression framing would not pay for itself.
ARRAY_MIN_LENGTH = 32

#: zlib level of every packed array.  Level 1 is several times faster
#: than the default 6 on checkpoint arrays and within 1% of its size.
ZLIB_LEVEL = 1

#: Smallest-first signed widths an array may be packed with.
_TYPECODES: Tuple[Tuple[str, int, int], ...] = (
    ("b", -(2 ** 7), 2 ** 7 - 1),
    ("h", -(2 ** 15), 2 ** 15 - 1),
    ("i", -(2 ** 31), 2 ** 31 - 1),
    ("q", -(2 ** 63), 2 ** 63 - 1),
)


def _hasher():
    return hashlib.blake2b(digest_size=16)


def _digest(payload_bytes: bytes) -> str:
    return hashlib.blake2b(payload_bytes, digest_size=16).hexdigest()


def _is_int_array(value: object) -> bool:
    """Whether ``value`` is a long homogeneous int list worth packing."""

    if not isinstance(value, (list, tuple)) or len(value) < ARRAY_MIN_LENGTH:
        return False
    return all(type(item) is int for item in value)


def _is_int_ndarray(value: object) -> bool:
    """Whether ``value`` is a 1-D integer or bool ndarray."""

    return (
        isinstance(value, _np.ndarray) and value.ndim == 1 and value.dtype.kind in "biu"
    )


def _typecode(low: int, high: int) -> str:
    """The smallest signed typecode holding every value in ``[low, high]``."""

    for typecode, lo, hi in _TYPECODES:
        if lo <= low and high <= hi:
            return typecode
    raise CheckpointError("checkpoint array value does not fit in 64 bits")


def _append_packed(
    raw: bytes, typecode: str, count: int, blob_parts: List[bytes], offset: int
) -> Tuple[dict, int]:
    packed = zlib.compress(raw, ZLIB_LEVEL)
    blob_parts.append(packed)
    reference = {ARRAY_KEY: [offset, len(packed), typecode, count]}
    return reference, offset + len(packed)


def _pack_array(values, blob_parts: List[bytes], offset: int) -> Tuple[dict, int]:
    """Append ``values`` to the arrays section, return (reference, new offset)."""

    typecode = _typecode(min(values), max(values))
    return _append_packed(
        array(typecode, values).tobytes(), typecode, len(values), blob_parts, offset
    )


def _pack_ndarray(values, blob_parts: List[bytes], offset: int):
    """The ndarray counterpart of :func:`_pack_array` (same bytes, no walk).

    Arrays shorter than :data:`ARRAY_MIN_LENGTH` stay inline, like short
    lists; bool arrays pack as 0/1 ints.
    """

    if values.dtype.kind == "b":
        values = values.view(_np.int8)
    if values.size < ARRAY_MIN_LENGTH:
        return values.tolist(), offset
    typecode = _typecode(int(values.min()), int(values.max()))
    raw = values.astype(_np.dtype(typecode), copy=False).tobytes()
    return _append_packed(raw, typecode, int(values.size), blob_parts, offset)


def _extract_arrays(value, blob_parts: List[bytes], offset: int):
    """Deep-copy ``value`` with long int arrays replaced by array references.

    Returns ``(converted value, new arrays-section offset)``.
    """

    if _is_int_array(value):
        return _pack_array(value, blob_parts, offset)
    if _is_int_ndarray(value):
        return _pack_ndarray(value, blob_parts, offset)
    if isinstance(value, (list, tuple)):
        converted = []
        for item in value:
            item, offset = _extract_arrays(item, blob_parts, offset)
            converted.append(item)
        return converted, offset
    if isinstance(value, dict):
        if ARRAY_KEY in value:
            raise CheckpointError(
                f"checkpoint payloads may not use the reserved key {ARRAY_KEY!r}"
            )
        converted = {}
        for key, item in value.items():
            converted[key], offset = _extract_arrays(item, blob_parts, offset)
        return converted, offset
    return value, offset


def _restore_arrays(value, blob: bytes):
    """Inverse of :func:`_extract_arrays`: expand references into int lists."""

    if isinstance(value, dict):
        reference = value.get(ARRAY_KEY)
        if reference is not None and len(value) == 1:
            try:
                offset, nbytes, typecode, count = reference
                window = blob[offset : offset + nbytes]
                if len(window) != nbytes:
                    raise ValueError("array reference outside the arrays section")
                values = array(typecode, zlib.decompress(window))
                if len(values) != count:
                    raise ValueError("array length mismatch")
            except (ValueError, TypeError, zlib.error) as exc:
                raise CheckpointCorruptError(
                    f"checkpoint arrays section is inconsistent: {exc}"
                ) from None
            return values.tolist()
        return {key: _restore_arrays(item, blob) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore_arrays(item, blob) for item in value]
    return value


def _dump_json(value) -> bytes:
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint payload is not JSON-serializable: {exc}")


@dataclass(frozen=True)
class EncodedSection:
    """One pre-encoded top-level payload value.

    ``json_bytes`` is the value's JSON text (with array references),
    ``blob`` its slice of the arrays section, and ``base_offset`` the
    arrays-section offset the references were encoded against —
    :func:`write_checkpoint` places section blobs at exactly these
    offsets, so re-used sections splice in without re-encoding.  A
    section at offset 0 also keeps ``blob_hash``, the arrays-section
    BLAKE2b state after its blob, which writes copy instead of
    re-hashing the blob.
    """

    json_bytes: bytes
    blob: bytes
    base_offset: int
    blob_hash: Optional[object] = field(default=None, compare=False, repr=False)


def encode_section(value, base_offset: int = 0) -> EncodedSection:
    """Serialize one payload value for later splicing into checkpoints.

    The returned section is only valid in documents that place its blob
    at ``base_offset`` of the arrays section; :func:`write_checkpoint`
    enforces this.

    A list section grows without re-encoding what it holds:
    ``extend_section(encode_section(items, o), item)`` equals
    ``encode_section(items + [item], o)`` — the same ``json_bytes``,
    ``blob`` and ``blob_hash`` digest — and costs only ``item``'s
    encoding.  Payload values may hold lists or ndarrays interchangeably
    (they pack to the same bytes), so a writer can keep array-native
    values and still match a section encoded from their list form.
    """

    blob_parts: List[bytes] = []
    converted, _offset = _extract_arrays(value, blob_parts, base_offset)
    blob = b"".join(blob_parts)
    blob_hash = None
    if base_offset == 0:
        blob_hash = _hasher()
        blob_hash.update(blob)
    return EncodedSection(
        json_bytes=_dump_json(converted),
        blob=blob,
        base_offset=base_offset,
        blob_hash=blob_hash,
    )


def extend_section(section: EncodedSection, item) -> EncodedSection:
    """The section of a list value with ``item`` appended.

    ``section`` must encode a list (see :func:`encode_section`).  Only
    ``item`` is encoded: its arrays are packed after ``section.blob`` and
    its JSON text spliced before the closing bracket, and the blob hash
    of an offset-0 section resumes from the kept state.  ``item`` may not
    be an int: an int list of :data:`ARRAY_MIN_LENGTH` or more items
    encodes as one packed array, not item by item.
    """

    if not section.json_bytes.startswith(b"[") or not section.json_bytes.endswith(
        b"]"
    ):
        raise CheckpointError("only a list checkpoint section can be extended")
    if isinstance(item, int):
        raise CheckpointError("a checkpoint section cannot be extended by an int")
    blob_parts: List[bytes] = []
    converted, _offset = _extract_arrays(
        item, blob_parts, section.base_offset + len(section.blob)
    )
    tail = b"".join(blob_parts)
    head = section.json_bytes[:-1]
    separator = b"," if len(head) > 1 else b""
    blob_hash = None
    if section.blob_hash is not None:
        blob_hash = section.blob_hash.copy()
        blob_hash.update(tail)
    return EncodedSection(
        json_bytes=head + separator + _dump_json(converted) + b"]",
        blob=section.blob + tail,
        base_offset=section.base_offset,
        blob_hash=blob_hash,
    )


class Written(NamedTuple):
    """What one document write put on disk: its length and payload checksum."""

    nbytes: int
    checksum: str


def write_checkpoint(
    path: str,
    payload: Dict[str, object],
    sections: Optional[Mapping[str, EncodedSection]] = None,
) -> Written:
    """Atomically write ``payload`` as a versioned checkpoint file.

    ``sections`` maps additional top-level keys (disjoint from
    ``payload``'s) to pre-encoded values from :func:`encode_section`;
    their blobs must tile the front of the arrays section in sorted key
    order, i.e. each ``base_offset`` equals the total blob length of the
    sections sorted before it.  The resulting file decodes identically
    to writing the merged plain payload (byte-identically when the
    section keys sort before every array-bearing payload key).

    The write goes through :func:`~repro.storage.blocks.atomic_write`:
    readers never observe a half-written file, and the new file (its
    directory entry included) survives a power failure.  Returns the
    document's length and payload checksum.
    """

    written, parts = _encode_document(payload, sections)
    blocks.atomic_write(path, *parts)
    return written


def append_record(path: str, payload: Dict[str, object]) -> Written:
    """Append ``payload`` as one checkpoint document to the log at ``path``.

    A log is a plain concatenation of checkpoint documents, each framed
    and checksummed exactly as :func:`write_checkpoint` frames a file.
    The record is fsynced before this returns, and so is the directory
    when the call creates the log.  A crash mid-append leaves a torn
    tail that :func:`read_records` stops at.
    """

    written, parts = _encode_document(payload, None)
    created = not os.path.exists(path)
    with open(path, "ab") as handle:
        handle.writelines(parts)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        blocks.fsync_directory(path)
    return written


def _encode_document(
    payload: Dict[str, object],
    sections: Optional[Mapping[str, EncodedSection]],
) -> Tuple[Written, List[bytes]]:
    """One document's byte parts (header line, payload, arrays section)."""

    sections = dict(sections or {})
    overlap = sections.keys() & payload.keys()
    if overlap:
        raise CheckpointError(
            f"checkpoint section keys duplicate payload keys: "
            f"{', '.join(sorted(overlap))}"
        )
    blob_parts: List[bytes] = []
    offset = 0
    for key in sorted(sections):
        section = sections[key]
        if section.base_offset != offset:
            raise CheckpointError(
                f"checkpoint section {key!r} was encoded for arrays offset "
                f"{section.base_offset} but would land at {offset}; re-encode it"
            )
        blob_parts.append(section.blob)
        offset += len(section.blob)

    items: List[bytes] = []
    for key in sorted(payload.keys() | sections.keys()):
        if key in sections:
            value_json = sections[key].json_bytes
        else:
            converted, offset = _extract_arrays(payload[key], blob_parts, offset)
            value_json = _dump_json(converted)
        items.append(_dump_json(key) + b":" + value_json)
    payload_bytes = b"{" + b",".join(items) + b"}"

    # Hash the arrays section part by part, resuming after a spliced
    # leading section's pre-hashed blob instead of hashing it again.
    arrays_hash, unhashed = _hasher(), blob_parts
    if sections:
        first = sections[min(sections)]
        if first.blob_hash is not None:
            arrays_hash, unhashed = first.blob_hash.copy(), blob_parts[1:]
    for part in unhashed:
        arrays_hash.update(part)

    checksum = _digest(payload_bytes)
    header = {
        "arrays_bytes": offset,  # the offset past the last packed array
        "arrays_checksum": arrays_hash.hexdigest(),
        "checksum": checksum,
        "format": CHECKPOINT_FORMAT,
        "payload_bytes": len(payload_bytes),
        "version": CHECKPOINT_VERSION,
    }
    parts = [_dump_json(header), b"\n", payload_bytes, b"\n", *blob_parts]
    return Written(sum(map(len, parts)), checksum), parts


def read_checkpoint(path: str, *, with_checksum: bool = False):
    """Read and verify a checkpoint file, returning its payload dict.

    With ``with_checksum=True`` returns ``(payload, checksum)``, the
    checksum being the payload digest :func:`write_checkpoint` returned.

    Raises
    ------
    CheckpointCorruptError
        The file is not a checkpoint, or its payload or arrays section is
        truncated or does not match the recorded checksum.
    CheckpointVersionError
        The file was written by an incompatible format version.
    CheckpointError
        The file does not exist.
    """

    try:
        with open(path, "rb") as handle:
            document = handle.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file {path!r} does not exist") from None
    payload, checksum, _end = _decode_document(document, 0, path, to_end=True)
    return (payload, checksum) if with_checksum else payload


def read_records(
    path: str, accept: Optional[Callable[[Dict[str, object]], bool]] = None
) -> Tuple[List[Dict[str, object]], int]:
    """Read the valid prefix of a log written by :func:`append_record`.

    Returns ``(payloads, offset)``: the records in order, up to the first
    torn, corrupt or foreign-version one — or, with ``accept``, the first
    one it rejects — and the byte offset where that record starts (the
    file length when every record is valid).  A missing log is empty.
    """

    try:
        with open(path, "rb") as handle:
            document = handle.read()
    except FileNotFoundError:
        return [], 0
    records: List[Dict[str, object]] = []
    offset = 0
    while offset < len(document):
        try:
            payload, _checksum, end = _decode_document(
                document, offset, path, to_end=False
            )
        except CheckpointError:
            break
        if accept is not None and not accept(payload):
            break
        records.append(payload)
        offset = end
    return records, offset


def _decode_document(
    document: bytes, start: int, path: str, *, to_end: bool
) -> Tuple[Dict[str, object], str, int]:
    """Verify and decode the document at ``start`` of ``document``.

    Returns ``(payload, checksum, end offset)``.  With ``to_end`` the
    arrays section must run to the end of ``document`` (a checkpoint
    file); otherwise it ends where the header says (a log record).
    """

    newline = document.find(b"\n", start)
    if newline < 0:
        newline = len(document)
    header_line = document[start:newline]
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CheckpointCorruptError(
            f"{path!r} is not a checkpoint file (unreadable header)"
        ) from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointCorruptError(
            f"{path!r} is not a checkpoint file (missing format marker)"
        )
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(found=version, supported=CHECKPOINT_VERSION)

    expected_length = header.get("payload_bytes")
    if not isinstance(expected_length, int) or expected_length < 0:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} header carries no valid payload length"
        )
    body = newline + 1
    payload_bytes = document[body : body + expected_length]
    arrays_start = body + expected_length + 1
    if len(payload_bytes) != expected_length or document[
        arrays_start - 1 : arrays_start
    ] != b"\n":
        raise CheckpointCorruptError(
            f"checkpoint {path!r} is truncated: expected {expected_length} payload "
            f"bytes, found {len(payload_bytes)}"
        )
    expected_arrays = header.get("arrays_bytes")
    if not isinstance(expected_arrays, int) or expected_arrays < 0:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} header carries no valid arrays length"
        )
    end = len(document) if to_end else arrays_start + expected_arrays
    arrays_blob = document[arrays_start:end]
    if len(arrays_blob) != expected_arrays:
        raise CheckpointCorruptError(
            f"checkpoint {path!r} arrays section is truncated: expected "
            f"{expected_arrays} bytes, found {len(arrays_blob)}"
        )
    checksum = _digest(payload_bytes)
    if checksum != header.get("checksum"):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} failed its checksum; the file is corrupt"
        )
    if _digest(arrays_blob) != header.get("arrays_checksum"):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} arrays section failed its checksum; the file "
            f"is corrupt"
        )
    try:
        payload = json.loads(payload_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):  # pragma: no cover - checksum
        raise CheckpointCorruptError(
            f"checkpoint {path!r} payload is not valid JSON"
        ) from None
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"checkpoint {path!r} payload is not a JSON object"
        )
    return _restore_arrays(payload, arrays_blob), checksum, end
