"""Block device abstraction with a configurable block size.

The external-memory model charges I/O per *block* of ``B`` bytes.  The
:class:`BlockDevice` wraps either a real file on disk or an in-memory
buffer, exposes byte-addressed reads and appends, and charges every access
to an :class:`repro.storage.io_stats.IOStats` object:

* the number of blocks touched by a read/write is ``ceil``-rounded from the
  byte range;
* a read that does not start exactly where the previous one ended is
  counted as a random seek.

Running against an in-memory buffer keeps the unit tests and benchmarks
fast while exercising exactly the same accounting code path as the
file-backed device.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Optional, Tuple, Union

from repro.errors import StorageError
from repro.storage.io_stats import IOStats

__all__ = [
    "BlockDevice",
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_BATCH_BLOCKS",
    "atomic_write",
    "fsync_directory",
]

#: Default block size of 64 KiB — a typical unit of sequential disk transfer.
DEFAULT_BLOCK_SIZE = 64 * 1024

#: Default number of device blocks a batched sequential reader requests per
#: read (see :meth:`repro.storage.adjacency_file.AdjacencyFileReader.scan_batches`,
#: the converters' text read, and ``MemmapAdjacencySource.charge_scan``).
#: Sixteen 64 KiB blocks = 1 MiB per request, large enough to amortise the
#: per-batch ndarray parsing without hoarding memory.
DEFAULT_BATCH_BLOCKS = 16


def fsync_directory(path: str) -> None:
    """Make a rename or file creation in ``path``'s directory durable."""

    descriptor = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write(path: str, *parts: bytes) -> None:
    """Durably replace ``path`` with the concatenation of ``parts``.

    The bytes go to a sibling temporary file named after this process and
    a random token — so concurrent writers of one path never share a
    temporary — which is fsynced and renamed over ``path``; the directory
    is fsynced after the rename.  Readers see the old file or the new
    one, never a partial write, and a finished write survives power loss.
    """

    temp_path = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(temp_path, "wb") as handle:
            handle.writelines(parts)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    fsync_directory(path)


class BlockDevice:
    """Byte-addressable storage with block-granular I/O accounting.

    Parameters
    ----------
    backing:
        Either a filesystem path (``str`` / ``os.PathLike``) or ``None`` for
        an in-memory device.
    block_size:
        Block size ``B`` in bytes used for accounting.
    stats:
        Optional shared :class:`IOStats`; a fresh one is created otherwise.
    create:
        When backing is a path and ``create`` is true, the file is
        truncated/created; otherwise it must already exist and is opened
        read-only (:class:`StorageError` if it cannot be opened).
    """

    def __init__(
        self,
        backing: Optional[Union[str, os.PathLike]] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        stats: Optional[IOStats] = None,
        create: bool = False,
    ) -> None:
        if block_size <= 0:
            raise StorageError(f"block_size must be positive, got {block_size}")
        self.block_size = int(block_size)
        self.stats = stats if stats is not None else IOStats()
        self._path: Optional[str] = None
        self._next_sequential_offset = 0
        self._last_block_read = -1
        self._last_block_written = -1
        if backing is None:
            self._file: BinaryIO = io.BytesIO()
        else:
            self._path = os.fspath(backing)
            if create:
                self._file = open(self._path, "w+b")
            else:
                try:
                    self._file = open(self._path, "rb")
                except OSError as exc:
                    raise StorageError(
                        f"cannot open {self._path!r}: {exc.strerror or exc}"
                    ) from None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying file (no-op for in-memory devices that were closed)."""

        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "BlockDevice":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def reopen(self) -> "BlockDevice":
        """A second handle on the same bytes, with its own stats and cursor.

        Reading through it charges nothing to this device's ``IOStats`` and
        leaves this device's sequential cursor where it was — format
        conversion reads a file this way.  An in-memory device is copied.
        """

        twin = BlockDevice(self._path, block_size=self.block_size)
        if self._path is None:
            twin._file = io.BytesIO(self._file.getvalue())
        return twin

    @property
    def path(self) -> Optional[str]:
        """Filesystem path of the device, or ``None`` for an in-memory device."""

        return self._path

    @property
    def size(self) -> int:
        """Current size of the device contents in bytes."""

        current = self._file.tell()
        self._file.seek(0, os.SEEK_END)
        end = self._file.tell()
        self._file.seek(current)
        return end

    def num_blocks(self) -> int:
        """Number of blocks currently occupied (``ceil(size / block_size)``)."""

        return self._blocks_spanned(0, self.size)

    def batch_bytes(self, num_blocks: int = DEFAULT_BATCH_BLOCKS) -> int:
        """Preferred size in bytes of one batched sequential read request."""

        if num_blocks <= 0:
            raise StorageError(f"num_blocks must be positive, got {num_blocks}")
        return self.block_size * num_blocks

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def _blocks_spanned(self, offset: int, length: int) -> int:
        """Number of device blocks the byte range ``[offset, offset+length)`` touches."""

        if length <= 0:
            return 0
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        return last - first + 1

    def charge_read(self, offset: int, length: int) -> None:
        """Account for a read of ``[offset, offset+length)`` without doing it.

        Applies exactly the charges :meth:`read_at` would apply — bytes,
        ceil-spanned blocks with the sequential one-block discount, seek
        detection — and advances the sequential cursor identically, so a
        caller that already holds the bytes (a striped worker scan, a
        re-mapped artifact) can keep the modeled ``IOStats`` bit-identical
        to a real sequential scan.
        """

        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        sequential = offset == self._next_sequential_offset
        self._next_sequential_offset = offset + length
        blocks = self._blocks_spanned(offset, length)
        # A sequential read that starts inside the block the previous read
        # already touched does not transfer that block again (the buffer
        # manager still holds it), so it is not charged twice.
        if sequential and length > 0 and offset // self.block_size == self._last_block_read:
            blocks -= 1
        if length > 0:
            self._last_block_read = (offset + length - 1) // self.block_size
        self.stats.record_read(length, blocks, sequential)

    def read_at(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``offset`` and account for them.

        Raises :class:`StorageError` when the range extends past the end of
        the device (short reads would silently corrupt records otherwise).
        """

        if offset < 0 or length < 0:
            raise StorageError("offset and length must be non-negative")
        self._file.seek(offset)
        data = self._file.read(length)
        if len(data) != length:
            raise StorageError(
                f"short read: requested {length} bytes at offset {offset}, got {len(data)}"
            )
        self.charge_read(offset, length)
        return data

    def append(self, data: bytes) -> int:
        """Append ``data`` at the end of the device and return its offset."""

        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        self._file.write(data)
        blocks = self._blocks_spanned(offset, len(data))
        # Appends fill the tail block incrementally; the partially filled
        # block the previous append already touched is only charged once.
        if data and offset // self.block_size == self._last_block_written:
            blocks -= 1
        if data:
            self._last_block_written = (offset + len(data) - 1) // self.block_size
        self.stats.record_write(len(data), blocks)
        return offset

    def write_at(self, offset: int, data: bytes) -> None:
        """Overwrite ``data`` at ``offset`` (used by the external sorter's runs)."""

        if offset < 0:
            raise StorageError("offset must be non-negative")
        self._file.seek(offset)
        self._file.write(data)
        self.stats.record_write(len(data), self._blocks_spanned(offset, len(data)))

    def flush(self) -> None:
        """Flush buffered writes to the backing store."""

        self._file.flush()

    def reset_sequential_cursor(self) -> None:
        """Forget the previous read position so the next read counts as a seek."""

        self._next_sequential_offset = -1
        self._last_block_read = -1

    def sequential_cursor(self) -> Tuple[int, int]:
        """Snapshot of the sequential read-ahead state.

        Pair with :meth:`restore_sequential_cursor` to service a random
        probe from a separate buffer without perturbing the accounting of
        an ongoing sequential scan.
        """

        return (self._next_sequential_offset, self._last_block_read)

    def restore_sequential_cursor(self, cursor: Tuple[int, int]) -> None:
        """Restore a read-ahead state captured by :meth:`sequential_cursor`."""

        self._next_sequential_offset, self._last_block_read = cursor
