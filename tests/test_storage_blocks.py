"""Unit tests for IOStats and the BlockDevice abstraction."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.storage.blocks import BlockDevice
from repro.storage.io_stats import IOStats


class TestIOStats:
    def test_record_read_sequential_does_not_count_seek(self):
        stats = IOStats()
        stats.record_read(100, 1, sequential=True)
        assert stats.bytes_read == 100
        assert stats.blocks_read == 1
        assert stats.random_seeks == 0

    def test_record_read_random_counts_seek(self):
        stats = IOStats()
        stats.record_read(100, 2, sequential=False)
        assert stats.random_seeks == 1
        assert stats.blocks_read == 2

    def test_record_write_and_scan(self):
        stats = IOStats()
        stats.record_write(64, 1)
        stats.record_scan()
        stats.record_vertex_lookup()
        assert stats.bytes_written == 64
        assert stats.sequential_scans == 1
        assert stats.random_vertex_lookups == 1

    def test_merge_and_add(self):
        a = IOStats(bytes_read=10, sequential_scans=1)
        b = IOStats(bytes_read=5, random_seeks=2)
        combined = a + b
        assert combined.bytes_read == 15
        assert combined.sequential_scans == 1
        assert combined.random_seeks == 2
        # The originals are untouched.
        assert a.bytes_read == 10

    def test_copy_is_independent(self):
        a = IOStats(bytes_read=10)
        b = a.copy()
        b.record_read(5, 1, True)
        assert a.bytes_read == 10
        assert b.bytes_read == 15

    def test_delta_since(self):
        a = IOStats()
        snapshot = a.copy()
        a.record_read(100, 1, True)
        a.record_scan()
        delta = a.delta_since(snapshot)
        assert delta.bytes_read == 100
        assert delta.sequential_scans == 1

    def test_as_dict_and_str(self):
        stats = IOStats(blocks_read=3)
        assert stats.as_dict()["blocks_read"] == 3
        assert "blocks_read=3" in str(stats)


class TestBlockDevice:
    def test_in_memory_roundtrip(self):
        device = BlockDevice(block_size=16)
        offset = device.append(b"hello world")
        assert offset == 0
        assert device.read_at(0, 5) == b"hello"
        assert device.size == 11

    def test_file_backed_roundtrip(self, tmp_path):
        path = tmp_path / "data.bin"
        with BlockDevice(path, block_size=8, create=True) as device:
            device.append(b"0123456789")
            device.flush()
            assert device.path == str(path)
        with BlockDevice(path, block_size=8) as device:
            assert device.read_at(2, 4) == b"2345"

    def test_opening_an_input_never_creates_or_writes_it(self, tmp_path):
        missing = tmp_path / "missing.adj"
        with pytest.raises(StorageError, match="cannot open"):
            BlockDevice(missing)
        assert not missing.exists()
        existing = tmp_path / "data.bin"
        existing.write_bytes(b"0123")
        with BlockDevice(existing) as device:
            with pytest.raises(OSError):
                device.append(b"x")
        assert existing.read_bytes() == b"0123"

    def test_block_accounting_counts_spanned_blocks(self):
        device = BlockDevice(block_size=4)
        device.append(b"abcdefgh")  # spans 2 blocks
        assert device.stats.blocks_written == 2
        device.read_at(2, 4)  # bytes 2..5 span blocks 0 and 1
        assert device.stats.blocks_read == 2

    def test_sequential_vs_random_reads(self):
        device = BlockDevice(block_size=4)
        device.append(b"abcdefghij")
        device.read_at(0, 4)
        device.read_at(4, 4)  # contiguous with the previous read
        assert device.stats.random_seeks == 0
        device.read_at(0, 2)  # jump back
        assert device.stats.random_seeks == 1

    def test_reset_sequential_cursor_forces_seek(self):
        device = BlockDevice(block_size=4)
        device.append(b"abcdefgh")
        device.read_at(0, 4)
        device.reset_sequential_cursor()
        device.read_at(4, 4)
        assert device.stats.random_seeks == 1

    def test_short_read_raises(self):
        device = BlockDevice(block_size=4)
        device.append(b"abc")
        with pytest.raises(StorageError):
            device.read_at(0, 10)

    def test_negative_offset_rejected(self):
        device = BlockDevice(block_size=4)
        with pytest.raises(StorageError):
            device.read_at(-1, 2)
        with pytest.raises(StorageError):
            device.write_at(-1, b"x")

    def test_write_at_overwrites(self):
        device = BlockDevice(block_size=4)
        device.append(b"aaaa")
        device.write_at(1, b"bb")
        assert device.read_at(0, 4) == b"abba"

    def test_invalid_block_size_rejected(self):
        with pytest.raises(StorageError):
            BlockDevice(block_size=0)

    def test_num_blocks(self):
        device = BlockDevice(block_size=4)
        assert device.num_blocks() == 0
        device.append(b"abcde")
        assert device.num_blocks() == 2

    def test_shared_stats_object(self):
        stats = IOStats()
        device = BlockDevice(block_size=4, stats=stats)
        device.append(b"abcd")
        assert stats.bytes_written == 4
