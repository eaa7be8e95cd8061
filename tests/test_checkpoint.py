"""Robustness tests of the versioned checkpoint file format."""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest

from repro.storage import blocks as blocks_module
from repro.storage import checkpoint as checkpoint_module
from snapshot_helpers import plain

from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
)
from repro.storage.checkpoint import (
    ARRAY_MIN_LENGTH,
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    ZLIB_LEVEL,
    append_record,
    encode_section,
    extend_section,
    read_checkpoint,
    read_records,
    write_checkpoint,
)

PAYLOAD = {
    "spec": {"name": "two_k_swap", "stages": [{"stage": "greedy"}]},
    "io": {"bytes_read": 123, "sequential_scans": 4},
    "loop_state": {"state": [0, 1, 2], "history": None},
    "stage_index": 1,
}


class TestRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        assert read_checkpoint(path) == PAYLOAD

    def test_overwrite_replaces_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        write_checkpoint(path, {"stage_index": 2})
        assert read_checkpoint(path) == {"stage_index": 2}

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_unserializable_payload_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(CheckpointError):
            write_checkpoint(path, {"bad": object()})


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            read_checkpoint(str(tmp_path / "absent.json"))

    def test_truncated_payload(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) - 20])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint(path)

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        data = bytearray(open(path, "rb").read())
        # Flip a digit inside the payload (after the header newline) without
        # changing the length.
        body_start = data.index(b"\n") + 1
        slot = data.index(b"123", body_start)
        data[slot] = ord("9")
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)

    def test_not_a_checkpoint_file(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as handle:
            handle.write("definitely not json\n{}")
        with pytest.raises(CheckpointCorruptError, match="not a checkpoint"):
            read_checkpoint(path)

    def test_other_json_is_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w") as handle:
            json.dump({"version": 1, "something": "else"}, handle)
        with pytest.raises(CheckpointCorruptError, match="format marker"):
            read_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, PAYLOAD)
        data = open(path, "rb").read()
        header_line, _, rest = data.partition(b"\n")
        header = json.loads(header_line)
        assert header["format"] == CHECKPOINT_FORMAT
        header["version"] = CHECKPOINT_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(CheckpointVersionError) as excinfo:
            read_checkpoint(path)
        assert excinfo.value.found == CHECKPOINT_VERSION + 1
        assert excinfo.value.supported == CHECKPOINT_VERSION
        assert "re-run without --resume" in str(excinfo.value)

    def test_failures_are_typed_checkpoint_errors(self, tmp_path):
        # Every failure mode derives from CheckpointError, so callers can
        # catch the whole family at once.
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointVersionError, CheckpointError)

    def test_truncated_arrays_section(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, {"state": list(range(5000))})
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:-10])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint(path)

    def test_flipped_arrays_byte_fails_checksum(self, tmp_path):
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, {"state": list(range(5000))})
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)


class TestBinaryArrays:
    """Format v2: long int lists live in the compressed arrays section."""

    def test_long_int_lists_round_trip(self, tmp_path):
        rng = random.Random(7)
        payload = {
            "state": [rng.randrange(0, 7) for _ in range(10_000)],
            "isn": [rng.randrange(-1, 1 << 40) for _ in range(10_000)],
            "nested": {"deep": [list(range(100)), "text", None]},
            "short": [1, 2, 3],
        }
        path = str(tmp_path / "ck.json")
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_arrays_leave_the_json_payload(self, tmp_path):
        path = str(tmp_path / "ck.json")
        values = list(range(100_000))
        write_checkpoint(path, {"big": values})
        header_line, _, _rest = open(path, "rb").read().partition(b"\n")
        header = json.loads(header_line)
        # The JSON payload holds only the reference, not 100k literals.
        assert header["payload_bytes"] < 200
        assert header["arrays_bytes"] > 0

    def test_binary_checkpoint_much_smaller_than_json_lists(self, tmp_path):
        """The satellite's acceptance bar: measurably smaller at n >= 1e5.

        A round checkpoint's bulk is the vertex-state array (tiny ints)
        and the ISN array (vertex ids); both must shrink by far more
        than "measurable" against their version-1 JSON int-list form.
        """

        rng = random.Random(13)
        n = 100_000
        state = [rng.randrange(0, 7) for _ in range(n)]
        isn = [rng.randrange(-1, n) for _ in range(n)]
        payload = {"loop_state": {"state": state, "isn": isn}}
        path = str(tmp_path / "ck.bin")
        write_checkpoint(path, payload)
        binary_size = os.path.getsize(path)
        json_size = len(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        assert binary_size < json_size / 2, (binary_size, json_size)

    def test_threshold_keeps_short_lists_inline(self, tmp_path):
        path = str(tmp_path / "ck.json")
        short = list(range(ARRAY_MIN_LENGTH - 1))
        write_checkpoint(path, {"short": short})
        header_line, _, _ = open(path, "rb").read().partition(b"\n")
        assert json.loads(header_line)["arrays_bytes"] == 0

    def test_mixed_type_lists_stay_inline(self, tmp_path):
        path = str(tmp_path / "ck.json")
        mixed = list(range(100)) + ["x"]
        write_checkpoint(path, {"mixed": mixed})
        assert read_checkpoint(path) == {"mixed": mixed}
        header_line, _, _ = open(path, "rb").read().partition(b"\n")
        assert json.loads(header_line)["arrays_bytes"] == 0

    def test_reserved_key_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(CheckpointError, match="reserved"):
            write_checkpoint(path, {"payload": {"__ckarray__": [0, 1, "b", 1]}})

    def test_extreme_values_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        values = [-(2 ** 63), 2 ** 63 - 1, 0, -1] * 16
        write_checkpoint(path, {"extremes": values})
        assert read_checkpoint(path) == {"extremes": values}


class TestNdarrayPacking:
    """ndarray values pack into exactly the bytes of the equal int list."""

    @pytest.fixture
    def np(self):
        import numpy

        return numpy

    @staticmethod
    def _both(tmp_path, as_list, as_array):
        plain, packed = str(tmp_path / "list.ck"), str(tmp_path / "array.ck")
        write_checkpoint(plain, {"values": as_list, "tag": 1})
        write_checkpoint(packed, {"values": as_array, "tag": 1})
        return open(plain, "rb").read(), open(packed, "rb").read(), plain

    @pytest.mark.parametrize(
        "low, high, typecode, dtype",
        [
            (0, 100, "b", "int64"),
            (-128, 127, "b", "int8"),
            (-300, 30_000, "h", "int64"),
            (-300, 30_000, "h", "int32"),
            (-(2 ** 31), 2 ** 31 - 1, "i", "int32"),
            (0, 2 ** 31 - 1, "i", "uint32"),
            (-(2 ** 40), 2 ** 62, "q", "int64"),
        ],
    )
    def test_every_width_matches_the_list_bytes(
        self, np, tmp_path, low, high, typecode, dtype
    ):
        rng = random.Random(low ^ high)
        values = [low, high] + [rng.randint(low, high) for _ in range(200)]
        plain, packed, path = self._both(
            tmp_path, values, np.asarray(values, dtype=dtype)
        )
        assert plain == packed
        header_line, _, body = plain.partition(b"\n")
        document = json.loads(body[: json.loads(header_line)["payload_bytes"]])
        assert document["values"]["__ckarray__"][2] == typecode
        assert read_checkpoint(path)["values"] == values

    def test_unsigned_and_negative_arrays(self, np, tmp_path):
        for values in (
            list(range(-64, 0)),
            list(range(200, 256)),
            [-(2 ** 63), 2 ** 63 - 1] * 20,
        ):
            dtype = np.uint8 if values[0] >= 0 else np.int64
            plain, packed, _ = self._both(
                tmp_path, values, np.asarray(values, dtype=dtype)
            )
            assert plain == packed
        too_wide = np.full(ARRAY_MIN_LENGTH, 2 ** 63, dtype=np.uint64)
        with pytest.raises(CheckpointError, match="64 bits"):
            write_checkpoint(str(tmp_path / "wide.ck"), {"values": too_wide})

    def test_bool_arrays_pack_as_0_1_ints(self, np, tmp_path):
        flags = np.random.default_rng(3).random(500) < 0.3
        plain, packed, path = self._both(
            tmp_path, flags.astype(int).tolist(), flags
        )
        assert plain == packed
        assert read_checkpoint(path)["values"] == flags.astype(int).tolist()

    @pytest.mark.parametrize("length", [0, 1, ARRAY_MIN_LENGTH - 1])
    @pytest.mark.parametrize("dtype", ["int64", "int8", "bool"])
    def test_empty_and_short_arrays_stay_inline(self, np, tmp_path, length, dtype):
        array = (np.arange(length) % 2).astype(dtype)
        values = array.astype(int).tolist()
        plain, packed, path = self._both(tmp_path, values, array)
        assert plain == packed
        header = json.loads(packed.partition(b"\n")[0])
        assert header["arrays_bytes"] == 0
        assert read_checkpoint(path)["values"] == values

    def test_other_arrays_are_not_serializable(self, np, tmp_path):
        for array in (np.arange(80).reshape(2, 40), np.linspace(0.0, 1.0, 50)):
            with pytest.raises(CheckpointError, match="JSON-serializable"):
                write_checkpoint(str(tmp_path / "ck"), {"values": array})

    def test_arrays_inside_sections_match_list_sections(self, np):
        value = {"offsets": np.arange(0, 400, 4), "targets": np.arange(400) % 97}
        listed = {key: array.tolist() for key, array in value.items()}
        assert encode_section(value) == encode_section(listed)


class TestCompressionLevel:
    def test_arrays_compress_at_the_module_level(self, tmp_path):
        import zlib

        assert ZLIB_LEVEL == 1
        values = [v % 97 for v in range(5000)]
        path = str(tmp_path / "ck")
        write_checkpoint(path, {"values": values})
        header_line, _, body = open(path, "rb").read().partition(b"\n")
        blob = body[json.loads(header_line)["payload_bytes"] + 1 :]
        raw = zlib.decompress(blob)
        assert blob == zlib.compress(raw, ZLIB_LEVEL)

    def test_files_written_at_another_level_still_read(self, tmp_path, monkeypatch):
        # Checkpoints from writers that compressed at zlib's default level
        # carry the same version and decode unchanged.
        values = list(range(10_000))
        path = str(tmp_path / "ck")
        monkeypatch.setattr(checkpoint_module, "ZLIB_LEVEL", 6)
        write_checkpoint(path, {"values": values})
        monkeypatch.undo()
        assert read_checkpoint(path) == {"values": values}


class TestEncodedSections:
    """Pre-encoded sections splice in without re-encoding — and identically."""

    PAYLOAD_REST = {
        "io": {"bytes_read": 9},
        "loop_state": {"state": list(range(4000)), "round": 3},
        "phase": "round",
    }
    COMPLETED = [
        {"report": {"stage": "greedy"}, "result": {"independent_set": list(range(2000))}}
    ]

    def test_sectioned_write_is_byte_identical_to_plain(self, tmp_path):
        plain = str(tmp_path / "plain.ck")
        spliced = str(tmp_path / "spliced.ck")
        merged = dict(self.PAYLOAD_REST, completed=self.COMPLETED)
        write_checkpoint(plain, merged)
        section = encode_section(self.COMPLETED, base_offset=0)
        write_checkpoint(
            spliced, dict(self.PAYLOAD_REST), sections={"completed": section}
        )
        assert open(plain, "rb").read() == open(spliced, "rb").read()

    def test_cached_section_reused_across_writes(self, tmp_path):
        section = encode_section(self.COMPLETED, base_offset=0)
        for round_index in range(3):
            path = str(tmp_path / f"ck{round_index}")
            rest = dict(self.PAYLOAD_REST)
            rest["loop_state"] = {"state": list(range(4000)), "round": round_index}
            write_checkpoint(path, rest, sections={"completed": section})
            payload = read_checkpoint(path)
            assert payload["completed"] == self.COMPLETED
            assert payload["loop_state"]["round"] == round_index

    def test_wrong_base_offset_rejected(self, tmp_path):
        section = encode_section(self.COMPLETED, base_offset=999)
        with pytest.raises(CheckpointError, match="arrays offset"):
            write_checkpoint(
                str(tmp_path / "ck"), {}, sections={"completed": section}
            )

    def test_section_key_collision_rejected(self, tmp_path):
        section = encode_section([], base_offset=0)
        with pytest.raises(CheckpointError, match="duplicate"):
            write_checkpoint(
                str(tmp_path / "ck"),
                {"completed": []},
                sections={"completed": section},
            )

    def test_prehashed_prefix_matches_a_plain_write(self, tmp_path):
        import numpy as np

        base = {"offsets": np.arange(0, 6000, 3), "targets": np.arange(6000) % 500}
        section = encode_section(base, base_offset=0)
        assert section.blob_hash is not None
        assert section.blob_hash.hexdigest() == checkpoint_module._digest(
            section.blob
        )
        rest = {"cursor": 4, "state": {"bits": list(range(-40, 40))}}
        plain = str(tmp_path / "plain.ck")
        write_checkpoint(
            plain,
            dict(rest, base={key: a.tolist() for key, a in base.items()}),
        )
        for index in range(2):  # the cached hash state is copied, never fed
            spliced = str(tmp_path / f"spliced{index}.ck")
            write_checkpoint(spliced, rest, sections={"base": section})
            assert open(spliced, "rb").read() == open(plain, "rb").read()
        unhashed = dataclasses.replace(section, blob_hash=None)
        rehashed = str(tmp_path / "rehashed.ck")
        write_checkpoint(rehashed, rest, sections={"base": unhashed})
        assert open(rehashed, "rb").read() == open(plain, "rb").read()

    def test_only_offset_zero_sections_carry_a_hash(self):
        assert encode_section(self.COMPLETED, base_offset=0).blob_hash is not None
        assert encode_section(self.COMPLETED, base_offset=64).blob_hash is None


class TestExtendSection:
    """A list section extended entry by entry is the whole list's encoding."""

    @staticmethod
    def _entries():
        """Engine-shaped completed-stage entries, the sets as int64 arrays."""

        import numpy as np

        rng = np.random.default_rng(5)

        def entry(stage, members, artifact=None):
            value = {
                "report": {"stage": stage, "size": int(members.size)},
                "result": {"algorithm": stage, "independent_set": members},
            }
            if artifact is not None:
                value["artifact"] = artifact
            return value

        kernel = {
            "kernel_vertices": 700,
            "kernel_edge_sources": np.sort(rng.integers(0, 700, 900)),
            "kernel_edge_targets": rng.integers(0, 700, 900),
            "kernel_tokens": list(range(-20, 40)),
        }
        return [
            entry("reduce", np.flatnonzero(rng.random(700) < 0.3), kernel),
            entry("greedy", np.flatnonzero(rng.random(4000) < 0.4)),
            entry("two_k_swap", np.flatnonzero(rng.random(4000) < 0.45)),
        ]

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("base_offset", [0, 96])
    def test_extended_prefix_equals_the_list_form_encoding(self, count, base_offset):
        entries = self._entries()[:count]
        section = encode_section([], base_offset)
        for entry in entries:
            section = extend_section(section, entry)
        listed = encode_section(plain(entries), base_offset)
        assert section.json_bytes == listed.json_bytes
        assert section.blob == listed.blob
        assert section.base_offset == base_offset
        if base_offset == 0:
            assert section.blob_hash.digest() == listed.blob_hash.digest()
            assert section.blob_hash.hexdigest() == checkpoint_module._digest(
                section.blob
            )
        else:
            assert section.blob_hash is None

    def test_extending_a_decoded_prefix_matches_too(self):
        entries = self._entries()
        # A resumed engine re-encodes the decoded (list) prefix once, then
        # extends it with array-native entries.
        section = extend_section(encode_section(plain(entries[:2])), entries[2])
        assert section == encode_section(plain(entries))
        assert section.blob_hash.digest() == encode_section(entries).blob_hash.digest()

    def test_extension_leaves_the_original_section_intact(self):
        entries = self._entries()
        first = extend_section(encode_section([]), entries[0])
        before = (first.json_bytes, first.blob, first.blob_hash.digest())
        extend_section(first, entries[1])
        assert (first.json_bytes, first.blob, first.blob_hash.digest()) == before

    def test_only_list_sections_extend_and_never_by_an_int(self):
        with pytest.raises(CheckpointError, match="list"):
            extend_section(encode_section({"a": 1}), {"b": 2})
        with pytest.raises(CheckpointError, match="list"):
            # A 32+ int list encodes as one packed array, not a list.
            extend_section(encode_section(list(range(ARRAY_MIN_LENGTH))), {})
        with pytest.raises(CheckpointError, match="int"):
            extend_section(encode_section([1, 2]), 3)


def _records(count):
    rng = random.Random(count)
    return [
        {
            "cursor": index,
            "updates": [rng.randrange(-5, 10_000) for _ in range(40 + index)],
            "stats": {"edges_inserted": index},
        }
        for index in range(count)
    ]


class TestDurability:
    def test_write_returns_length_and_checksum(self, tmp_path):
        path = str(tmp_path / "ck")
        written = write_checkpoint(path, PAYLOAD)
        assert written.nbytes == os.path.getsize(path)
        payload, checksum = read_checkpoint(path, with_checksum=True)
        assert payload == PAYLOAD
        assert checksum == written.checksum
        header = json.loads(open(path, "rb").readline())
        assert header["checksum"] == checksum

    def test_rename_and_log_creation_fsync_the_directory(
        self, tmp_path, monkeypatch
    ):
        synced = []
        monkeypatch.setattr(
            blocks_module, "fsync_directory", lambda path: synced.append(path)
        )
        path = str(tmp_path / "ck")
        write_checkpoint(path, PAYLOAD)
        assert synced == [path]
        log = str(tmp_path / "ck.log")
        append_record(log, PAYLOAD)
        append_record(log, PAYLOAD)
        # Only the append that created the log syncs the directory.
        assert synced == [path, log]

    def test_directory_fsync_opens_the_parent(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open
        monkeypatch.setattr(
            checkpoint_module.os,
            "open",
            lambda path, flags: opened.append(path) or real_open(path, flags),
        )
        write_checkpoint(str(tmp_path / "ck"), PAYLOAD)
        assert opened == [str(tmp_path)]


class TestRecordLog:
    def test_appended_records_read_back_in_order(self, tmp_path):
        log = str(tmp_path / "log")
        records = _records(5)
        sizes = [append_record(log, record).nbytes for record in records]
        assert read_records(log) == (records, sum(sizes))
        assert os.path.getsize(log) == sum(sizes)

    def test_a_log_is_a_concatenation_of_checkpoint_documents(self, tmp_path):
        log = str(tmp_path / "log")
        single = str(tmp_path / "single")
        record = _records(1)[0]
        append_record(log, record)
        write_checkpoint(single, record)
        with open(log, "rb") as a, open(single, "rb") as b:
            assert a.read() == b.read()

    def test_missing_log_is_empty(self, tmp_path):
        assert read_records(str(tmp_path / "absent")) == ([], 0)

    def test_torn_tail_at_every_offset_keeps_the_valid_prefix(self, tmp_path):
        log = str(tmp_path / "log")
        records = _records(3)
        for record in records[:2]:
            append_record(log, record)
        prefix = os.path.getsize(log)
        append_record(log, records[2])
        with open(log, "rb") as handle:
            data = handle.read()
        torn = str(tmp_path / "torn")
        for cut in range(prefix, len(data)):
            with open(torn, "wb") as handle:
                handle.write(data[:cut])
            assert read_records(torn) == (records[:2], prefix), cut

    def test_a_corrupt_record_ends_the_prefix(self, tmp_path):
        log = str(tmp_path / "log")
        records = _records(3)
        ends = [0]
        for record in records:
            ends.append(ends[-1] + append_record(log, record).nbytes)
        with open(log, "r+b") as handle:
            handle.seek(ends[2] - 3)  # inside the second record's arrays
            byte = handle.read(1)
            handle.seek(ends[2] - 3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert read_records(log) == (records[:1], ends[1])

    def test_accept_stops_at_the_first_rejected_record(self, tmp_path):
        log = str(tmp_path / "log")
        records = _records(4)
        ends = [0]
        for record in records:
            ends.append(ends[-1] + append_record(log, record).nbytes)
        found, offset = read_records(log, accept=lambda r: r["cursor"] != 2)
        assert found == records[:2]
        assert offset == ends[2]
