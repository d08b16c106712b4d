"""Frame codec torture tests: every way a journal or socket can break.

The journal and the worker wire protocol share one codec, so its
failure modes are the service's failure modes: a SIGKILL tears the tail
mid-frame, a bad disk flips a CRC byte, a crash cuts the length prefix
short.  Each case must be *detected* (never silently mis-parsed) and,
for the scanning entry points, must surrender exactly the intact prefix.
"""

import io
import pickle

import pytest

from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_BATCH,
    FRAME_HEADER,
    FRAME_PICKLE,
    JOURNAL_MAGIC,
    FrameError,
    RoutedColumns,
    JournalDecoder,
    decode_journal,
    decode_record_batch,
    decode_routed_columns,
    encode_routed_records,
    encode_wire_records,
    frame_bytes,
    iter_journal_payloads,
    read_frame,
    routed_columns_from_records,
    scan_frames,
)


def _stream(*frames: bytes) -> io.BytesIO:
    return io.BytesIO(b"".join(frames))


class TestReadFrame:
    def test_roundtrip(self):
        stream = _stream(frame_bytes(7, b"hello"), frame_bytes(2, b""))
        assert read_frame(stream) == (7, b"hello")
        assert read_frame(stream) == (2, b"")
        assert read_frame(stream) is None  # clean EOF

    def test_truncated_length_prefix(self):
        data = frame_bytes(1, b"payload")
        with pytest.raises(FrameError, match="truncated header"):
            read_frame(_stream(data[:4]))  # cut inside the u32 length

    def test_torn_payload(self):
        data = frame_bytes(1, b"payload")
        with pytest.raises(FrameError, match="torn payload"):
            read_frame(_stream(data[:-3]))

    def test_corrupted_crc(self):
        data = bytearray(frame_bytes(1, b"payload"))
        data[-1] ^= 0xFF  # flip a payload byte: CRC no longer matches
        with pytest.raises(FrameError, match="crc mismatch"):
            read_frame(_stream(bytes(data)))


class TestScanFrames:
    def test_clean_buffer_ends_on_boundary(self):
        data = frame_bytes(1, b"a") + frame_bytes(2, b"bb")
        frames, good_end, reason = scan_frames(data)
        assert [(k, p) for k, p, _s in frames] == [(1, b"a"), (2, b"bb")]
        assert (good_end, reason) == (len(data), None)

    def test_torn_tail_mid_frame(self):
        keep = frame_bytes(1, b"a")
        torn = frame_bytes(2, b"bb" * 10)
        frames, good_end, reason = scan_frames(keep + torn[:-5])
        assert [(k, p) for k, p, _s in frames] == [(1, b"a")]
        assert good_end == len(keep)
        assert reason == "torn payload"

    def test_truncated_header_tail(self):
        keep = frame_bytes(1, b"a")
        frames, good_end, reason = scan_frames(keep + b"\x03\x00")
        assert len(frames) == 1
        assert good_end == len(keep)
        assert reason == "truncated header"

    def test_corrupt_crc_stops_scan_there(self):
        """A flipped byte mid-file surrenders everything from that frame
        on — frames *before* the corruption are still served."""
        a, b, c = (frame_bytes(1, bytes([i]) * 8) for i in range(3))
        data = bytearray(a + b + c)
        data[len(a) + 9 + 2] ^= 0x01  # inside b's payload
        frames, good_end, reason = scan_frames(bytes(data))
        assert len(frames) == 1 and frames[0][1] == b"\x00" * 8
        assert good_end == len(a)
        assert reason == "crc mismatch"

    def test_offset_skips_magic(self):
        data = JOURNAL_MAGIC + frame_bytes(1, b"x")
        frames, _end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        assert [(k, p) for k, p, _s in frames] == [(1, b"x")]
        assert reason is None


WIRE_RECORDS = [
    {"kind": "arrival", "time": 1.0, "id": 0, "size": 4, "work": 2.5},
    {"kind": "departure", "time": 2.0, "id": 0},
    {"kind": "arrival", "time": 3.5, "id": 1, "size": 1, "work": 1.0},
]

ROUTED_RECORDS = [
    {"kind": "placed", "time": 1.0, "id": 0, "size": 2, "node": 4,
     "work": 1.5, "gsn": 0},
    {"kind": "placed", "time": 1.5, "id": 1, "size": 1, "node": 9,
     "work": 1.0, "gsn": 1, "drain": True},
    {"kind": "departure", "time": 2.0, "id": 0, "gsn": 2},
]


class TestColumnarRoundTrips:
    def test_wire_records_roundtrip_key_for_key(self):
        blob = encode_wire_records(WIRE_RECORDS)
        assert blob is not None
        assert decode_record_batch(blob) == WIRE_RECORDS

    def test_wire_rejects_off_schema_records(self):
        assert encode_wire_records(
            [{"kind": "arrival", "time": 1.0, "id": 0, "size": 4,
              "work": 1.0, "extra": 1}]
        ) is None
        assert encode_wire_records([{"kind": "failure", "node": 4}]) is None
        # int time is valid input but off the strict hot-path schema.
        assert encode_wire_records(
            [{"kind": "departure", "time": 2, "id": 0}]
        ) is None

    def test_routed_records_roundtrip(self):
        blob = encode_routed_records(ROUTED_RECORDS)
        assert blob is not None
        cols = decode_routed_columns(blob)
        assert isinstance(cols, RoutedColumns)
        assert cols.records() == ROUTED_RECORDS
        assert cols.encoded() == blob  # decoded columns retain their blob

    def test_routed_rejects_off_schema_records(self):
        bad = dict(ROUTED_RECORDS[0])
        bad["drain"] = False  # only drain=True rides the hot path
        assert routed_columns_from_records([bad]) is None
        assert routed_columns_from_records([{"kind": "kill", "id": 1}]) is None

    def test_sliced_prefix(self):
        cols = routed_columns_from_records(ROUTED_RECORDS)
        assert cols.sliced(2).records() == ROUTED_RECORDS[:2]

    def test_decode_rejects_garbage(self):
        assert decode_routed_columns(b"not a pickle") is None


def _pickled(index, value):
    return frame_bytes(FRAME_PICKLE, pickle.dumps((index, value)))


class TestIterJournalPayloads:
    def test_v2_attach_merges_and_last_wins(self, tmp_path):
        path = tmp_path / "j.v2"
        path.write_bytes(
            JOURNAL_MAGIC
            + frame_bytes(FRAME_HEADER, b'{"kind": "h"}')
            + _pickled(0, {"record": 1})
            + frame_bytes(FRAME_ATTACH, pickle.dumps((0, {"snapshot": "s"})))
            + _pickled(0, {"record": 2})
        )
        assert iter_journal_payloads(path) == [(0, {"record": 2})]

    def test_v2_corrupt_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.v2"
        path.write_bytes(
            JOURNAL_MAGIC
            + frame_bytes(FRAME_HEADER, b"{}")
            + _pickled(3, "x")
            + b"\x07\x00\x00"
        )
        assert iter_journal_payloads(path) == [(3, "x")]

    def test_old_jsonl_journal_yields_nothing(self, tmp_path):
        path = tmp_path / "j.v1"
        path.write_text(
            '{"kind": "h"}\n'
            '{"cell": 0, "json": {"record": "a"}}\n'
        )
        assert iter_journal_payloads(path) == []

    def test_unrecognisable_file_is_empty(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x00\x01\x02")
        assert iter_journal_payloads(path) == []
        assert iter_journal_payloads(tmp_path / "absent") == []


class TestDecodeJournal:
    """The one journal decoder: every caller sees the same records."""

    def _journal(self):
        batch = encode_wire_records(
            [
                {"kind": "arrival", "time": 0.0, "id": 0, "size": 2, "work": 1.0},
                {"kind": "departure", "time": 1.0, "id": 0},
            ]
        )
        return (
            JOURNAL_MAGIC
            + frame_bytes(FRAME_HEADER, b'{"kind": "h"}')
            + _pickled(0, {"record": "a"})
            + frame_bytes(FRAME_BATCH, (1).to_bytes(8, "little") + batch)
            + frame_bytes(FRAME_ATTACH, pickle.dumps((2, {"delta": 7})))
        )

    def test_frames_cover_the_file_and_index_their_records(self):
        data = self._journal()
        decoded = JournalDecoder(data)
        frames = list(decoded)
        assert decoded.header == {"kind": "h"}
        assert decoded.bad_reason is None and decoded.good_end == len(data)
        assert [(kind, index) for kind, _s, _e, index, _v in frames] == [
            (FRAME_HEADER, -1), (FRAME_PICKLE, 0), (FRAME_BATCH, 1),
            (FRAME_ATTACH, 2),
        ]
        spans = [(start, end) for _k, start, end, _i, _v in frames]
        assert spans[0][0] == len(JOURNAL_MAGIC) and spans[-1][1] == len(data)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert decoded.payloads[2] == {
            "record": {"kind": "departure", "time": 1.0, "id": 0},
            "delta": 7,
        }

    @pytest.mark.parametrize(
        "bad",
        [
            frame_bytes(FRAME_ATTACH, pickle.dumps((9, {"delta": 1}))),
            frame_bytes(42, b"future"),
            frame_bytes(FRAME_PICKLE, b"not a pickle"),
            frame_bytes(FRAME_BATCH, (0).to_bytes(8, "little") + b"junk"),
        ],
        ids=["orphan-attach", "unknown-kind", "bad-pickle", "bad-batch"],
    )
    def test_undecodable_frame_ends_the_good_prefix(self, bad):
        data = self._journal()
        decoded = decode_journal(data + bad + _pickled(9, "after"))
        assert decoded.good_end == len(data)
        assert decoded.bad_reason.startswith("frame payload")
        assert sorted(decoded.payloads) == [0, 1, 2]

    def test_record_before_the_header_leaves_no_header(self):
        decoded = decode_journal(JOURNAL_MAGIC + _pickled(0, "x"))
        assert decoded.header is None and decoded.payloads == {}

    def test_missing_magic_decodes_nothing(self):
        decoded = JournalDecoder(b'{"kind": "repro-checkpoint"}\n')
        assert list(decoded) == []
        assert decoded.header is None and decoded.good_end == 0
