"""CheckpointJournal: durability, recovery, and workload pinning."""

import json
import pickle

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.sim.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    workload_fingerprint,
)
from repro.sim.frames import (
    FRAME_ATTACH,
    FRAME_HEADER,
    FRAME_PICKLE,
    JOURNAL_MAGIC,
    JournalDecoder,
    decode_journal,
    frame_bytes,
)

FP = {"kind": "test", "what": "checkpoint-unit"}


def _square(rng, x):
    return x * x


class TestRecordAndResume:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, {"load": 3})
            journal.record(5, (1, 2.5, "x"))
        with CheckpointJournal(path, fingerprint=FP) as journal:
            done = journal.completed()
        assert done == {0: {"load": 3}, 5: (1, 2.5, "x")}

    def test_resume_appends(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "a")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(1, "b")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b"}

    def test_rerecord_overwrites_in_memory(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "old")
            journal.record(0, "new")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed()[0] == "new"

    def test_completed_is_what_the_file_held_at_open(self, tmp_path):
        """Records written through a handle are not kept in memory: they
        show up in ``completed()`` on the next open, not before."""
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(0, "a")
            journal.record_many([(1, "b"), (2, "c")])
            assert journal.completed() == {}
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record(3, "d")
            assert journal.completed() == {0: "a", 1: "b", 2: "c"}

    def test_closed_journal_refuses_records(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.ckpt", fingerprint=FP)
        journal.close()
        with pytest.raises(CheckpointError, match="closed"):
            journal.record(0, "x")


class TestWorkloadPinning:
    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        CheckpointJournal(path, fingerprint=FP).close()
        with pytest.raises(CheckpointError, match="different workload"):
            CheckpointJournal(path, fingerprint={"kind": "test", "what": "other"})

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        CheckpointJournal(path, fingerprint=FP).close()
        header = decode_journal(path.read_bytes()).header
        header["version"] = JOURNAL_VERSION + 1
        path.write_bytes(
            JOURNAL_MAGIC + frame_bytes(FRAME_HEADER, json.dumps(header).encode())
        )
        with pytest.raises(CheckpointError, match="version"):
            CheckpointJournal(path, fingerprint=FP)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "j.ckpt"
        path.write_bytes(
            JOURNAL_MAGIC + frame_bytes(FRAME_HEADER, b'{"kind": "something-else"}')
        )
        with pytest.raises(CheckpointError, match="kind='something-else'"):
            CheckpointJournal(path, fingerprint=FP)

    def test_old_jsonl_journal_is_refused_untouched(self, tmp_path):
        """A JSONL journal from an older build is neither read nor
        truncated: the open fails and the file keeps every byte."""
        path = tmp_path / "j.ckpt"
        old = (
            json.dumps({"kind": "repro-checkpoint", "version": 1,
                        "fingerprint": "0" * 64})
            + "\n"
            + json.dumps({"cell": 0, "json": "a"})
            + "\n"
            + '{"cell": 1, "js'
        ).encode()
        path.write_bytes(old)
        with pytest.raises(CheckpointError, match="not a framed journal"):
            CheckpointJournal(path, fingerprint=FP)
        assert path.read_bytes() == old

    def test_workload_fingerprint_tracks_cells_and_streams(self):
        cells = [{"n": 16, "seed": 0}, {"n": 32, "seed": 1}]
        streams = list(np.random.SeedSequence(7).spawn(2))
        base = workload_fingerprint(_square, cells, streams)
        assert base == workload_fingerprint(_square, cells, streams)
        changed_cells = workload_fingerprint(_square, cells[:1], streams)
        assert changed_cells != base
        other_streams = list(np.random.SeedSequence(8).spawn(2))
        assert workload_fingerprint(_square, cells, other_streams) != base


class TestCrashRecovery:
    def _journal_with_two_records(self, path):
        journal = CheckpointJournal(path, fingerprint=FP)
        journal.record(0, "a")
        journal.record(1, "b")
        journal.close()
        return path.read_bytes()

    def test_truncated_final_record_is_dropped_with_warning(self, tmp_path):
        path = tmp_path / "j.ckpt"
        raw = self._journal_with_two_records(path)
        path.write_bytes(raw[:-10])  # crash mid-write of the last frame
        with pytest.warns(UserWarning, match="corrupt tail.*torn payload"):
            journal = CheckpointJournal(path, fingerprint=FP)
        assert journal.completed() == {0: "a"}
        journal.record(1, "b2")  # journal is writable again after recovery
        journal.close()
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b2"}

    def test_unterminated_but_parseable_final_line_is_still_dropped(self, tmp_path):
        """The unterminated-write case of the frame format: a final
        frame cut inside its 9-byte header is dropped, even though every
        byte before the cut is intact."""
        path = tmp_path / "j.ckpt"
        raw = self._journal_with_two_records(path)
        _kind, last_start, _end, _index, _value = list(JournalDecoder(raw))[-1]
        path.write_bytes(raw[: last_start + 4])
        with pytest.warns(UserWarning, match="truncated header"):
            journal = CheckpointJournal(path, fingerprint=FP)
        assert journal.completed() == {0: "a"}
        journal.close()
        assert path.read_bytes() == raw[:last_start]

    def test_garbage_record_line_truncates_from_there(self, tmp_path):
        """A frame whose CRC holds but whose payload will not unpickle is
        the corrupt tail: it and everything after it are cut away."""
        path = tmp_path / "j.ckpt"
        raw = self._journal_with_two_records(path)
        tail = frame_bytes(FRAME_PICKLE, b"not-a-pickle!!") + frame_bytes(
            FRAME_PICKLE, pickle.dumps((3, "c"))
        )
        path.write_bytes(raw + tail)
        with pytest.warns(UserWarning, match="corrupt tail.*frame payload"):
            journal = CheckpointJournal(path, fingerprint=FP)
        assert journal.completed() == {0: "a", 1: "b"}
        journal.close()
        assert path.read_bytes() == raw

    def test_missing_header_is_an_error(self, tmp_path):
        path = tmp_path / "j.ckpt"
        for data in (b"", JOURNAL_MAGIC, JOURNAL_MAGIC + b"\x05\x00"):
            path.write_bytes(data)
            with pytest.raises(CheckpointError, match="no readable header"):
                CheckpointJournal(path, fingerprint=FP)
            assert path.read_bytes() == data


class TestFsyncPolicies:
    def test_bad_policy_is_refused(self, tmp_path):
        for bad in ("sometimes", "interval:", "interval:x", "interval:-5", "interval:0"):
            with pytest.raises(CheckpointError):
                CheckpointJournal(tmp_path / "p.ckpt", fingerprint=FP, fsync_policy=bad)

    def test_always_has_no_pending(self, tmp_path):
        with CheckpointJournal(tmp_path / "j.ckpt", fingerprint=FP) as journal:
            journal.record(0, "a")
            assert journal.pending == 0

    def test_batch_buffers_until_commit(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record(0, "a")
            journal.record(1, "b")
            assert journal.pending == 2
            journal.commit()
            assert journal.pending == 0
            journal.record(2, "c")  # left pending: close() must commit it
            assert journal.pending == 1
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "a", 1: "b", 2: "c"}

    def test_record_many_is_one_group_commit(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record_many([(i, f"v{i}") for i in range(5)])
            assert journal.pending == 0  # the batch committed atomically
            journal.record_many([])      # empty group is a no-op
            assert journal.pending == 0
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {i: f"v{i}" for i in range(5)}

    def test_record_many_under_always_is_durable(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record_many([(0, "a"), (1, "b")])
            assert journal.pending == 0

    def test_interval_policy_syncs_after_elapse(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(
            path, fingerprint=FP, fsync_policy="interval:3600000"
        ) as journal:
            journal.record(0, "a")
            assert journal.pending == 1  # one hour has not elapsed
        # interval:<tiny> syncs on (almost) every record.
        with CheckpointJournal(
            tmp_path / "k.ckpt", fingerprint=FP, fsync_policy="interval:0.0001"
        ) as journal:
            journal.record(0, "a")
            assert journal.pending == 0

    def test_resumed_journal_reads_batched_records(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record_many([(0, "a"), (1, "b")])
            journal.record(2, "c")
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="always") as journal:
            assert journal.completed() == {0: "a", 1: "b", 2: "c"}


class TestDropTail:
    @staticmethod
    def _records(count):
        return [
            {"kind": "arrival", "time": float(i), "id": i, "size": 1, "work": 1.0}
            for i in range(count)
        ]

    def test_cut_inside_a_batch_keeps_its_prefix(self, tmp_path):
        path = tmp_path / "j.ckpt"
        items = [(i, {"record": r}) for i, r in enumerate(self._records(12))]
        items[3][1]["delta"] = {"events": 4}
        items[9][1]["delta"] = {"events": 10}
        with CheckpointJournal(path, fingerprint=FP, fsync_policy="batch") as journal:
            journal.record_many(items[:8])  # one batch frame + an attach
            journal.record_many(items[8:])
            journal.record(12, "tail")
            journal.drop_tail(5)
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == dict(items[:5])
            journal.record(5, "after")
        # The split batch survives as per-record frames, its in-range
        # rider as an attach; the later batch, rider and record are gone.
        kinds = [frame[0] for frame in JournalDecoder(path.read_bytes())]
        assert kinds == (
            [FRAME_HEADER] + [FRAME_PICKLE] * 5 + [FRAME_ATTACH, FRAME_PICKLE]
        )
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {**dict(items[:5]), 5: "after"}

    def test_second_cut_below_the_first_still_truncates(self, tmp_path):
        """A cut lowers the highest journaled index, so a later, lower cut
        on the same handle is not mistaken for a no-op."""
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record_many([(i, f"v{i}") for i in range(10)])
            journal.drop_tail(5)
            journal.drop_tail(7)  # nothing at or past 7 is left: no-op
            journal.drop_tail(2)
            journal.record(2, "after")
        with CheckpointJournal(path, fingerprint=FP) as journal:
            assert journal.completed() == {0: "v0", 1: "v1", 2: "after"}

    def test_nothing_at_or_past_the_cut_is_a_no_op(self, tmp_path):
        path = tmp_path / "j.ckpt"
        with CheckpointJournal(path, fingerprint=FP) as journal:
            journal.record_many([(0, "a"), (1, "b")])
            before = path.read_bytes()
            journal.drop_tail(2)
        assert path.read_bytes() == before
