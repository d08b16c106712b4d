"""Framed journal torture tests: frames, deltas, kills.

The binary journal's contracts, attacked one at a time: a torn tail or
flipped CRC byte must surrender exactly the intact prefix with a
warning; tampered records must fail the delta-digest check; and a
SIGKILL landing *inside a delta-snapshot window* (after a delta rider,
before the next full snapshot) must resume to the same final state as
an uninterrupted run under every fsync policy.
"""

import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import CheckpointError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.sim.frames import (
    JOURNAL_MAGIC,
    frame_bytes,
    iter_journal_payloads,
    scan_frames,
)
from repro.workloads.generators import poisson_sequence

SNAP, FULL = 4, 16


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _session(n=8, name="greedy", **kw):
    machine = TreeMachine(n)
    kw.setdefault("snapshot_interval", SNAP)
    kw.setdefault("full_snapshot_interval", FULL)
    return AllocationSession(machine, make_algorithm(name, machine, d=2.0), **kw)


def _records(n=8, tasks=30, seed=0):
    sigma = poisson_sequence(n, tasks, np.random.default_rng(seed))
    return list(sequence_records(sigma))


def _fill(journal, records, batch=5, **kw):
    session = _session(journal_path=journal, fsync_policy="batch", **kw)
    for i in range(0, len(records), batch):
        session.push_batch([dict(r) for r in records[i : i + batch]])
    session.close()
    return session


class TestFormatLayout:
    def test_v2_journal_is_framed_binary(self, tmp_path):
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=40, seed=1))
        data = journal.read_bytes()
        assert data.startswith(JOURNAL_MAGIC)
        _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        assert reason is None and good_end == len(data)

    def test_delta_riders_between_full_snapshots(self, tmp_path):
        journal = tmp_path / "s.journal"
        _fill(journal, _records(tasks=40, seed=1))
        payloads = dict(iter_journal_payloads(journal))
        fulls = [i for i, p in payloads.items() if "snapshot" in p]
        deltas = [i for i, p in payloads.items() if "delta" in p]
        assert fulls and deltas
        # Full snapshots land only on full-interval crossings; deltas fill
        # the snapshot-interval crossings in between, and never coincide.
        assert not set(fulls) & set(deltas)
        assert len(deltas) > len(fulls)  # most crossings are cheap deltas


class TestCorruptTails:
    def _filled(self, tmp_path, tasks=40):
        journal = tmp_path / "s.journal"
        records = _records(tasks=tasks, seed=5)
        _fill(journal, records)
        reference = _session()
        for rec in records:
            reference.push(rec)
        return journal, records, reference

    @staticmethod
    def _last_batch_frame(data):
        frames, _end, _r = scan_frames(data, len(JOURNAL_MAGIC))
        batches = [f for f in frames if f[0] == 4]  # FRAME_BATCH
        return batches[-1]

    def _recovers(self, journal, records, reference, match):
        with pytest.warns(UserWarning, match=match):
            resumed = _session(journal_path=journal, fsync_policy="batch")
        survived = resumed.num_events
        assert survived < len(records)  # the lost batch really is lost
        for rec in records[survived:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )
        resumed.close()

    def test_torn_tail_mid_frame(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = journal.read_bytes()
        _k, payload, start = self._last_batch_frame(data)
        journal.write_bytes(data[: start + 9 + len(payload) // 2])
        self._recovers(journal, records, reference, "torn payload")

    def test_truncated_length_prefix(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = journal.read_bytes()
        _k, _payload, start = self._last_batch_frame(data)
        journal.write_bytes(data[: start + 4])  # 4 bytes of its header
        self._recovers(journal, records, reference, "truncated header")

    def test_corrupted_crc_byte(self, tmp_path):
        journal, records, reference = self._filled(tmp_path)
        data = bytearray(journal.read_bytes())
        _k, _payload, start = self._last_batch_frame(bytes(data))
        data[start + 9] ^= 0x40  # flip one payload byte: CRC fails
        journal.write_bytes(bytes(data))
        self._recovers(journal, records, reference, "crc mismatch")


class TestTamperDetection:
    def test_tampered_record_fails_the_delta_check(self, tmp_path):
        """Rewriting an event (with a *valid* CRC) still cannot forge
        history: replay diverges from the journaled delta digest."""
        journal = tmp_path / "s.journal"
        session = _session(
            journal_path=journal, snapshot_interval=2, full_snapshot_interval=64
        )
        for rec in _records(tasks=12, seed=6):
            session.push(rec)
        session.close()

        data = journal.read_bytes()
        frames, _end, _r = scan_frames(data, len(JOURNAL_MAGIC))
        out = bytearray(JOURNAL_MAGIC)
        tampered = False
        for kind, payload, _pos in frames:
            if kind == 3 and not tampered:  # FRAME_PICKLE
                index, value = pickle.loads(payload)
                rec = value.get("record", {}) if isinstance(value, dict) else {}
                if rec.get("kind") == "arrival":
                    rec["size"] = max(1, rec["size"] // 2)
                    payload = pickle.dumps((index, value))
                    tampered = True
            out += frame_bytes(kind, payload)
        assert tampered
        journal.write_bytes(bytes(out))
        with pytest.raises(CheckpointError, match="diverges from the"):
            _session(
                journal_path=journal, snapshot_interval=2,
                full_snapshot_interval=64,
            )


_KILL_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys

    from repro.core.registry import make_algorithm
    from repro.machines.tree import TreeMachine
    from repro.service import AllocationSession

    journal, policy, records_path, committed = sys.argv[1:5]
    records = json.loads(open(records_path).read())
    committed = int(committed)
    machine = TreeMachine(8)
    session = AllocationSession(
        machine,
        make_algorithm("greedy", machine, d=2.0),
        journal_path=journal,
        snapshot_interval=4,
        full_snapshot_interval=16,
        fsync_policy=policy,
    )
    for i in range(0, committed, 5):
        session.push_batch(records[i : i + 5])
    session.flush()  # commit point: everything before here must survive
    print("READY", flush=True)
    for rec in records[committed:]:
        session.push(rec)  # uncommitted tail — fair game for the crash
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


class TestKillInsideDeltaWindow:
    """SIGKILL with the last full snapshot 9 events stale.

    ``committed=25`` of a 29-event stream with ``snapshot_interval=4``
    and ``full_snapshot_interval=16``: the last full snapshot rides the
    batch that crosses event 16, the last delta rides event 24, and the
    stream *ends* before the next full crossing — so wherever in
    ``[25, 29]`` the surviving journal stops (lazier fsync policies can
    leak OS-buffered tail writes past the kill), the crash lands
    mid-delta-window and resume must replay through the delta digest.
    """

    @pytest.mark.parametrize("policy", ["always", "batch", "interval:3600000"])
    def test_resumes_bit_identically(self, tmp_path, policy):
        records = _records(tasks=35, seed=7)[:29]
        committed = 25
        reference = _session()
        for rec in records:
            reference.push(rec)

        records_path = tmp_path / "records.json"
        records_path.write_text(json.dumps(records))
        journal = tmp_path / "killed.journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(_repo_src()), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, str(journal), policy,
             str(records_path), str(committed)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "READY" in proc.stdout

        # The surviving journal really is mid-window: a delta rider comes
        # after the last full snapshot.
        payloads = dict(iter_journal_payloads(journal))
        fulls = [i for i, p in payloads.items() if "snapshot" in p]
        deltas = [i for i, p in payloads.items() if "delta" in p]
        assert fulls and deltas and max(deltas) > max(fulls)

        with pytest.warns(UserWarning) if _has_partial_tail(journal) else _noop():
            resumed = _session(journal_path=journal, fsync_policy=policy)
        assert committed <= resumed.num_events <= len(records)
        for rec in records[resumed.num_events:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert (
            resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()
        )


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _has_partial_tail(journal) -> bool:
    data = journal.read_bytes()
    _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
    return reason is not None and good_end < len(data)


def _noop():
    import contextlib

    return contextlib.nullcontext()
