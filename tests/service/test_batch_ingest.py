"""Batched ingest through the service layer: push_batch + group commit.

Three contracts: (1) ``push_batch`` is bit-identical to per-event
``push`` — decisions, kernel state, journal resumability; (2) a batch
that fails part-way applies and journals exactly the per-event prefix;
(3) under every fsync policy, a SIGKILLed session resumes to identical
final metrics after replaying the lost tail, losing at most the records
since the last commit — one uncommitted batch.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.registry import make_algorithm
from repro.errors import BatchError, ReproError
from repro.machines.tree import TreeMachine
from repro.service import AllocationSession, sequence_records
from repro.workloads.generators import churn_sequence, poisson_sequence


def _digest(state) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _session(n=8, name="greedy", **kw):
    machine = TreeMachine(n)
    return AllocationSession(machine, make_algorithm(name, machine, d=2.0), **kw)


def _records(n=8, tasks=30, seed=0, generator=poisson_sequence):
    sigma = generator(n, tasks, np.random.default_rng(seed))
    return list(sequence_records(sigma))


def _chunks(items, rng):
    out, i = [], 0
    while i < len(items):
        k = int(rng.integers(1, 9))
        out.append(items[i : i + k])
        i += k
    return out


class TestPushBatchEquivalence:
    @pytest.mark.parametrize("name", ["greedy", "periodic"])
    def test_matches_per_event_push(self, name):
        records = _records(tasks=40, seed=3, generator=churn_sequence)
        serial = _session(name=name)
        expected = [serial.push(rec) for rec in records]
        batched = _session(name=name)
        got = []
        for chunk in _chunks(records, np.random.default_rng(3)):
            got.extend(batched.push_batch(chunk).decisions)
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())
        assert batched.status() == serial.status()
        assert batched.now == serial.now
        assert batched._next_task_id == serial._next_task_id

    def test_auto_clock_and_ids_match(self):
        """Records without time/id get the same assignments either way."""
        bare = [{"kind": "arrival", "size": 2} for _ in range(6)]
        bare += [{"kind": "departure", "id": i} for i in range(3)]
        serial = _session()
        expected = [serial.push(dict(rec)) for rec in bare]
        batched = _session()
        got = list(batched.push_batch(bare).decisions)
        got += list(batched.push_batch([]).decisions)  # empty batch: no-op
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())

    def test_batched_journal_resumes_identically(self, tmp_path):
        records = _records(tasks=30, seed=7)
        reference = _session()
        for rec in records:
            reference.push(rec)

        journal = tmp_path / "batched.journal"
        writer = _session(
            journal_path=journal, snapshot_interval=4, fsync_policy="batch"
        )
        for chunk in _chunks(records, np.random.default_rng(7)):
            writer.push_batch(chunk)
        writer.close()

        resumed = _session(journal_path=journal, snapshot_interval=4)
        assert resumed.num_events == len(records)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()

    def test_fault_records_in_batches(self):
        serial = _session(fault_tolerant=True)
        batched = _session(fault_tolerant=True)
        script = [
            {"kind": "arrival", "size": 2, "id": 0},
            {"kind": "arrival", "size": 2, "id": 1},
            {"kind": "failure", "node": 4},
            {"kind": "kill", "id": 0},
            {"kind": "repair", "node": 4},
        ]
        expected = [serial.push(dict(rec)) for rec in script]
        got = list(batched.push_batch(script).decisions)
        assert got == expected
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())


def _mixed_script(seed, length=160):
    """Wire records for a fault-tolerant session: implicit and explicit
    times and ids, departures, kills, failures/repairs, a grow and a
    shrink, and one invalid record at a random position."""
    rng = np.random.default_rng(seed)
    records, explicit, failed = [], [], []
    for step in range(length):
        u = rng.random()
        if u < 0.45 or not explicit:
            rec = {"kind": "arrival", "size": int(2 ** rng.integers(0, 3))}
            if rng.random() < 0.5:
                rec["id"] = 1000 + 10 * step
                explicit.append(rec["id"])
        elif u < 0.8:
            rec = {"kind": "departure", "id": explicit.pop(int(rng.integers(len(explicit))))}
        elif u < 0.85:
            rec = {"kind": "kill", "id": explicit.pop(int(rng.integers(len(explicit))))}
        elif u < 0.9 or not failed:
            failed.append(int(rng.integers(8, 32)))
            rec = {"kind": "failure", "node": failed[-1]}
        elif u < 0.95:
            rec = {"kind": "repair", "node": failed.pop(0)}
        else:
            rec = {"kind": "resize", "op": str(rng.choice(["grow", "shrink"])), "factor": 2}
        if rng.random() < 0.5:
            rec["time"] = 10.0 * step
        records.append(rec)
    bad = [
        {"kind": "nonsense"},
        {"kind": "departure", "id": 999_999},             # unknown task
        {"kind": "arrival", "size": 1, "time": -1.0},      # clock regression
        {"kind": "failure"},                               # missing node
    ][int(rng.integers(4))]
    records.insert(int(rng.integers(len(records))), bad)
    return records


class TestMixedBatchParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("seed", range(4))
    def test_journaled_mixed_batches_match_per_event_push(self, tmp_path, backend, seed):
        """Random batch splits of a mixed stream decide, report and resume
        exactly like per-event pushes; an invalid record (rejected alone
        on the per-event path) surfaces as a BatchError with the prefix
        applied, and the client carries on with the rest of its batch."""
        records = _mixed_script(seed)
        kw = dict(fault_tolerant=True, snapshot_interval=3, batch_backend=backend)
        serial = _session(n=16, journal_path=tmp_path / "serial.j", **kw)
        expected = []
        for rec in records:
            try:
                expected.append(serial.push(dict(rec)))
            except (ReproError, KeyError):
                pass  # rejected alone, no state change
        batched = _session(
            n=16, journal_path=tmp_path / "batched.j", fsync_policy="batch", **kw
        )
        got, pending = [], list(records)
        rng = np.random.default_rng(seed + 100)
        while pending:
            k = int(rng.integers(1, 12))
            chunk, pending = pending[:k], pending[k:]
            try:
                got.extend(batched.push_batch(chunk).decisions)
            except BatchError as exc:
                got.extend(exc.decisions)
                pending = chunk[exc.applied + 1:] + pending
        assert got == expected
        assert batched.status() == serial.status()
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())
        want = _digest(serial.snapshot())
        serial.close(), batched.close()
        for name in ("serial.j", "batched.j"):
            resumed = _session(n=16, journal_path=tmp_path / name, **kw)
            assert _digest(resumed.snapshot()) == want
            resumed.close()


class TestPushBatchFailure:
    def test_invalid_record_applies_prefix(self, tmp_path):
        records = _records(tasks=10, seed=1)
        k = 4
        batch = records[:k] + [{"kind": "nonsense"}] + records[k:]

        serial = _session()
        for rec in records[:k]:
            serial.push(rec)

        journal = tmp_path / "fail.journal"
        batched = _session(journal_path=journal, fsync_policy="batch")
        with pytest.raises(BatchError) as info:
            batched.push_batch(batch)
        assert info.value.applied == k
        assert len(info.value.decisions) == k
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())
        batched.close()
        # The journaled prefix is replayable.
        resumed = _session(journal_path=journal)
        assert resumed.num_events == k
        assert _digest(resumed.snapshot()) == _digest(serial.snapshot())

    def test_kernel_rejection_applies_prefix(self):
        serial = _session()
        serial.push({"kind": "arrival", "size": 2, "id": 0})
        batched = _session()
        with pytest.raises(BatchError) as info:
            batched.push_batch(
                [
                    {"kind": "arrival", "size": 2, "id": 0},
                    {"kind": "departure", "id": 42},  # unknown task
                    {"kind": "arrival", "size": 2, "id": 1},
                ]
            )
        assert info.value.applied == 1
        assert _digest(batched.snapshot()) == _digest(serial.snapshot())


_KILL_CHILD = textwrap.dedent(
    """
    import json, os, signal, sys

    import numpy as np

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


class TestKillResumeEveryPolicy:
    @pytest.mark.parametrize(
        "policy", ["always", "batch", "interval:3600000"]
    )
    def test_sigkill_loses_at_most_uncommitted_tail(self, tmp_path, policy):
        records = _records(tasks=25, seed=13)
        committed = 15
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
            [
                sys.executable,
                "-c",
                _KILL_CHILD,
                str(journal),
                policy,
                str(records_path),
                str(committed),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "READY" in proc.stdout

        with pytest.warns(UserWarning) if _has_partial_tail(journal) else _noop():
            resumed = _session(
                journal_path=journal, snapshot_interval=4, fsync_policy=policy
            )
        # Loss window: everything up to the last flush() survived; at most
        # the uncommitted tail (one batch) is gone.
        assert committed <= resumed.num_events <= len(records)
        for rec in records[resumed.num_events:]:
            resumed.push(rec)
        assert _digest(resumed.snapshot()) == _digest(reference.snapshot())
        assert resumed.kernel.metrics.to_state() == reference.kernel.metrics.to_state()


def _repo_src():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _has_partial_tail(journal) -> bool:
    from repro.sim.frames import JOURNAL_MAGIC, scan_frames

    data = journal.read_bytes()
    if data.startswith(JOURNAL_MAGIC):
        _frames, good_end, reason = scan_frames(data, len(JOURNAL_MAGIC))
        return reason is not None and good_end < len(data)
    text = data.decode("utf-8")
    return bool(text) and not text.endswith("\n")


def _noop():
    import contextlib

    return contextlib.nullcontext()
