"""Online allocation sessions: the paper's model as a long-lived service.

An :class:`AllocationSession` wraps one
:class:`~repro.kernel.AllocationKernel` behind an interactive API:
arrivals and departures (and, for fault-tolerant sessions, failures,
repairs and kills) are *pushed* one at a time, and the paper's running
quantities — ``L_A`` so far, the online ``L* = ceil(peak active
volume / N)``, and their ratio — are readable at any instant.  This is
the operating mode the paper actually describes (tasks "arrive at
unpredictable times"); the batch simulator is the offline replay of the
same kernel.

Durability: give the session a journal path and every absorbed event is
appended — fsync'd — to a :class:`~repro.sim.checkpoint.CheckpointJournal`
before the decision is returned, with a state digest embedded every
``snapshot_interval`` events and a full kernel snapshot every
``full_snapshot_interval``.  If the process dies, constructing a
session with the same configuration and journal path *resumes* it: the
journaled events are replayed through a fresh kernel and algorithm (the
:class:`~repro.core.base.AllocationAlgorithm` contract guarantees
algorithms are deterministic functions of the event history), and every
embedded snapshot and digest is verified against the replayed state — a
mismatch (different code, different config, corrupted journal) is a
hard :class:`~repro.errors.CheckpointError`, never a silently different
run.  The resumed session then continues to the same final metrics the
uninterrupted run would have produced.

SLO mode (``slo=SLOPolicy(...)``): every wire record goes through
:meth:`AllocationSession.offer`, which gates arrivals against the
slowdown-derived load target (:mod:`repro.service.slo`) and returns a
typed ``Admit | Queue | Reject | Cancel`` outcome instead of a bare
decision.  Inadmissible arrivals wait in a bounded FIFO queue that is
drained — strictly in order — the moment capacity frees (departures,
kills, repairs, resizes); a full queue rejects.  Queue and reject
decisions are journaled alongside absorbed events (``"slo"``-marked
records in a single contiguous index space), so a resumed session
reconstructs the exact queue contents, counters, and admission decisions
— replay never re-decides, it re-applies.  Backpressure: the journal's
fsync lag is compared against the policy's watermarks and surfaced as
:attr:`overloaded` (with hysteresis), which ``repro serve`` translates
into ``"overloaded"`` wire records and a read stall.  See ``docs/SLO.md``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.base import AllocationAlgorithm
from repro.errors import BatchError, CheckpointError, ReproError, SimulationError
from repro.kernel import AllocationKernel, BatchDecision, Decision
from repro.kernel.columnar import apply_routed_columns
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor
from repro.service.slo import (
    Admit,
    AdmissionController,
    AdmissionOutcome,
    Cancel,
    Queue,
    Reject,
    SLOPolicy,
)
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.engine import RunResult
from repro.sim.frames import (
    RoutedColumns,
    encode_wire_columns,
    routed_columns_from_records,
)
from repro.sim.realloc_cost import MigrationCostModel
from repro.tasks.events import Arrival, Departure
from repro.tasks.sequence import TaskSequence
from repro.tasks.task import Task
from repro.types import NodeId, TaskId

__all__ = ["AllocationSession"]


def _state_digest(state: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(state, sort_keys=True, default=repr).encode()
    ).hexdigest()


#: Kind codes of a normalised record (``_Batch.kinds``): arrivals and
#: coordinator ``placed`` records, departures, kills, other faults/resizes.
#: Codes 0/1 are the columnar wire layout's.
_ARRIVAL, _DEPARTURE, _KILL, _OTHER = 0, 1, 2, 3


def _wire(kind: str, time: Optional[float], **fields: Any) -> dict[str, Any]:
    """A wire record from a public mutator's arguments (None = implicit)."""
    record = {"kind": kind, "time": time, **fields}
    return {k: v for k, v in record.items() if v is not None}


class _Batch:
    """Normalised records: the kernel events plus the columns that session
    bookkeeping and the journal read.

    ``extra`` maps a position to the record journaled there when it is
    not a plain arrival/departure (fault and resize records, and every
    record of an external-placement session, kept verbatim); ``nodes``
    maps coordinator ``placed`` arrivals to their node.  ``cols`` is set
    when the batch came in as routed columns, whose encoded blob is
    journaled as is.
    """

    __slots__ = ("events", "kinds", "times", "ids", "sizes", "works",
                 "extra", "nodes", "cols", "error")

    def __init__(self) -> None:
        self.events: list[Any] = []
        self.kinds: Any = bytearray()
        self.times: Any = []
        self.ids: Any = []
        self.sizes: list[int] = []
        self.works: list[float] = []
        self.extra: dict[int, Mapping[str, Any]] = {}
        self.nodes: dict[int, NodeId] = {}
        self.cols: Optional[RoutedColumns] = None
        self.error: Optional[Exception] = None

    def record_at(self, i: int) -> dict[str, Any]:
        """The normalised journal record at position ``i`` (a new dict)."""
        t = self.times[i]
        extra = self.extra.get(i)
        if extra is not None:
            out = dict(extra)
            out["time"] = t
            return out
        if self.kinds[i] == _ARRIVAL:
            return {"kind": "arrival", "time": t, "id": self.ids[i],
                    "size": self.sizes[i], "work": self.works[i]}
        return {"kind": "departure", "time": t, "id": self.ids[i]}

    def blob(self, count: int) -> bytes:
        """The first ``count`` records as one columnar batch blob."""
        if self.cols is not None:
            return self.cols.encoded()
        return encode_wire_columns(
            self.kinds[:count], self.times[:count], self.ids[:count],
            self.sizes[:count], self.works[:count],
        )


class AllocationSession:
    """One tenant's interactive allocation service on one machine.

    Parameters
    ----------
    machine, algorithm, cost_model:
        As for the batch :class:`~repro.sim.engine.Simulator`.
    fault_tolerant:
        Wrap the algorithm for salvage and enable failure/repair/kill
        events (otherwise a fault event is rejected).
    journal_path:
        Append-only durability journal.  If the file already exists, the
        session **resumes** from it (see the module docstring); the
        journal fingerprint pins machine, algorithm and ``d``, so resuming
        with a different configuration is refused.
    snapshot_interval, full_snapshot_interval:
        Embed an O(1) state digest in the journal every
        ``snapshot_interval`` events and a full kernel snapshot every
        ``full_snapshot_interval`` (default 16x the former); resume
        verifies both.  0 disables that kind of rider; resume still
        replays.
    fsync_policy:
        Journal durability mode (``always`` | ``batch`` |
        ``interval:<ms>``, see :class:`~repro.sim.checkpoint.
        CheckpointJournal`).  ``always`` keeps the original per-event
        durability; ``batch`` group-commits — :meth:`push_batch` syncs
        once per batch and per-event pushes buffer until :meth:`flush`
        (or a control read, or close) — so a crash loses at most the
        records since the last commit: one uncommitted batch.
    batch_backend:
        Execution strategy for :meth:`push_batch`'s kernel ingest
        (``python`` | ``numpy``, see
        :class:`~repro.kernel.core.AllocationKernel`).  Decisions and
        journals are bit-identical across backends, so the backend is a
        per-process tuning knob — it is deliberately *not* part of the
        journal fingerprint, and a journal written under one backend
        resumes cleanly under another.
    slo:
        An :class:`~repro.service.slo.SLOPolicy` switches the session
        into SLO mode: :meth:`push` / :meth:`push_batch` (and the public
        mutators) route through the admission controller via
        :meth:`offer` and return typed admission outcomes.  The policy's
        load target and queue capacity join the journal fingerprint —
        an SLO journal only resumes under the same contract.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: Optional[AllocationAlgorithm],
        cost_model: Optional[MigrationCostModel] = None,
        *,
        fault_tolerant: bool = False,
        journal_path: Union[str, Path, None] = None,
        snapshot_interval: int = 64,
        collect_leaf_snapshots: bool = True,
        repack_on_repair: bool = True,
        fsync_policy: str = "always",
        full_snapshot_interval: Optional[int] = None,
        batch_backend: str = "python",
        slo: Optional[SLOPolicy] = None,
        replay_stop: Optional[Any] = None,
    ) -> None:
        self.machine = machine
        self._fault_tolerant = fault_tolerant
        if algorithm is None and fault_tolerant:
            raise SimulationError(
                "an external-placement session (algorithm=None) cannot be "
                "fault tolerant; faults need an algorithm to salvage with"
            )
        if fault_tolerant:
            from repro.faults.salvage import FaultTolerantAlgorithm

            if isinstance(algorithm, FaultTolerantAlgorithm):
                wrapper = algorithm
            else:
                wrapper = FaultTolerantAlgorithm(
                    machine, algorithm, machine.degraded_view()
                )
            self.algorithm: Optional[AllocationAlgorithm] = wrapper
            view = wrapper.view
        else:
            self.algorithm = algorithm
            view = None
        self.kernel = AllocationKernel(
            machine,
            self.algorithm,
            cost_model,
            collect_leaf_snapshots=collect_leaf_snapshots,
            view=view,
            repack_on_repair=repack_on_repair,
            batch_backend=batch_backend,
        )
        self._slo: Optional[AdmissionController] = (
            AdmissionController(slo) if slo is not None else None
        )
        self._events: list[Any] = []
        self._now = 0.0
        self._next_task_id = 0
        self._offered = 0
        self._journal_seq = 0
        self._overloaded = False
        self._snapshot_interval = max(0, int(snapshot_interval))
        # Two embedding intervals: cheap O(1) delta records every
        # ``snapshot_interval`` events and a full pickled kernel snapshot
        # only every ``full_snapshot_interval`` (default 16x).
        if full_snapshot_interval is None:
            full_snapshot_interval = 16 * self._snapshot_interval
        self._full_snapshot_interval = max(0, int(full_snapshot_interval))
        self._replay_stop = replay_stop
        self._journal: Optional[CheckpointJournal] = None
        if journal_path is not None:
            resuming = Path(journal_path).exists()
            self._journal = CheckpointJournal(
                journal_path,
                fingerprint=self._fingerprint(),
                fsync_policy=fsync_policy,
            )
            if resuming:
                self._replay_journal()

    def _fingerprint(self) -> dict[str, Any]:
        # An external-placement session (a shard worker behind the
        # coordinator) pins "external": its journal must never resume
        # under an algorithm-driven session or vice versa.
        out: dict[str, Any] = {
            "kind": "allocation-session",
            "machine": machine_descriptor(self.machine),
            "algorithm": (
                "external" if self.algorithm is None else self.algorithm.name
            ),
            "d": (
                "None" if self.algorithm is None
                else repr(self.algorithm.reallocation_parameter)
            ),
            "fault_tolerant": self._fault_tolerant,
        }
        if self._slo is not None:
            # Only the fields that shape admission decisions pin the
            # journal; watermarks/retry hints are serving knobs and may
            # change across a resume.
            out["slo"] = {
                "load_target": self._slo.load_target,
                "queue_capacity": self._slo.policy.queue_capacity,
            }
        return out

    # -- Event intake --------------------------------------------------------
    #
    # Every entry point — push, the public mutators, push_batch, offer and
    # its queue drain, the routed shard intake and journal replay — runs
    # the same three steps: _normalise (wire records -> kernel events plus
    # journal columns), _apply (the kernel, one event being a batch of
    # one) and _commit (session bookkeeping plus one journal write).

    def submit(
        self,
        size: int,
        *,
        time: Optional[float] = None,
        task_id: Optional[int] = None,
        work: float = 1.0,
    ) -> Union[Decision, AdmissionOutcome]:
        """Admit one task arrival; returns the placement decision.

        In SLO mode the arrival goes through :meth:`offer` and the typed
        admission outcome is returned instead.
        """
        return self.push(
            _wire("arrival", time, id=task_id, size=size, work=work)
        )

    def depart(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Retire one active task (via :meth:`offer` in SLO mode)."""
        return self.push(_wire("departure", time, id=task_id))

    def fail(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Fail the aligned subtree at ``node`` (fault-tolerant sessions)."""
        return self.push(_wire("failure", time, node=node))

    def repair(
        self, node: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Repair a previously-failed subtree (fault-tolerant sessions)."""
        return self.push(_wire("repair", time, node=node))

    def kill(
        self, task_id: int, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Kill one task in place (fault-tolerant sessions)."""
        return self.push(_wire("kill", time, id=task_id))

    def grow(
        self, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Grow the machine online by ``factor`` (fault-tolerant sessions)."""
        return self.resize("grow", factor, time=time)

    def shrink(
        self, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Shrink the machine online by ``factor`` (fault-tolerant sessions)."""
        return self.resize("shrink", factor, time=time)

    def resize(
        self, op: str, factor: int = 2, *, time: Optional[float] = None
    ) -> Union[Decision, AdmissionOutcome]:
        """Resize the machine in place while tasks stay resident.

        ``grow`` renumbers every placement into a ``factor``-times larger
        machine (zero migrations); ``shrink`` repacks the survivors into
        the leftmost ``1/factor`` of the PEs and refuses if any active
        task would no longer fit.  Resizes need a fault-tolerant session
        (the kernel routes them through the degraded view) and are
        journaled like any other event, so a resumed session replays the
        same machine-size trajectory.
        """
        return self.push(_wire("resize", time, op=op, factor=factor))

    def push(self, record: Mapping[str, Any]) -> Union[Decision, AdmissionOutcome]:
        """Absorb one wire-format event record (see :mod:`.stream`).

        SLO sessions route through :meth:`offer` and return the typed
        admission outcome; plain sessions return the kernel decision.
        """
        if self._slo is not None:
            return self.offer(record)
        return self._step(self._normalise((record,)))

    def push_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Union[BatchDecision, list[AdmissionOutcome]]:
        """Absorb a batch of wire-format records in one amortised call.

        Bit-identical to :meth:`push`-ing each record — same decisions,
        metrics, clock/task-id assignment and resumed state — but the
        kernel meters the batch in one pass
        (:meth:`AllocationKernel.apply_batch`) and the journal absorbs it
        as one group commit (one write, one ``fsync``): a single columnar
        frame when every record is a plain arrival or departure.  A crash
        mid-call therefore loses at most this one batch; once
        ``push_batch`` returns under the ``always`` or ``batch`` policy
        the batch is durable.

        If a record is invalid or an event fails in the kernel, every
        preceding event is fully applied and journaled (exactly as the
        per-event path would leave it) and a
        :class:`~repro.errors.BatchError` carrying the applied prefix is
        raised.

        SLO sessions delegate to :meth:`offer_batch` (admission gating is
        per-event) and return its outcome list.
        """
        if self._slo is not None:
            return self.offer_batch(records)
        return self._ingest_batch(self._normalise(records))

    def flush(self) -> None:
        """Make buffered journal records durable (group-commit boundary).

        A no-op without a journal or when nothing is pending; under the
        ``always`` policy there is never anything to flush.
        """
        if self._journal is not None:
            self._journal.commit()

    def _normalise(self, records: Sequence[Mapping[str, Any]]) -> "_Batch":
        """Validate wire records into kernel events and journal columns.

        One pass, no per-record dicts on the arrival/departure hot path:
        implicit times continue the session clock (``0`` for the first
        event, then ``now + 1``), implicit arrival ids take the next free
        id, fault and resize records need a fault-tolerant session, and
        an external-placement session also takes coordinator ``placed``
        records and journals every record verbatim (coordinator metadata
        such as ``gsn`` survives into the shard journal).  Stops at the
        first invalid record, keeping its exception in ``error``; nothing
        of the session changes here.
        """
        batch = _Batch()
        events, kinds, times = batch.events, batch.kinds, batch.times
        ids, sizes, works = batch.ids, batch.sizes, batch.works
        verbatim = self.algorithm is None
        now = self._now
        started = self._offered > 0
        next_id = self._next_task_id
        for i, record in enumerate(records):
            try:
                kind = record.get("kind")
                t = record.get("time")
                if t is None:
                    t = now + 1.0 if started else 0.0
                else:
                    if type(t) is not float:
                        t = float(t)
                    if t < now:
                        raise SimulationError(
                            f"event time {t} precedes the session clock ({now})"
                        )
                size, work = 0, 0.0
                if kind == "arrival" or (kind == "placed" and verbatim):
                    tid = record.get("id")
                    if tid is None:
                        tid = next_id
                    elif type(tid) is not int:
                        tid = int(tid)
                    size = record["size"]
                    if type(size) is not int:
                        size = int(size)
                    work = record.get("work", 1.0)
                    if type(work) is not float:
                        work = float(work)
                    event: Any = Arrival(t, Task(TaskId(tid), size, t, work=work))
                    code = _ARRIVAL
                    if kind == "placed":
                        batch.nodes[i] = NodeId(int(record["node"]))
                    if tid >= next_id:
                        next_id = tid + 1
                elif kind == "departure":
                    tid = record["id"]
                    if type(tid) is not int:
                        tid = int(tid)
                    event = Departure(t, TaskId(tid))
                    code = _DEPARTURE
                else:
                    event, norm = self._normalise_fault(kind, t, record)
                    batch.extra[i] = norm
                    code = _KILL if kind == "kill" else _OTHER
                    tid = norm.get("id", -1)
            except (ReproError, KeyError, TypeError, ValueError) as exc:
                batch.error = exc
                break
            if verbatim:
                batch.extra[i] = record
            events.append(event)
            kinds.append(code)
            times.append(t)
            ids.append(tid)
            sizes.append(size)
            works.append(work)
            now = t
            started = True
        return batch

    def _normalise_fault(
        self, kind: Any, t: float, record: Mapping[str, Any]
    ) -> tuple[Any, dict[str, Any]]:
        """Kernel event and journal record of a fault or resize record."""
        if kind not in ("failure", "repair", "kill", "resize"):
            raise SimulationError(f"unknown event record kind {kind!r}")
        tid = int(record["id"]) if kind == "kill" else -1
        ctrl = self._slo
        # A kill of a task the admission gate holds resolves as a cancel
        # and never reaches the kernel, so it needs no fault tolerance.
        held = ctrl is not None and (ctrl.is_pending(tid) or ctrl.was_dropped(tid))
        if not (self._fault_tolerant or held):
            raise SimulationError(
                f"{kind} events need a fault-tolerant session "
                "(AllocationSession(..., fault_tolerant=True))"
            )
        if kind == "resize":
            from repro.scenarios.elastic import MachineResize

            event = MachineResize(
                t, str(record["op"]), int(record.get("factor", 2))
            )
            return event, {"kind": kind, "time": t, "op": event.op,
                           "factor": event.factor}
        from repro.faults.plan import PEFailure, PERepair, TaskKill

        if kind == "kill":
            return TaskKill(t, TaskId(tid)), {"kind": kind, "time": t, "id": tid}
        node = int(record["node"])
        norm: dict[str, Any] = {"kind": kind, "time": t, "node": node}
        if kind == "failure":
            return PEFailure(t, NodeId(node)), norm
        return PERepair(t, NodeId(node)), norm

    def _apply(self, batch: "_Batch") -> BatchDecision:
        """Run the normalised events through the kernel.

        Raises :class:`~repro.errors.BatchError` carrying the applied
        prefix; the kernel state then equals the per-event path after it.
        Coordinator ``placed`` arrivals are booked at their given node
        (:meth:`AllocationKernel.apply_placed`).
        """
        kernel = self.kernel
        nodes = batch.nodes
        if not nodes:
            return kernel.apply_batch(batch.events)
        decisions: list[Decision] = []
        try:
            for i, event in enumerate(batch.events):
                node = nodes.get(i)
                if node is None:
                    decisions.extend(kernel.apply_batch((event,)).decisions)
                else:
                    decisions.append(
                        kernel.apply_placed(event.time, event.task, node)
                    )
        except ReproError as exc:
            cause = exc.__cause__ if isinstance(exc, BatchError) else exc
            raise BatchError(
                f"batch event {len(decisions)} failed: {cause}",
                applied=len(decisions),
                decisions=decisions,
            ) from cause
        return BatchDecision.summarize(
            tuple(decisions),
            max_load=kernel.current_max_load,
            active_size=kernel.active_size(),
            optimal_load=kernel.optimal_load,
        )

    def _commit(
        self,
        batch: "_Batch",
        count: int,
        *,
        group: bool = False,
        mark: Optional[str] = None,
    ) -> None:
        """Advance the session over the first ``count`` normalised records
        and journal them.

        ``group`` writes them as one group commit — a columnar
        :meth:`~CheckpointJournal.record_batch_blob` frame when every
        record is a plain arrival/departure, else
        :meth:`~CheckpointJournal.record_many` — instead of one
        :meth:`~CheckpointJournal.record`.  ``mark`` tags an SLO admission
        record: ``queue`` / ``reject`` / ``cancel`` hold the record back
        from the kernel (it is journaled, not absorbed) and a ``dequeue``
        absorbs an arrival that was already counted when offered.
        """
        if count <= 0:
            return
        absorbed = mark is None or mark == "dequeue"
        base = len(self._events)
        if absorbed:
            events = batch.events
            self._events.extend(events if count == len(events) else events[:count])
        self._now = batch.times[count - 1]
        if mark != "dequeue":
            self._offered += count
        kinds, ids = batch.kinds, batch.ids
        next_id = self._next_task_id
        for j in range(count):
            if kinds[j] == _ARRIVAL and ids[j] >= next_id:
                next_id = ids[j] + 1
        self._next_task_id = next_id
        journal = self._journal
        if journal is None:
            return
        # A rider is due when the records cross an interval boundary (for
        # one record, the ``len % interval == 0`` schedule): a full kernel
        # snapshot every ``full_snapshot_interval`` events, else an O(1)
        # delta every ``snapshot_interval``.  Mid-batch kernel states no
        # longer exist, so it rides on the last record.
        rider: Optional[dict[str, Any]] = None
        end = base + count
        full, every = self._full_snapshot_interval, self._snapshot_interval
        if absorbed and full and end // full > base // full:
            rider = {"snapshot": self.kernel.snapshot()}
        elif absorbed and every and end // every > base // every:
            rider = {"delta": self._delta_state()}
        seq = self._journal_seq
        if not group:
            record = batch.record_at(0)
            if mark is not None:
                record["slo"] = mark
            payload: dict[str, Any] = {"record": record}
            if rider is not None:
                payload.update(rider)
            journal.record(seq, payload)
        elif batch.cols is not None or not batch.extra:
            extras = [] if rider is None else [(seq + count - 1, rider)]
            journal.record_batch_blob(seq, count, batch.blob(count), extras)
        else:
            payloads: list[tuple[int, dict[str, Any]]] = [
                (seq + j, {"record": batch.record_at(j)}) for j in range(count)
            ]
            if rider is not None:
                payloads[-1][1].update(rider)
            journal.record_many(payloads)
        self._journal_seq = seq + count

    def _step(self, batch: "_Batch", mark: Optional[str] = None) -> Decision:
        """Apply and commit one normalised record; the kernel's own error
        propagates unchanged and leaves the session untouched."""
        if batch.error is not None:
            raise batch.error
        try:
            decision = self._apply(batch).decisions[0]
        except BatchError as exc:
            raise (exc.__cause__ or exc) from None
        self._commit(batch, 1, mark=mark)
        return decision

    def _ingest_batch(self, batch: "_Batch") -> BatchDecision:
        """Apply and group-commit a normalised batch; on a bad record or
        kernel failure commit the applied prefix, then raise
        :class:`~repro.errors.BatchError`."""
        try:
            result = self._apply(batch)
        except BatchError as exc:
            self._commit(batch, exc.applied, group=True)
            raise
        applied = len(batch.events)
        self._commit(batch, applied, group=True)
        if batch.error is not None:
            raise BatchError(
                f"batch record {applied} is invalid: {batch.error}",
                applied=applied,
                decisions=list(result.decisions),
            ) from batch.error
        return result

    # -- SLO admission -------------------------------------------------------

    def offer(self, record: Mapping[str, Any]) -> AdmissionOutcome:
        """Absorb one wire record through the admission controller.

        Arrivals are evaluated against the post-placement load they would
        induce: admissible ones (and everything when SLO mode is off) are
        applied and returned as :class:`~repro.service.slo.Admit`;
        inadmissible ones wait in the FIFO queue
        (:class:`~repro.service.slo.Queue`) or, when it is full, are
        turned away (:class:`~repro.service.slo.Reject`).  Non-arrival
        events always apply, then drain the queue in FIFO order for as
        long as its head became admissible — the drained decisions ride
        on the returned outcome.  Departures/kills of tasks the gate is
        still holding (or already dropped) resolve as
        :class:`~repro.service.slo.Cancel` without touching the kernel.

        Every decision is journaled, so a resumed session reproduces the
        same outcomes bit-identically.
        """
        batch = self._normalise((record,))
        ctrl = self._slo
        if ctrl is None:
            return Admit(record=dict(record), decision=self._step(batch))
        if batch.error is not None:
            raise batch.error
        code = batch.kinds[0]
        tid = batch.ids[0]
        if code == _ARRIVAL:
            return self._offer_arrival(batch)
        if code in (_DEPARTURE, _KILL):
            active = TaskId(tid) in self.kernel.placements
            if not active and (ctrl.is_pending(tid) or ctrl.was_dropped(tid)):
                dequeued = bool(self._hold(batch, "cancel"))
                # Removing the (possibly blocking) head can expose an
                # admissible successor — same drain discipline as a
                # capacity-freeing event.
                return Cancel(
                    record=dict(record), task_id=tid, dequeued=dequeued,
                    drained=self._drain() if dequeued else (),
                )
        decision = self._step(batch)
        return Admit(record=dict(record), decision=decision, drained=self._drain())

    def _admissible(self, size: int) -> bool:
        assert self._slo is not None
        try:
            return (
                self.kernel.min_submachine_load(size) + 1
                <= self._slo.load_target
            )
        except ReproError:
            # e.g. a queued task larger than the machine after a shrink:
            # it stays queued until a grow makes it placeable again.
            return False

    def _offer_arrival(self, batch: "_Batch") -> AdmissionOutcome:
        ctrl = self._slo
        assert ctrl is not None
        size = batch.sizes[0]
        tid = batch.ids[0]
        self.machine.validate_task_size(size)
        if ctrl.is_pending(tid) or TaskId(tid) in self.kernel.placements:
            raise SimulationError(f"task {tid} is already active or queued")
        ctrl.revive(tid)  # a retry of a rejected/canceled id is a fresh task
        norm = batch.record_at(0)
        if ctrl.queue_empty and self._admissible(size):
            decision = self._admit(batch)
            return Admit(record=norm, decision=decision, drained=self._drain())
        # FIFO discipline: while anything waits, newcomers wait behind it.
        if ctrl.queue_full:
            self._hold(batch, "reject")
            return Reject(
                record=norm, task_id=tid, retry_after=ctrl.policy.retry_after,
                reason=f"admission queue full ({ctrl.policy.queue_capacity} waiting)",
            )
        position = self._hold(batch, "queue")
        return Queue(
            record=norm, task_id=tid, position=position, queued=ctrl.queued
        )

    def _admit(self, batch: "_Batch", mark: Optional[str] = None) -> Decision:
        """Place a gated arrival (``mark="dequeue"`` for a queue drain).

        A placement past the load target is metered as an SLO violation:
        impossible for target-aware algorithms behind the gate (greedy
        places at the minimum; gated two-choice probes admissible
        submachines only), but an SLO session can wrap any allocator —
        the counter is how an oblivious one shows up on the dashboard.
        """
        ctrl = self._slo
        assert ctrl is not None
        decision = self._step(batch, mark)
        ctrl.admitted_total += 1
        if mark == "dequeue":
            ctrl.drained_total += 1
        node = decision.node
        if node is not None and self.kernel.submachine_load(node) > ctrl.load_target:
            ctrl.slo_violations += 1
        return decision

    def _hold(self, batch: "_Batch", mark: str) -> Any:
        """Queue, reject or cancel a gated record: journaled, never
        absorbed.  Returns the queue position or whether a cancel
        dequeued a waiting task."""
        ctrl = self._slo
        assert ctrl is not None
        tid = batch.ids[0]
        result: Any = None
        if mark == "queue":
            ctrl.revive(tid)
            result = ctrl.enqueue(batch.record_at(0))
        elif mark == "reject":
            ctrl.reject(tid)
        else:
            result = ctrl.cancel(tid)
        self._commit(batch, 1, mark=mark)
        return result

    def _drain(self) -> tuple[Decision, ...]:
        """Admit queued arrivals FIFO while the head fits the load target."""
        ctrl = self._slo
        assert ctrl is not None
        decisions: list[Decision] = []
        while True:
            head = ctrl.head()
            if head is None or not self._admissible(int(head["size"])):
                break
            queued = ctrl.pop()
            queued["time"] = self._now  # admitted when capacity freed, not offered
            decisions.append(self._admit(self._normalise((queued,)), "dequeue"))
        return tuple(decisions)

    def offer_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> list[AdmissionOutcome]:
        """Offer a batch of records; one typed outcome per record.

        Admission is inherently per-event (each decision depends on the
        loads the previous one left), so SLO batches take the per-event
        path; under the ``batch`` fsync policy the journal commits once on
        return (also when a record raises), under ``interval`` the timer
        still decides.  A record that raises leaves the preceding records
        fully applied and surfaces as a :class:`~repro.errors.BatchError`
        carrying that prefix (``decisions`` holds its outcomes).
        """
        outcomes: list[AdmissionOutcome] = []
        try:
            for record in records:
                try:
                    outcomes.append(self.offer(record))
                except (ReproError, KeyError, TypeError, ValueError) as exc:
                    raise BatchError(
                        f"batch record {len(outcomes)} failed: {exc}",
                        applied=len(outcomes),
                        decisions=outcomes,
                    ) from exc
        finally:
            if self._journal is not None and self._journal.fsync_policy == "batch":
                self._journal.commit()
        return outcomes

    # -- Coordinator-routed intake (shard workers) ---------------------------

    def push_routed_batch(
        self, records: Sequence[Mapping[str, Any]], *, want_decisions: bool = True
    ) -> list[Decision]:
        """Absorb a batch of coordinator-routed records, one group commit.

        ``"placed"`` records admit an externally-placed task, departures
        retire one; both are journaled verbatim, so coordinator metadata
        (``gsn``, ``drain`` marks) survives into the shard journal and
        resume.  Bit-identical to absorbing each record on its own; if a
        record fails, the applied prefix is journaled and a
        :class:`~repro.errors.BatchError` is raised, as for
        :meth:`push_batch`.  Batches on the hot routed schema take the
        columnar path (:meth:`push_routed_columns`).
        """
        cols = routed_columns_from_records(records)
        if cols is not None:
            return self.push_routed_columns(cols, want_decisions=want_decisions)
        return list(self._ingest_batch(self._normalise(records)).decisions)

    def push_routed_columns(
        self, cols: RoutedColumns, *, want_decisions: bool = False
    ) -> list[Decision]:
        """Absorb one decoded columnar routed batch (shard-worker intake).

        The columns arrive straight off the coordinator wire frame and —
        when the batch is eligible for the vectorized kernel path
        (:func:`~repro.kernel.columnar.apply_routed_columns`) — the *same*
        encoded blob is framed into the journal without materialising a
        single per-record dict.  Ineligible batches (clock regressions,
        invalid placements) take the per-record path, which reproduces
        the exact error text and prefix semantics.  ``want_decisions=False``
        skips materialising :class:`Decision` objects (shard workers
        discard them) and returns ``[]``.
        """
        times = cols.times
        ordered = all(a <= b for a, b in zip([self._now, *times], times))
        out = (
            apply_routed_columns(self.kernel, cols, want_decisions)
            if ordered and self._slo is None else None
        )
        if out is None:
            result = self._ingest_batch(self._normalise(cols.records()))
            return list(result.decisions) if want_decisions else []
        batch = _Batch()
        batch.events, decisions = out
        batch.kinds, batch.times, batch.ids, batch.cols = cols.kinds, times, cols.ids, cols
        self._commit(batch, cols.n, group=True)
        return decisions if want_decisions else []

    def _delta_state(self) -> dict[str, Any]:
        """O(1) digest of the session/kernel scalars, journaled between
        full snapshots (``delta`` riders) and re-verified on resume.

        Deliberately cheap: counters and running loads only, no per-task
        state — a divergence in any replayed event perturbs at least one
        of these, so deltas catch configuration/build drift at nearly the
        full-snapshot granularity for ~100 bytes instead of a pickled
        kernel.
        """
        k = self.kernel
        return {
            "events": len(self._events),
            "now": self._now,
            "offered": self._offered,
            "next_id": self._next_task_id,
            "tasks": k.num_active(),
            "active": k.active_size(),
            "peak_active": k.peak_active_size,
            "max_load": k.current_max_load,
            "peak_load": k.metrics.max_load,
        }

    # -- Resume --------------------------------------------------------------

    def _replay_journal(self) -> None:
        """Rebuild the session from its journal through the ingest path.

        The journal is detached meanwhile, so nothing is re-journaled.
        Plain records replay in runs through :meth:`_apply`; a run ends at
        every embedded snapshot/delta, which is verified against the
        replayed state.  ``"slo"``-marked records re-apply the journaled
        admission decision mechanically — enqueue, reject, cancel, or
        admit the queue head — rather than re-deciding, so a resumed SLO
        session reconstructs the exact queue and counters of the crashed
        one.
        """
        journal = self._journal
        assert journal is not None
        completed = journal.completed()
        total = len(completed)
        records: list[Mapping[str, Any]] = []
        for index in range(total):
            if index not in completed:
                raise CheckpointError(
                    f"session journal {journal.path} has a gap at "
                    f"event {index}"
                )
            try:
                records.append(completed[index]["record"])
            except (TypeError, KeyError) as exc:
                raise CheckpointError(
                    f"session journal {journal.path}: malformed record "
                    f"at event {index}"
                ) from exc
        # Find the reconciliation cutoff before touching any state, so
        # the snapshot fast-forward below can never restore past it.
        stop = total
        if self._replay_stop is not None:
            stop = next(
                (i for i, r in enumerate(records) if self._replay_stop(r)), total
            )
        self._journal = None
        try:
            start = 0
            if self.algorithm is None and self._slo is None:
                start = self._fast_forward(completed, records, stop)
            run: list[Mapping[str, Any]] = []
            for index in range(start, stop):
                if self._slo is None:
                    run.append(records[index])
                else:
                    self._replay_admission(records[index])
                payload = completed[index]
                if "snapshot" in payload or "delta" in payload:
                    self._replay_run(run)
                    self._verify_rider(journal, payload, index)
            self._replay_run(run)
        finally:
            self._journal = journal
        if stop < total:
            # Distributed durable-prefix reconciliation: the sharded
            # coordinator computed a global cutoff and everything past
            # it must be discarded — physically, so a later resume
            # never sees the dropped tail.
            journal.drop_tail(stop)
        self._journal_seq = stop

    def _replay_run(self, run: list[Mapping[str, Any]]) -> None:
        """Re-apply a run of journaled plain records (and empty it)."""
        if not run:
            return
        batch = self._normalise(run)
        if batch.error is not None:
            raise batch.error
        self._apply(batch)
        self._commit(batch, len(run))
        run.clear()

    def _replay_admission(self, record: Mapping[str, Any]) -> None:
        """Re-apply one journaled record of an SLO session."""
        ctrl = self._slo
        assert ctrl is not None
        batch = self._normalise((record,))
        mark = record.get("slo")
        if mark is None and batch.error is None and batch.kinds[0] == _ARRIVAL:
            ctrl.revive(batch.ids[0])
            self._admit(batch)
        elif mark is None:
            self._step(batch)
        elif mark == "dequeue":
            head = ctrl.head()
            if head is None or int(head["id"]) != int(record["id"]):
                raise CheckpointError(
                    f"journaled dequeue of task {record['id']} does not "
                    f"match the replayed queue head "
                    f"({None if head is None else head['id']})"
                )
            ctrl.pop()
            self._admit(batch, "dequeue")
        elif mark in ("queue", "reject", "cancel"):
            if batch.error is not None:
                raise batch.error
            self._hold(batch, str(mark))
        else:
            raise CheckpointError(f"journaled record has unknown slo mark {mark!r}")

    def _verify_rider(
        self, journal: CheckpointJournal, payload: Mapping[str, Any], index: int
    ) -> None:
        """Check the replayed state against an embedded snapshot/delta."""
        checks = (
            ("snapshot", lambda snap: _state_digest(snap)
             == _state_digest(self.kernel.snapshot())),
            ("delta", lambda delta: delta == self._delta_state()),
        )
        for key, holds in checks:
            embedded = payload.get(key)
            if embedded is not None and not holds(embedded):
                raise CheckpointError(
                    f"session journal {journal.path}: replayed state "
                    f"diverges from the {key} embedded at event {index} "
                    "— the journal was written by a different "
                    "configuration or build"
                )

    def _fast_forward(
        self,
        completed: Mapping[int, Any],
        records: list[Mapping[str, Any]],
        stop: int,
    ) -> int:
        """Resume an external-placement session from its last full
        snapshot instead of replaying every event through the kernel.

        Only sessions with no algorithm and no SLO are eligible: with
        nothing but the kernel to reconstruct, the snapshot *is* the
        state, and the session-level bookkeeping (event log, clock,
        counters) is committed from the normalised journal records
        without touching the kernel.  Returns the replay start index —
        ``0`` (full replay) when no usable snapshot precedes ``stop`` or
        any record before it does not normalise.
        """
        snap_at = next(
            (i for i in range(stop - 1, -1, -1) if completed[i].get("snapshot")),
            -1,
        )
        if snap_at < 0:
            return 0
        batch = self._normalise(records[: snap_at + 1])
        if batch.error is not None:
            return 0
        self.kernel.restore(completed[snap_at]["snapshot"])
        self._commit(batch, snap_at + 1)
        return snap_at + 1

    # -- Live metrics --------------------------------------------------------

    @property
    def now(self) -> float:
        """The session clock: time of the last absorbed event."""
        return self._now

    @property
    def num_events(self) -> int:
        return len(self._events)

    @property
    def num_offers(self) -> int:
        """Wire records consumed so far — absorbed, queued, rejected, or
        canceled (but not queue drains, which re-admit an already-counted
        record).  This is the resume cursor for a record feed: after a
        crash, continue from ``records[session.num_offers:]``.  Equal to
        :attr:`num_events` outside SLO mode."""
        return self._offered

    @property
    def events(self) -> tuple[Any, ...]:
        """Every event absorbed so far, in order (task and fault events)."""
        return tuple(self._events)

    @property
    def max_load(self) -> int:
        """``L_A`` so far — the peak max PE load over the session."""
        return self.kernel.metrics.max_load

    @property
    def current_max_load(self) -> int:
        return self.kernel.current_max_load

    @property
    def optimal_load(self) -> int:
        """Running ``L* = ceil(peak active volume / N)``."""
        return self.kernel.optimal_load

    @property
    def competitive_ratio(self) -> float:
        return self.kernel.competitive_ratio

    @property
    def active_tasks(self) -> dict[TaskId, Task]:
        return self.kernel.active_tasks

    @property
    def placements(self) -> dict[TaskId, NodeId]:
        return self.kernel.placements

    @property
    def slo_policy(self) -> Optional[SLOPolicy]:
        """The active SLO contract (None outside SLO mode)."""
        return None if self._slo is None else self._slo.policy

    def admission_queue(self) -> tuple[dict[str, Any], ...]:
        """Arrivals waiting in the admission queue, FIFO order (empty
        outside SLO mode)."""
        return () if self._slo is None else self._slo.queue_snapshot()

    @property
    def journal_pending(self) -> int:
        """Journal records written but not yet fsync'd (0 without one)."""
        return 0 if self._journal is None else self._journal.pending

    @property
    def overloaded(self) -> bool:
        """Is the journal's fsync lag past the backpressure watermarks?

        Hysteresis: trips when pending records/bytes reach the policy's
        high watermark, clears only once both fall to the low watermark
        (a :meth:`flush` clears it immediately).  Always False outside
        SLO mode or without a journal.
        """
        if self._slo is None or self._journal is None:
            return False
        policy = self._slo.policy
        pending = self._journal.pending
        pending_bytes = self._journal.pending_bytes
        if self._overloaded:
            if (
                pending <= policy.low_watermark
                and pending_bytes <= policy.low_watermark_bytes
            ):
                self._overloaded = False
        elif (
            pending >= policy.high_watermark
            or pending_bytes >= policy.high_watermark_bytes
        ):
            self._overloaded = True
        return self._overloaded

    def status(self) -> dict[str, Any]:
        """One JSON-safe dashboard line for this session.

        The ``journal_pending`` / ``queued_tasks`` / ``rejected_total`` /
        ``slo_violations`` counters are always present (zero outside SLO
        mode / without a journal) so status consumers keep one schema;
        SLO sessions add an ``slo`` sub-object with the full contract and
        counters.  Schema: ``docs/ARCHITECTURE.md``.
        """
        out: dict[str, Any] = {
            "events": self.num_events,
            "now": self._now,
            "active_tasks": len(self.kernel.active_tasks),
            "active_size": self.kernel.active_size(),
            "max_load": self.max_load,
            "current_max_load": self.current_max_load,
            "optimal_load": self.optimal_load,
            "competitive_ratio": (
                float("inf")
                if self.optimal_load == 0 and self.max_load > 0
                else (0.0 if self.optimal_load == 0
                      else self.max_load / self.optimal_load)
            ),
            "reallocations": self.kernel.metrics.realloc.num_reallocations,
            "migrations": self.kernel.metrics.realloc.num_migrations,
            "journal_pending": (
                0 if self._journal is None else self._journal.pending
            ),
            "queued_tasks": 0 if self._slo is None else self._slo.queued,
            "rejected_total": (
                0 if self._slo is None else self._slo.rejected_total
            ),
            "slo_violations": (
                0 if self._slo is None else self._slo.slo_violations
            ),
        }
        if self._fault_tolerant:
            faults = self.kernel.metrics.faults
            out["failures"] = faults.num_failures
            out["kills"] = faults.num_kills
            out["min_surviving_pes"] = faults.min_surviving_pes
            out["num_pes"] = self.kernel.machine.num_pes
            out["grows"] = faults.num_grows
            out["shrinks"] = faults.num_shrinks
        if self._slo is not None:
            ctrl = self._slo
            out["slo"] = {
                "slowdown_target": ctrl.policy.slowdown_target,
                "load_target": ctrl.load_target,
                "queue_capacity": ctrl.policy.queue_capacity,
                "overloaded": self.overloaded,
                **ctrl.counters(),
            }
        return out

    def snapshot(self) -> dict[str, Any]:
        """The kernel's versioned state snapshot (JSON-serialisable)."""
        return self.kernel.snapshot()

    # -- Batch interop -------------------------------------------------------

    def sequence(self) -> TaskSequence:
        """The task sequence observed so far, reconstructed from the log.

        Tasks still active (or killed without a scheduled departure) keep
        ``departure = inf`` — exactly the information an offline replay or
        audit of this session would have.
        """
        tasks: dict[TaskId, Task] = {}
        departures: dict[TaskId, float] = {}
        for event in self._events:
            if isinstance(event, Arrival):
                tasks[event.task.task_id] = event.task
            elif isinstance(event, Departure):
                departures[event.task_id] = float(event.time)
        out = [
            t.with_departure(departures[tid]) if tid in departures else t
            for tid, t in tasks.items()
        ]
        return TaskSequence.from_tasks(out)

    def fault_plan(self):
        """The fault events absorbed so far, as a
        :class:`~repro.faults.plan.FaultPlan` (None when fault handling is
        off)."""
        if not self._fault_tolerant:
            return None
        from repro.faults.plan import FaultPlan

        fault_events = tuple(
            e
            for e in self._events
            if not isinstance(e, (Arrival, Departure))
            and getattr(e, "kind", None) != "resize"
        )
        return FaultPlan(fault_events)

    def resizes(self) -> tuple[Any, ...]:
        """The online resize events absorbed so far, in order."""
        return tuple(
            e for e in self._events if getattr(e, "kind", None) == "resize"
        )

    def result(self) -> RunResult:
        """A :class:`RunResult` for the session so far.

        ``optimal_load`` is the *online* ``L*`` from the peak active
        volume — for a finished session it equals the offline value the
        batch simulator would report for :meth:`sequence`.
        """
        return RunResult(
            algorithm_name=self.algorithm.name,
            machine_description=self.machine.describe(),
            metrics=self.kernel.metrics,
            optimal_load=self.kernel.optimal_load,
            final_placements=self.kernel.placements,
        )

    def save_run(self, path: Union[str, Path], *, metadata: Optional[Mapping] = None) -> None:
        """Archive the session for independent re-audit (see
        :mod:`repro.sim.archive`), with the raw event log embedded."""
        from repro.service.stream import records_from_events
        from repro.sim.archive import save_run

        plan = self.fault_plan()
        save_run(
            path,
            self.machine,
            self.sequence(),
            self.kernel,
            metadata=dict(metadata or {}),
            result=self.result(),
            events=records_from_events(self._events),
            fault_plan=None if plan is None or plan.is_empty else plan,
        )

    # -- Lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "AllocationSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
