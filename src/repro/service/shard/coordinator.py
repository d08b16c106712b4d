"""The sharded allocation service: one coordinator, K subtree workers.

The hierarchical buddy decomposition gives natural shard boundaries —
every aligned size-``2^x`` submachine is a self-contained subtree — so
the machine splits into ``K`` worker-owned subtrees
(:class:`~repro.service.shard.plan.ShardPlan`) with a coordinator in
front.  The division of labour:

* The **coordinator** owns the *global* state the paper's quantities are
  defined over: a full-machine
  :class:`~repro.service.session.AllocationSession` (kernel + load
  tracker, and the PR-8 admission controller in SLO mode) computes every
  placement decision, ``L_A``, ``L*``, and the competitive ratio exactly
  as the single-process service would — **bit-identical by
  construction**, because it runs the same code over the same event
  stream.  It stamps every wire event with a **global sequence number**
  (gsn) and routes the resulting placement to the shard owning the
  decided node.
* Each **shard worker** owns one subtree: an external-placement
  ``AllocationSession`` over the standalone ``N/K``-PE machine, with its
  own journal.  Workers never decide placements — they validate, book,
  and *durably journal* them, which is the per-event work that
  parallelises across processes (journal fsync, kernel bookkeeping).
* Events wider than one shard (a task of size > ``N/K`` lands on one of
  the top ``K - 1`` nodes) are **coordinator-owned**: the coordinator
  journals them itself; no shard ever sees them.  Fault/resize/kill
  events straddle shard boundaries in ways external-placement workers
  cannot express, so sharded mode *refuses* them with a structured
  error naming the op (``{"error": ..., "op": "failure", "line": N}``).

Durability is a **distributed log**: every wire event has exactly one
journal home — the owning shard (as a ``"placed"``/``"departure"``
record carrying its gsn) or the coordinator journal (cross-shard and
queued/rejected/canceled events, as the raw wire record plus gsn).
Queue *drains* ride with the gsn of their triggering event, marked
``"drain"`` — they are not events (replay regenerates them) but let a
shard rebuild independently.  Resume reconciles the union of all
journals Raft-style: the **durable prefix** is the longest gsn run
``0..C`` with no hole among event-bearing records; every journal is
physically truncated past ``C`` (fsync buffering loses suffixes, never
middles, so per-journal records are gsn-monotone and truncation is
well-defined), the coordinator replays the merged event stream in gsn
order through a fresh session — recomputing every decision, peak, and
admission outcome bit-identically — and an anti-entropy pass re-forwards
any drain placement a shard lost while its triggering event survived.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Protocol, Sequence, Union

from repro.core.base import AllocationAlgorithm
from repro.errors import (
    BatchError,
    CheckpointError,
    ShardError,
    SimulationError,
)
from repro.kernel import BatchDecision, Decision
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor
from repro.service.session import AllocationSession
from repro.service.shard.plan import ShardPlan
from repro.service.slo import Admit, AdmissionOutcome, Cancel, SLOPolicy
from repro.sim.checkpoint import CheckpointJournal
from repro.sim.frames import iter_journal_payloads
from repro.types import NodeId

__all__ = [
    "LocalShard",
    "ShardHandle",
    "ShardedCoordinator",
    "reconcile_journals",
]

#: Sentinel shard index for coordinator-owned (cross-shard) tasks.
COORDINATOR_OWNED = -1


class ShardHandle(Protocol):
    """What the coordinator needs from one shard worker, local or remote."""

    index: int

    def submit(self, records: Sequence[Mapping[str, Any]]) -> None:
        """Apply + journal a batch of routed records (may pipeline)."""
        ...

    def flush(self) -> None:
        """Block until everything submitted so far is applied and durable."""
        ...

    def backlog(self) -> int:
        """Routed records not yet known durable (backpressure signal)."""
        ...

    def status(self) -> dict[str, Any]: ...

    def snapshot(self) -> dict[str, Any]: ...

    def placements(self) -> dict[int, int]:
        """task id -> shard-local node for every task the shard holds."""
        ...

    def close(self) -> None: ...


class LocalShard:
    """In-process shard worker: an external-placement session, no IPC.

    The semantic reference for every other transport — the verify
    referee and the unit tests run clusters of these; the process/socket
    workers (:mod:`repro.service.shard.worker`) wrap the same session
    behind frames.
    """

    def __init__(
        self,
        index: int,
        machine: PartitionableMachine,
        journal_path: Union[str, Path, None] = None,
        *,
        fsync_policy: str = "always",
        snapshot_interval: int = 1024,
        replay_stop: Optional[Any] = None,
    ) -> None:
        self.index = index
        self.session = AllocationSession(
            machine,
            None,
            journal_path=journal_path,
            fsync_policy=fsync_policy,
            snapshot_interval=snapshot_interval,
            replay_stop=replay_stop,
        )

    def submit(self, records: Sequence[Mapping[str, Any]]) -> None:
        self.session.push_routed_batch(records, want_decisions=False)

    def flush(self) -> None:
        self.session.flush()

    def backlog(self) -> int:
        return self.session.journal_pending

    def status(self) -> dict[str, Any]:
        return {"shard": self.index, **self.session.status()}

    def snapshot(self) -> dict[str, Any]:
        return self.session.snapshot()

    def placements(self) -> dict[int, int]:
        return {
            int(tid): int(node)
            for tid, node in self.session.placements.items()
        }

    def close(self) -> None:
        self.session.close()


# -- Journal reconciliation (resume) ----------------------------------------


def _peek_payloads(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Read a journal's record payloads without opening it for append.

    Delegates to :func:`repro.sim.frames.iter_journal_payloads`, which
    applies the journals' corrupt-tail tolerance and last-wins duplicate
    contract.
    Returns dict payloads in index order.
    """
    by_index: dict[int, dict[str, Any]] = {}
    for index, value in iter_journal_payloads(path):
        if isinstance(value, dict):
            by_index[index] = value
    return [by_index[i] for i in sorted(by_index)]


def _wire_event_of(record: Mapping[str, Any]) -> dict[str, Any]:
    """The wire event a journaled record is the durable home of.

    Shard ``"placed"`` records fold back into the arrival they admitted;
    everything else (shard departures, coordinator-journaled wire
    records) is the event itself minus the gsn."""
    out = {k: v for k, v in record.items() if k not in ("gsn", "drain")}
    if out.get("kind") == "placed":
        return {
            "kind": "arrival",
            "time": out["time"],
            "id": out["id"],
            "size": out["size"],
            "work": out.get("work", 1.0),
        }
    return out


def reconcile_journals(
    paths: Iterable[Union[str, Path]],
) -> tuple[int, list[dict[str, Any]]]:
    """Merge a cluster's journals into (durable cutoff, event stream).

    Scans every existing journal for event-bearing records (``drain``
    marks are regenerated by replay and skipped), keys them by gsn, and
    returns the longest hole-free prefix ``0..cutoff`` as a wire-event
    list in gsn order.  ``cutoff`` is ``-1`` for an empty history.
    """
    events: dict[int, dict[str, Any]] = {}
    for path in paths:
        for payload in _peek_payloads(path):
            record = payload.get("record")
            if not isinstance(record, dict) or "gsn" not in record:
                continue
            if record.get("drain"):
                continue
            gsn = int(record["gsn"])
            event = _wire_event_of(record)
            if gsn in events and events[gsn] != event:
                raise CheckpointError(
                    f"journal {path}: gsn {gsn} maps to two different "
                    f"events — the journal directory mixes two histories"
                )
            events[gsn] = event
    cutoff = -1
    while cutoff + 1 in events:
        cutoff += 1
    return cutoff, [events[g] for g in range(cutoff + 1)]


# -- The coordinator ---------------------------------------------------------


class _RouteBuffer:
    """Per-call accumulator so batches reach each shard as one submit."""

    __slots__ = ("per_shard", "coord_events")

    def __init__(self) -> None:
        self.per_shard: dict[int, list[dict[str, Any]]] = {}
        self.coord_events: list[dict[str, Any]] = []


class ShardedCoordinator:
    """Routes one wire-event stream across K subtree shard workers.

    Construct via :meth:`create_local` (in-process workers — the verify
    referee's configuration) or
    :func:`repro.service.shard.worker.create_process_cluster` (one OS
    process per shard).  The public surface mirrors
    :class:`AllocationSession` where it can: :meth:`apply` /
    :meth:`apply_batch` absorb wire records and return the same
    ``Decision`` / admission outcomes the single-process service would,
    so ``repro serve`` emits identical reply lines in both modes.
    """

    def __init__(
        self,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        shards: Sequence[ShardHandle],
        *,
        plan: ShardPlan,
        journal_path: Union[str, Path, None] = None,
        fsync_policy: str = "always",
        slo: Optional[SLOPolicy] = None,
        batch_backend: str = "numpy",
        resume_events: Sequence[Mapping[str, Any]] = (),
        cutoff: int = -1,
    ) -> None:
        if type(algorithm).maybe_reallocate is not AllocationAlgorithm.maybe_reallocate:
            raise SimulationError(
                f"{algorithm.name} reallocates; sharded serving requires a "
                "non-reallocating algorithm (migrations cannot be expressed "
                "as external placements on subtree workers)"
            )
        if plan.num_pes != machine.num_pes or len(shards) != plan.num_shards:
            raise SimulationError("shard plan does not match machine/workers")
        self._machine = machine
        self._plan = plan
        self._shards = list(shards)
        self._session = AllocationSession(
            machine,
            algorithm,
            journal_path=None,
            slo=slo,
            batch_backend=batch_backend,
        )
        self._slo_policy = slo
        self._gsn = 0
        self._owner: dict[int, int] = {}
        self._work: dict[int, float] = {}
        self._placed_gsn: dict[int, int] = {}
        self._overloaded = False
        self._rate_mark: tuple[float, int] = (_time.monotonic(), 0)
        self._cjseq = 0
        self._cjournal: Optional[CheckpointJournal] = None
        self._replaying = False
        if journal_path is not None:
            self._cjournal = CheckpointJournal(
                journal_path,
                fingerprint=self._fingerprint(),
                fsync_policy=fsync_policy,
            )
            self._drop_coordinator_tail(cutoff)
        if resume_events:
            self._replaying = True
            try:
                for event in resume_events:
                    self.apply(dict(event))
            finally:
                self._replaying = False
            self._reconcile_shards()
        if self._cjournal is not None and self._cjseq != len(
            self._cjournal.completed()
        ):
            raise CheckpointError(
                f"coordinator journal {self._cjournal.path} holds "
                f"{len(self._cjournal.completed())} record(s) but replay "
                f"regenerated {self._cjseq} — inconsistent journal directory"
            )

    # -- Construction --------------------------------------------------------

    @classmethod
    def create_local(
        cls,
        machine: PartitionableMachine,
        algorithm: AllocationAlgorithm,
        *,
        num_shards: int,
        journal_dir: Union[str, Path, None] = None,
        fsync_policy: str = "always",
        snapshot_interval: int = 1024,
        slo: Optional[SLOPolicy] = None,
        batch_backend: str = "numpy",
    ) -> "ShardedCoordinator":
        """An in-process cluster: K :class:`LocalShard` workers.

        With a ``journal_dir`` the cluster is durable — and if the
        directory already holds journals, the cluster *resumes* from
        their reconciled durable prefix.
        """
        plan = ShardPlan(machine.num_pes, num_shards)
        coord_path, shard_paths = cluster_journal_paths(
            journal_dir, num_shards
        )
        cutoff, events = (-1, [])
        if journal_dir is not None:
            cutoff, events = reconcile_journals([coord_path, *shard_paths])
        stop = (
            None
            if journal_dir is None
            else (lambda record: int(record.get("gsn", 0)) > cutoff)
        )
        shards = [
            LocalShard(
                i,
                plan.shard_machine(machine),
                shard_paths[i] if journal_dir is not None else None,
                fsync_policy=fsync_policy,
                snapshot_interval=snapshot_interval,
                replay_stop=stop,
            )
            for i in range(num_shards)
        ]
        return cls(
            machine,
            algorithm,
            shards,
            plan=plan,
            journal_path=coord_path,
            fsync_policy=fsync_policy,
            slo=slo,
            batch_backend=batch_backend,
            resume_events=events,
            cutoff=cutoff,
        )

    def _fingerprint(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": "shard-coordinator",
            "machine": machine_descriptor(self._machine),
            "algorithm": self._session.algorithm.name
            if self._session.algorithm is not None
            else "external",
            "shards": self._plan.num_shards,
        }
        if self._slo_policy is not None:
            out["slo"] = self._slo_policy.to_dict()
        return out

    def _drop_coordinator_tail(self, cutoff: int) -> None:
        assert self._cjournal is not None
        completed = self._cjournal.completed()
        for index in sorted(completed):
            record = completed[index].get("record", {})
            if int(record.get("gsn", 0)) > cutoff:
                self._cjournal.drop_tail(index)
                return

    # -- Event intake --------------------------------------------------------

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def session(self) -> AllocationSession:
        """The coordinator's authoritative full-machine session."""
        return self._session

    @property
    def shards(self) -> tuple[ShardHandle, ...]:
        return tuple(self._shards)

    @property
    def gsn(self) -> int:
        """The next global sequence number to be assigned."""
        return self._gsn

    @property
    def slo_policy(self) -> Optional[SLOPolicy]:
        return self._slo_policy

    def apply(
        self, record: Mapping[str, Any]
    ) -> Union[Decision, AdmissionOutcome]:
        """Absorb one wire event: decide globally, route to its shard.

        Returns exactly what the single-process session would (a
        ``Decision``, or a typed admission outcome in SLO mode).  Only
        arrivals and departures are routable; fault/resize/kill events
        are refused with a :class:`SimulationError` the serve loop turns
        into an op-named structured error record.
        """
        kind = record.get("kind")
        if kind not in ("arrival", "departure"):
            raise SimulationError(
                f"{kind!r} events are not routable in sharded mode: they "
                "straddle shard boundaries; run a single-process session "
                "for fault/resize workloads"
            )
        buffer = _RouteBuffer()
        raw = dict(record)
        if self._slo_policy is not None:
            outcome = self._session.offer(raw)
            self._route_outcome(raw, outcome, buffer)
            self._dispatch(buffer)
            return outcome
        decision = self._session.push(raw)
        self._route_decision(raw, decision, buffer)
        self._dispatch(buffer)
        return decision

    def apply_batch(
        self, records: Sequence[Mapping[str, Any]]
    ) -> Union[BatchDecision, list[AdmissionOutcome]]:
        """Absorb a batch: one amortised global pass, one submit per shard.

        The coordinator session meters the batch through the columnar
        kernel engine (:meth:`AllocationSession.push_batch`) and each
        shard receives its share as a single group-committed submit —
        this is the sharded throughput path.  In SLO mode admission is
        per-event, so the batch folds to :meth:`apply` per record.
        """
        if self._slo_policy is not None:
            return [self.apply(r) for r in records]
        raws = [dict(r) for r in records]
        buffer = _RouteBuffer()
        try:
            batch = self._session.push_batch(raws)
        except BatchError as exc:
            for raw, decision in zip(raws, exc.decisions):
                self._route_decision(raw, decision, buffer)
            self._dispatch(buffer)
            raise
        for raw, decision in zip(raws, batch.decisions):
            self._route_decision(raw, decision, buffer)
        self._dispatch(buffer)
        return batch

    # -- Routing -------------------------------------------------------------

    def _route_decision(
        self,
        raw: Mapping[str, Any],
        decision: Decision,
        buffer: _RouteBuffer,
    ) -> None:
        gsn = self._gsn
        self._gsn += 1
        if decision.kind == "arrival":
            tid = int(decision.task_id)  # type: ignore[arg-type]
            self._work[tid] = float(raw.get("work", 1.0))
            self._place(tid, decision, gsn, raw, buffer, drain=False)
        else:
            self._route_departure(raw, decision, gsn, buffer)

    def _route_departure(
        self,
        raw: Mapping[str, Any],
        decision: Decision,
        gsn: int,
        buffer: _RouteBuffer,
    ) -> None:
        tid = int(decision.task_id)  # type: ignore[arg-type]
        owner = self._owner.pop(tid)
        self._work.pop(tid, None)
        self._placed_gsn.pop(tid, None)
        if owner == COORDINATOR_OWNED:
            self._journal_event(raw, gsn, buffer)
            return
        buffer.per_shard.setdefault(owner, []).append(
            {
                "kind": "departure",
                "time": float(decision.time),
                "id": tid,
                "gsn": gsn,
            }
        )

    def _place(
        self,
        tid: int,
        decision: Decision,
        gsn: int,
        raw: Optional[Mapping[str, Any]],
        buffer: _RouteBuffer,
        *,
        drain: bool,
    ) -> None:
        node = decision.node
        assert node is not None
        owner = self._plan.owner(node)
        if owner is None:
            # Cross-shard task: wider than one subtree, coordinator-owned.
            self._owner[tid] = COORDINATOR_OWNED
            if not drain:
                assert raw is not None
                self._journal_event(raw, gsn, buffer)
            return
        self._owner[tid] = owner
        self._placed_gsn[tid] = gsn
        routed: dict[str, Any] = {
            "kind": "placed",
            "time": float(decision.time),
            "id": tid,
            "size": self._machine.hierarchy.subtree_size(node),
            "node": int(self._plan.to_local(NodeId(node), owner)),
            "work": self._work.get(tid, 1.0),
            "gsn": gsn,
        }
        if drain:
            routed["drain"] = True
        buffer.per_shard.setdefault(owner, []).append(routed)

    def _route_outcome(
        self,
        raw: Mapping[str, Any],
        outcome: AdmissionOutcome,
        buffer: _RouteBuffer,
    ) -> None:
        gsn = self._gsn
        self._gsn += 1
        if isinstance(outcome, Admit):
            decision = outcome.decision
            assert decision is not None
            if decision.kind == "arrival":
                tid = int(decision.task_id)  # type: ignore[arg-type]
                self._work[tid] = float(
                    outcome.record.get("work", 1.0)
                )
                self._place(tid, decision, gsn, raw, buffer, drain=False)
            else:
                self._route_departure(raw, decision, gsn, buffer)
        else:
            # Queue / Reject / Cancel: no kernel placement — the raw wire
            # record's durable home is the coordinator journal, and replay
            # re-offers it to reach the same outcome.
            tid = int(outcome.task_id)  # type: ignore[union-attr]
            if not isinstance(outcome, Cancel):
                self._work[tid] = float(raw.get("work", 1.0))
            self._journal_event(raw, gsn, buffer)
            if isinstance(outcome, Cancel):
                self._work.pop(tid, None)
        for drained in getattr(outcome, "drained", ()) or ():
            did = int(drained.task_id)
            self._place(did, drained, gsn, None, buffer, drain=True)

    def _journal_event(
        self, raw: Mapping[str, Any], gsn: int, buffer: _RouteBuffer
    ) -> None:
        buffer.coord_events.append(dict(raw, gsn=gsn))

    def _dispatch(self, buffer: _RouteBuffer) -> None:
        if buffer.coord_events:
            if self._cjournal is not None and not self._replaying:
                self._cjournal.record_many(
                    (self._cjseq + i, {"record": rec})
                    for i, rec in enumerate(buffer.coord_events)
                )
            self._cjseq += len(buffer.coord_events)
        if self._replaying:
            return
        for shard, records in buffer.per_shard.items():
            try:
                self._shards[shard].submit(records)
            except ShardError:
                raise
            except OSError as exc:
                raise ShardError(
                    f"shard {shard} is unreachable: {exc}"
                ) from exc

    # -- Resume reconciliation ----------------------------------------------

    def _reconcile_shards(self) -> None:
        """Anti-entropy after replay: re-forward drain placements a shard
        lost while their triggering event survived the crash."""
        expected: dict[int, dict[int, int]] = {
            i: {} for i in range(self._plan.num_shards)
        }
        global_placements = self._session.placements
        for tid, owner in self._owner.items():
            if owner != COORDINATOR_OWNED:
                node = global_placements[tid]  # type: ignore[index]
                expected[owner][tid] = int(self._plan.to_local(node, owner))
        tasks = self._session.active_tasks
        for handle in self._shards:
            exp = expected[handle.index]
            actual = handle.placements()
            extra = sorted(set(actual) - set(exp))
            if extra:
                raise CheckpointError(
                    f"shard {handle.index} journal holds task(s) {extra} "
                    "that the reconciled history never placed there"
                )
            for tid in sorted(set(exp) & set(actual)):
                if exp[tid] != actual[tid]:
                    raise CheckpointError(
                        f"shard {handle.index} holds task {tid} at node "
                        f"{actual[tid]}, reconciled history says {exp[tid]}"
                    )
            missing = sorted(
                set(exp) - set(actual),
                key=lambda tid: (self._placed_gsn[tid], tid),
            )
            records = []
            for tid in missing:
                task = tasks[tid]  # type: ignore[index]
                records.append(
                    {
                        "kind": "placed",
                        "time": float(task.arrival),
                        "id": tid,
                        "size": int(task.size),
                        "node": exp[tid],
                        "work": float(task.work),
                        "gsn": self._placed_gsn[tid],
                        "drain": True,
                    }
                )
            if records:
                handle.submit(records)
                handle.flush()

    # -- Dashboards ----------------------------------------------------------

    @property
    def overloaded(self) -> bool:
        """Backpressure: any shard (or the coordinator journal) past the
        SLO policy's record watermarks, with the same hysteresis as the
        single-process session.  Always False outside SLO mode."""
        if self._slo_policy is None:
            return False
        policy = self._slo_policy
        backlog = max(
            (handle.backlog() for handle in self._shards),
            default=0,
        )
        if self._cjournal is not None:
            backlog = max(backlog, self._cjournal.pending)
        if self._overloaded:
            if backlog <= policy.low_watermark:
                self._overloaded = False
        elif backlog >= policy.high_watermark:
            self._overloaded = True
        return self._overloaded

    def status(self) -> dict[str, Any]:
        """Aggregate + per-shard dashboards (one JSON-safe dict)."""
        aggregate = self._session.status()
        aggregate["gsn"] = self._gsn
        aggregate["shards"] = self._plan.num_shards
        aggregate["cross_shard_tasks"] = sum(
            1 for owner in self._owner.values() if owner == COORDINATOR_OWNED
        )
        aggregate["journal_pending"] = (
            0 if self._cjournal is None else self._cjournal.pending
        )
        if self._slo_policy is not None and "slo" in aggregate:
            aggregate["slo"]["overloaded"] = self.overloaded
        return {
            "aggregate": aggregate,
            "shards": [handle.status() for handle in self._shards],
        }

    def metrics(self) -> dict[str, Any]:
        """The scrape-shaped view: status plus an events/sec gauge.

        The rate is measured between successive calls (a Prometheus
        scraper's natural delta); the first call reports 0.
        """
        now = _time.monotonic()
        offers = self._session.num_offers
        mark_time, mark_offers = self._rate_mark
        self._rate_mark = (now, offers)
        elapsed = now - mark_time
        rate = (offers - mark_offers) / elapsed if elapsed > 0 else 0.0
        out = self.status()
        out["aggregate"]["events_per_second"] = rate
        return out

    def snapshot(self) -> dict[str, Any]:
        """The coordinator session's (= global) kernel snapshot."""
        return self._session.snapshot()

    # -- Lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Commit the coordinator journal and every shard's."""
        if self._cjournal is not None:
            self._cjournal.commit()
        for handle in self._shards:
            handle.flush()

    def close(self) -> None:
        errors: list[str] = []
        for handle in self._shards:
            try:
                handle.close()
            except Exception as exc:  # noqa: BLE001 — close them all
                errors.append(f"shard {handle.index}: {exc}")
        if self._cjournal is not None:
            self._cjournal.close()
            self._cjournal = None
        self._session.close()
        if errors:
            raise ShardError("; ".join(errors))

    def __enter__(self) -> "ShardedCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def cluster_journal_paths(
    journal_dir: Union[str, Path, None], num_shards: int
) -> tuple[Optional[Path], list[Optional[Path]]]:
    """(coordinator journal, per-shard journals) under ``journal_dir``."""
    if journal_dir is None:
        return None, [None] * num_shards
    base = Path(journal_dir)
    return (
        base / "coordinator.journal",
        [base / f"shard-{i}.journal" for i in range(num_shards)],
    )
