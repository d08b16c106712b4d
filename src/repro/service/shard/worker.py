"""Process shard workers: one OS process per subtree, binary frames.

This is the throughput configuration of the sharded service: the
per-event work that dominates a durable single-process session — journal
serialisation and ``fsync`` — runs in ``K`` worker processes while the
coordinator's global descent stays cheap and unjournaled.  Each worker
wraps exactly the same external-placement
:class:`~repro.service.session.AllocationSession` a
:class:`~repro.service.shard.coordinator.LocalShard` holds; only the
transport differs, so the two configurations are interchangeable
semantically (the verify referee exploits this).

Protocol — length-prefixed CRC'd frames (:mod:`repro.sim.frames`) over
an inherited socketpair, strictly FIFO in both directions:

* ``MSG_ROUTED`` — a columnar routed batch (the hot path): the *same*
  encoding the journal uses, so the worker decodes the columns once
  and frames the identical bytes into its journal without re-encoding
  (:meth:`AllocationSession.push_routed_columns`).  Acked with
  ``{"ok": "apply"}`` once applied and journaled (group commit).  The
  parent pipelines up to :data:`MAX_INFLIGHT` unacknowledged applies —
  the windowed-ack pipelining that overlaps coordinator routing with
  worker fsync.
* ``MSG_PICKLE`` op dicts — ``{"op": "apply", "records": [...]}`` for
  batches off the hot schema, and ``{"op": "flush" | "status" |
  "snapshot" | "placements" | "close"}`` control ops with synchronous
  tagged replies.  Because frames are answered in order, the parent
  simply drains apply-acks until the matching tag appears.
* Replies are ``MSG_JSON`` acks (``{"ok": ...}`` / ``{"err": ...}``) or
  ``MSG_PICKLE`` data payloads (kernel snapshots with tuple keys,
  ``NodeId`` maps — pickled whole, so replies compare bit-identically
  against in-process workers).
* Worker-side failures answer ``{"err": message}``; the parent raises
  :class:`~repro.errors.ShardError`.  EOF, a torn frame or a reset
  socket (the worker died — SIGKILL, OOM) raises the same, and the journals on disk remain
  the source of truth: reopening the cluster reconciles the durable
  prefix.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import socket
import sys
import traceback
from collections import deque
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.base import AllocationAlgorithm
from repro.errors import ReproError, ShardError
from repro.machines.base import PartitionableMachine
from repro.machines.factory import machine_descriptor, machine_from_descriptor
from repro.service.shard.coordinator import (
    ShardedCoordinator,
    cluster_journal_paths,
    reconcile_journals,
)
from repro.service.shard.plan import ShardPlan
from repro.service.slo import SLOPolicy
from repro.sim.frames import (
    MSG_JSON,
    MSG_PICKLE,
    MSG_ROUTED,
    FrameError,
    decode_routed_columns,
    encode_routed_records,
    frame_bytes,
    read_frame,
)

__all__ = ["MAX_INFLIGHT", "ProcessShard", "create_process_cluster"]

#: Unacknowledged apply frames the parent keeps in flight per worker.
MAX_INFLIGHT = 32


def _worker_main(
    conn: socket.socket,
    parent_conn: socket.socket,
    index: int,
    descriptor: Mapping[str, Any],
    journal_path: Optional[str],
    fsync_policy: str,
    snapshot_interval: int,
    cutoff: int,
) -> None:
    """Worker process entry: serve frames until ``close`` or EOF."""
    from repro.service.session import AllocationSession

    # Drop the fork-inherited copy of the coordinator's side of the
    # socketpair.  Holding it would make this worker its own hostage: if
    # the coordinator dies without sending ``close``, the peer endpoint
    # would never fully close and the read loop below would never see
    # EOF — the worker (and anything capturing its stdio) would leak
    # forever.  With it closed, coordinator death unwinds every worker
    # through plain EOF propagation.
    parent_conn.close()
    reader = conn.makefile("rb")
    writer = conn.makefile("wb")

    def reply(payload: dict[str, Any]) -> None:
        writer.write(frame_bytes(MSG_JSON, json.dumps(payload).encode("ascii")))
        writer.flush()

    def reply_data(tag: str, data: Any) -> None:
        blob = pickle.dumps(
            {"ok": tag, "data": data}, protocol=pickle.HIGHEST_PROTOCOL
        )
        writer.write(frame_bytes(MSG_PICKLE, blob))
        writer.flush()

    session = None
    try:
        session = AllocationSession(
            machine_from_descriptor(descriptor),
            None,
            journal_path=journal_path,
            fsync_policy=fsync_policy,
            snapshot_interval=snapshot_interval,
            replay_stop=(
                (lambda record: int(record.get("gsn", 0)) > cutoff)
                if journal_path is not None
                else None
            ),
        )
        while True:
            try:
                msg = read_frame(reader)
            except FrameError:
                break  # coordinator died mid-frame: unwind like EOF
            if msg is None:
                break
            kind, payload = msg
            if kind == MSG_ROUTED:
                # Hot path: decode the columns once; the session journals
                # the identical encoded bytes (zero re-encode).
                try:
                    cols = decode_routed_columns(payload)
                    if cols is None:
                        raise ShardError("malformed routed batch frame")
                    session.push_routed_columns(cols)
                    reply({"ok": "apply"})
                except ReproError as exc:
                    reply({"err": f"{type(exc).__name__}: {exc}"})
                continue
            frame = (
                json.loads(payload) if kind == MSG_JSON else pickle.loads(payload)
            )
            op = frame.get("op")
            try:
                if op == "apply":
                    session.push_routed_batch(
                        frame["records"], want_decisions=False
                    )
                    reply({"ok": "apply"})
                elif op == "flush":
                    session.flush()
                    reply({"ok": "flush"})
                elif op == "status":
                    reply_data("status", {"shard": index, **session.status()})
                elif op == "snapshot":
                    reply_data("snapshot", session.snapshot())
                elif op == "placements":
                    reply_data(
                        "placements",
                        {
                            int(tid): int(node)
                            for tid, node in session.placements.items()
                        },
                    )
                elif op == "close":
                    session.close()
                    session = None
                    reply({"ok": "close"})
                    break
                else:
                    reply({"err": f"unknown frame op {op!r}"})
            except ReproError as exc:
                reply({"err": f"{type(exc).__name__}: {exc}"})
    except Exception:  # noqa: BLE001 — last-resort: surface, then die
        traceback.print_exc(file=sys.stderr)
        raise
    finally:
        if session is not None:
            session.close()
        try:
            writer.close()
            reader.close()
            conn.close()
        except OSError:
            pass


class ProcessShard:
    """Parent-side handle to one worker process (a ``ShardHandle``)."""

    def __init__(
        self,
        index: int,
        machine: PartitionableMachine,
        journal_path: Union[str, Path, None] = None,
        *,
        fsync_policy: str = "always",
        snapshot_interval: int = 1024,
        cutoff: int = -1,
        max_inflight: int = MAX_INFLIGHT,
    ) -> None:
        self.index = index
        self._max_inflight = max(1, int(max_inflight))
        self._inflight: deque[int] = deque()  # record counts of unacked applies
        parent_sock, child_sock = socket.socketpair()
        ctx = multiprocessing.get_context("fork")
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                child_sock,
                parent_sock,
                index,
                machine_descriptor(machine),
                None if journal_path is None else str(journal_path),
                fsync_policy,
                snapshot_interval,
                cutoff,
            ),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self.process.start()
        child_sock.close()
        self._sock = parent_sock
        self._reader = parent_sock.makefile("rb")
        self._writer = parent_sock.makefile("wb")
        self._closed = False

    # -- Frame plumbing ------------------------------------------------------

    def _send_frame(self, kind: int, payload: bytes) -> None:
        try:
            self._writer.write(frame_bytes(kind, payload))
            self._writer.flush()
        except (OSError, ValueError) as exc:
            raise ShardError(
                f"shard {self.index} worker (pid {self.process.pid}) is "
                f"gone: {exc}"
            ) from exc

    def _send(self, frame: Mapping[str, Any]) -> None:
        self._send_frame(
            MSG_PICKLE,
            pickle.dumps(dict(frame), protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _read_reply(self) -> dict[str, Any]:
        try:
            msg = read_frame(self._reader)
        except (FrameError, OSError):
            # The worker died mid-frame or reset the socket: same as EOF.
            msg = None
        if msg is None:
            raise ShardError(
                f"shard {self.index} worker (pid {self.process.pid}) died "
                "mid-conversation; reopen the cluster from its journal "
                "directory to resume from the durable prefix"
            )
        kind, body = msg
        payload = json.loads(body) if kind == MSG_JSON else pickle.loads(body)
        if "err" in payload:
            raise ShardError(f"shard {self.index}: {payload['err']}")
        return payload

    def _await_tag(self, tag: str) -> dict[str, Any]:
        """Drain in-order apply acks until the reply tagged ``tag``."""
        while True:
            payload = self._read_reply()
            if payload.get("ok") == "apply":
                if self._inflight:
                    self._inflight.popleft()
                continue
            if payload.get("ok") != tag:
                raise ShardError(
                    f"shard {self.index}: expected {tag!r} reply, got "
                    f"{payload!r}"
                )
            return payload

    # -- ShardHandle ---------------------------------------------------------

    def submit(self, records: Sequence[Mapping[str, Any]]) -> None:
        blob = encode_routed_records(records)
        if blob is not None:
            self._send_frame(MSG_ROUTED, blob)
        else:
            self._send({"op": "apply", "records": [dict(r) for r in records]})
        self._inflight.append(len(records))
        while len(self._inflight) >= self._max_inflight:
            payload = self._read_reply()
            if payload.get("ok") != "apply":
                raise ShardError(
                    f"shard {self.index}: expected apply ack, got {payload!r}"
                )
            self._inflight.popleft()

    def flush(self) -> None:
        self._send({"op": "flush"})
        self._await_tag("flush")

    def backlog(self) -> int:
        return sum(self._inflight)

    def status(self) -> dict[str, Any]:
        self._send({"op": "status"})
        return self._await_tag("status")["data"]

    def snapshot(self) -> dict[str, Any]:
        self._send({"op": "snapshot"})
        return self._await_tag("snapshot")["data"]

    def placements(self) -> dict[int, int]:
        self._send({"op": "placements"})
        return self._await_tag("placements")["data"]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._send({"op": "close"})
            self._await_tag("close")
        except ShardError:
            pass  # already dead; the journal is the source of truth
        finally:
            try:
                self._writer.close()
                self._reader.close()
                self._sock.close()
            except OSError:
                pass
            self.process.join(timeout=10)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=10)


def create_process_cluster(
    machine: PartitionableMachine,
    algorithm: AllocationAlgorithm,
    *,
    num_shards: int,
    journal_dir: Union[str, Path, None] = None,
    fsync_policy: str = "always",
    snapshot_interval: int = 1024,
    slo: Optional[SLOPolicy] = None,
    batch_backend: str = "numpy",
    max_inflight: int = MAX_INFLIGHT,
) -> ShardedCoordinator:
    """A coordinator over ``num_shards`` worker *processes*.

    Mirrors :meth:`ShardedCoordinator.create_local` — same plan, same
    journal layout, same resume reconciliation — with
    :class:`ProcessShard` handles in place of in-process sessions.  The
    parent reconciles the journal directory *before* spawning workers
    (each worker then truncates its own journal past the cutoff during
    session replay).
    """
    plan = ShardPlan(machine.num_pes, num_shards)
    coord_path, shard_paths = cluster_journal_paths(journal_dir, num_shards)
    cutoff, events = (-1, [])
    if journal_dir is not None:
        Path(journal_dir).mkdir(parents=True, exist_ok=True)
        cutoff, events = reconcile_journals([coord_path, *shard_paths])
    shards = [
        ProcessShard(
            i,
            plan.shard_machine(machine),
            shard_paths[i],
            fsync_policy=fsync_policy,
            snapshot_interval=snapshot_interval,
            cutoff=cutoff,
            max_inflight=max_inflight,
        )
        for i in range(num_shards)
    ]
    try:
        return ShardedCoordinator(
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
    except BaseException:
        for handle in shards:
            try:
                handle.close()
            except Exception:  # noqa: BLE001 — construction already failing
                pass
        raise
