"""Journaled checkpoint/resume for long-running cell bags.

A :class:`CheckpointJournal` is an append-only file that records the
result of every completed cell of a sweep (or any other bag of independent
work items).  When the coordinating process dies — SIGKILL, OOM, a pulled
plug — the journal survives, and the next run replays completed cells from
it instead of recomputing them.  Because the executors in
:mod:`repro.sim.parallel` spawn every cell's RNG stream *before* dispatch,
a resumed run produces **bit-identical** final results to an uninterrupted
one: the journal only short-circuits work, never changes it.

The on-disk format is a sequence of binary frames
(:mod:`repro.sim.frames`)::

    b"RJF2\\x00"
    [u32 len | u8 kind | u32 crc32] header-JSON       (FRAME_HEADER)
    [u32 len | u8 kind | u32 crc32] i64 first + cols  (FRAME_BATCH)
    [u32 len | u8 kind | u32 crc32] pickle(idx, val)  (FRAME_PICKLE)
    ...

A torn tail is detected *structurally* — a frame whose length prefix
runs past EOF or whose payload fails its CRC — and whole batches
group-commit as single columnar frames.  A file that does not start with
the frame magic (a JSONL journal from an older build, or any other file)
is refused, never truncated or misread.

* The **header** pins a fingerprint of the workload (callable identity,
  cell parameters, seed streams).  Resuming against a different workload
  is a hard :class:`~repro.errors.CheckpointError` — silently mixing
  results from two different sweeps would be far worse than recomputing.
* Each **record** is one completed cell.  Durability is governed by the
  **fsync policy**: ``always`` (the default) writes every record with
  ``flush`` + ``fsync``, so a crash loses at most the record being
  written; ``batch`` buffers records in user space until an explicit
  :meth:`~CheckpointJournal.commit` (or a :meth:`record_many` group
  commit, or close), trading a bounded loss window — everything since
  the last commit — for one ``fsync`` per batch instead of per record;
  ``interval:<ms>`` buffers and syncs whenever at least that much wall
  time has passed since the last sync.
* A **corrupt tail** (whatever partial write a crash leaves behind) is
  detected on open, reported with a warning, and truncated away; every
  record before it is kept.

The journal is a private working file, not an interchange format — the
schema version exists so a build refuses a journal it cannot read
exactly, instead of misreading it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CheckpointError
from repro.sim import frames as _frames

__all__ = ["CheckpointJournal", "workload_fingerprint"]

#: Header version of the framed journal; bump on incompatible changes.
JOURNAL_VERSION = 2

_HEADER_KIND = "repro-checkpoint"
_I64 = struct.Struct("<q")
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


def _parse_fsync_policy(spec: str) -> tuple[str, float]:
    """``'always' | 'batch' | 'interval:<ms>'`` -> (mode, interval seconds)."""
    if spec in ("always", "batch"):
        return spec, 0.0
    if spec.startswith("interval:"):
        try:
            ms = float(spec.split(":", 1)[1])
        except ValueError:
            ms = -1.0
        if ms <= 0:
            raise CheckpointError(
                f"bad fsync interval in {spec!r}; expected a positive "
                "millisecond count, e.g. 'interval:50'"
            )
        return "interval", ms / 1000.0
    raise CheckpointError(
        f"unknown fsync policy {spec!r}; expected 'always', 'batch', "
        "or 'interval:<ms>'"
    )


def workload_fingerprint(
    fn: Callable[..., Any],
    cells: Sequence[Mapping[str, Any]],
    streams: Sequence[Any] = (),
) -> dict:
    """Fingerprint a seeded cell bag: callable + parameters + entropy.

    Used by :func:`repro.sim.parallel.run_seeded_cells` so a journal
    written for one sweep cannot be replayed into a different one.  The
    stream component covers ``(entropy, spawn_key)`` of every per-cell
    :class:`numpy.random.SeedSequence`, which pins the exact randomness
    each cell would consume.
    """
    cell_digest = hashlib.sha256()
    for params in cells:
        cell_digest.update(
            json.dumps(
                {k: repr(v) for k, v in sorted(params.items())}, sort_keys=True
            ).encode()
        )
    stream_digest = hashlib.sha256()
    for stream in streams:
        stream_digest.update(
            repr((getattr(stream, "entropy", None), getattr(stream, "spawn_key", ()))).encode()
        )
    return {
        "kind": "seeded-cells",
        "fn": f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}",
        "num_cells": len(cells),
        "cells_sha256": cell_digest.hexdigest(),
        "streams_sha256": stream_digest.hexdigest(),
    }


def _fingerprint_digest(fingerprint: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True, default=repr).encode()
    ).hexdigest()


class CheckpointJournal:
    """Append-only journal of ``(cell index, result)`` records.

    ``fsync_policy`` governs the durability/throughput trade (module
    docstring): ``always`` syncs per record, ``batch`` syncs on
    :meth:`commit` / :meth:`record_many` / :meth:`close`, and
    ``interval:<ms>`` syncs whenever that much wall time has elapsed
    since the last sync.
    """

    def __init__(
        self,
        path,
        *,
        fingerprint: Mapping[str, Any],
        fsync_policy: str = "always",
    ):
        self.path = Path(path)
        self._policy, self._interval_s = _parse_fsync_policy(fsync_policy)
        self.fsync_policy = fsync_policy
        self._pending = 0
        self._pending_bytes = 0
        self._last_sync = time.monotonic()
        self._digest = _fingerprint_digest(fingerprint)
        self._fingerprint = dict(fingerprint)
        # What the file held at open; records written since live only in
        # the file (a journal must not keep a RAM copy of its history).
        self._completed: dict[int, Any] = {}
        self._max_index = -1
        self._fh = None
        if self.path.exists():
            self._load_existing()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "kind": _HEADER_KIND,
                "version": JOURNAL_VERSION,
                "fingerprint": self._digest,
                "workload": self._fingerprint,
            }
            self._fh = open(self.path, "ab")
            self._fh.write(
                _frames.JOURNAL_MAGIC
                + _frames.frame_bytes(
                    _frames.FRAME_HEADER,
                    json.dumps(header, sort_keys=True, default=repr).encode("utf-8"),
                )
            )
            self._sync()

    # -- Opening / recovery -------------------------------------------------

    def _load_existing(self) -> None:
        decoded = _frames.decode_journal(self.path.read_bytes())
        if decoded.header is None:
            raise CheckpointError(
                f"checkpoint {self.path} contains no readable header "
                f"({decoded.bad_reason}): it is not a framed journal "
                "(JSONL journals from older builds are no longer read); "
                "delete it or move it aside"
            )
        self._check_header(decoded.header)
        self._completed = decoded.payloads
        if decoded.bad_reason is not None:
            warnings.warn(
                f"checkpoint {self.path}: truncating corrupt tail "
                f"(byte {decoded.good_end}: {decoded.bad_reason}); "
                f"{len(self._completed)} completed cell(s) retained",
                stacklevel=3,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(decoded.good_end)
        if self._completed:
            self._max_index = max(self._completed)
        self._fh = open(self.path, "ab")

    def _check_header(self, header: dict) -> None:
        if (
            header.get("kind") != _HEADER_KIND
            or header.get("version") != JOURNAL_VERSION
        ):
            raise CheckpointError(
                f"checkpoint {self.path} has kind={header.get('kind')!r} "
                f"version={header.get('version')!r}; this build expects "
                f"{_HEADER_KIND!r} v{JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != self._digest:
            raise CheckpointError(
                f"checkpoint {self.path} was written for a different workload "
                f"(fingerprint {header.get('fingerprint')!r} != {self._digest!r}); "
                "delete it or point --resume at the matching run"
            )

    # -- Recording ----------------------------------------------------------

    def _sync(self) -> None:
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0
        self._pending_bytes = 0
        self._last_sync = time.monotonic()

    def _maybe_interval_sync(self) -> None:
        if time.monotonic() - self._last_sync >= self._interval_s:
            self._sync()

    @property
    def pending(self) -> int:
        """Records written but not yet flushed + fsynced (the loss window)."""
        return self._pending

    @property
    def pending_bytes(self) -> int:
        """Bytes written but not yet flushed + fsynced.

        The byte-denominated loss window — the backpressure watermarks in
        :class:`repro.service.slo.SLOPolicy` trip on either this or
        :attr:`pending`, whichever crosses first.
        """
        return self._pending_bytes

    def commit(self) -> None:
        """Make every buffered record durable now (no-op when none pending)."""
        if self._fh is not None and self._pending:
            self._sync()

    def _append(self, blob: bytes, count: int, group: bool) -> None:
        """Write ``count`` framed records and apply the fsync policy: a
        single record syncs under ``always``, a group under ``always`` and
        ``batch``; ``interval`` syncs once its time has elapsed."""
        assert self._fh is not None
        self._fh.write(blob)
        self._pending += count
        self._pending_bytes += len(blob)
        if self._policy == "interval":
            self._maybe_interval_sync()
        elif group or self._policy == "always":
            self._sync()

    def record(self, index: int, value: Any) -> None:
        """Journal one completed cell.

        Durable before return under the ``always`` policy; under ``batch``
        the record stays in the user-space buffer until :meth:`commit`,
        and under ``interval:<ms>`` until the interval elapses.
        """
        if self._fh is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        self._max_index = max(self._max_index, int(index))
        self._append(_pickle_frame(int(index), value), 1, group=False)

    def record_many(self, items: Iterable[tuple[int, Any]]) -> None:
        """Group-commit a batch of cells: one write, one flush, one fsync.

        Under ``always`` and ``batch`` the whole batch (plus anything
        already pending) is durable before return — this is *the*
        group-commit primitive, amortising the per-record ``fsync`` that
        dominates journaled stream ingest.  Under ``interval:<ms>`` the
        batch is buffered and synced only when the interval has elapsed.
        """
        if self._fh is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        items = list(items)
        if not items:
            return
        blob = _frame_items(items)
        self._max_index = max(self._max_index, items[-1][0])
        self._append(blob, len(items), group=True)

    def record_batch_blob(
        self,
        first_index: int,
        count: int,
        blob: bytes,
        extras: Sequence[tuple[int, Mapping[str, Any]]] = (),
    ) -> None:
        """Group-commit ``count`` records already encoded as one columnar
        batch blob (:mod:`repro.sim.frames` layout W or R) at indices
        ``first_index .. first_index + count - 1``.

        This is the zero-copy fast path: the session (or a shard worker
        relaying coordinator bytes) frames the blob directly, never
        materializing per-record dicts.  ``extras`` are
        ``(index, extra_dict)`` riders — snapshots, deltas — merged into
        the payload at ``index`` on load.

        Same durability contract as :meth:`record_many`.
        """
        if self._fh is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        self._max_index = max(self._max_index, first_index + count - 1)
        self._append(
            _batch_frames(first_index, blob, extras), count, group=True
        )

    def completed(self) -> dict[int, Any]:
        """Cell index -> result for every cell the file held at open.

        Read once from disk (minus anything :meth:`drop_tail` discarded);
        records written through this handle are not kept in memory and
        show up on the next open.
        """
        return dict(self._completed)

    def drop_tail(self, first_index: int) -> None:
        """Physically discard every record with index >= ``first_index``.

        Distributed crash recovery: when several journals share one
        logical history (the sharded service), the coordinator reconciles
        a common durable prefix and truncates each journal to it — a later
        resume must never replay records past the cutoff.  The file is
        rewritten atomically (temp file + rename, fsync'd) keeping the
        header and every record below the cutoff; a no-op when nothing
        lies at or past it.
        """
        if self._fh is None:
            raise CheckpointError(f"checkpoint {self.path} is closed")
        if self._max_index < first_index:
            return
        self.commit()
        self._fh.close()
        self._fh = None
        data = self.path.read_bytes()
        out = bytearray(_frames.JOURNAL_MAGIC)
        for kind, start, end, index, value in _frames.JournalDecoder(data):
            count = len(value) if kind == _frames.FRAME_BATCH else 1
            if index + count <= first_index:
                out += data[start:end]
            elif index < first_index:
                # The cutoff splits this batch: keep the prefix as
                # per-record frames (re-encoding a partial batch buys
                # nothing at truncation frequency).
                for i, rec in enumerate(value[: first_index - index]):
                    out += _pickle_frame(index + i, {"record": rec})
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(out)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._completed = {
            index: value
            for index, value in self._completed.items()
            if index < first_index
        }
        self._max_index = min(self._max_index, first_index - 1)
        self._fh = open(self.path, "ab")
        self._pending = 0
        self._pending_bytes = 0

    def close(self) -> None:
        """Commit anything pending, then close the file handle."""
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _frame_items(items: list[tuple[int, Any]]) -> bytes:
    """Frame a group: contiguous ``{"record": ...}`` runs on the hot
    wire/routed schema become one columnar ``FRAME_BATCH`` (other payload
    keys ride as ``FRAME_ATTACH``); everything else is framed per record."""
    out = bytearray()
    i = 0
    n = len(items)
    while i < n:
        run: list[Any] = []
        attaches: list[tuple[int, dict]] = []
        first = items[i][0]
        j = i
        while j < n:
            index, payload = items[j]
            if (
                index != first + len(run)
                or type(payload) is not dict
                or "record" not in payload
            ):
                break
            run.append(payload["record"])
            if len(payload) > 1:
                extra = {k: v for k, v in payload.items() if k != "record"}
                attaches.append((index, extra))
            j += 1
        blob = None
        if len(run) > 1:
            blob = _frames.encode_wire_records(run)
            if blob is None:
                blob = _frames.encode_routed_records(run)
        if blob is not None:
            out += _batch_frames(first, blob, attaches)
            i = j
        else:
            out += _pickle_frame(int(items[i][0]), items[i][1])
            i += 1
    return bytes(out)


def _pickle_frame(index: int, value: Any) -> bytes:
    return _frames.frame_bytes(
        _frames.FRAME_PICKLE, pickle.dumps((index, value), protocol=_PICKLE_PROTO)
    )


def _batch_frames(
    first_index: int,
    blob: bytes,
    extras: Iterable[tuple[int, Mapping[str, Any]]],
) -> bytes:
    """One ``FRAME_BATCH`` plus a ``FRAME_ATTACH`` per extras rider."""
    out = bytearray(
        _frames.frame_bytes(_frames.FRAME_BATCH, _I64.pack(first_index) + blob)
    )
    for index, extra in extras:
        out += _frames.frame_bytes(
            _frames.FRAME_ATTACH,
            pickle.dumps((int(index), dict(extra)), protocol=_PICKLE_PROTO),
        )
    return bytes(out)
