"""Length-prefixed binary frames: the journal and shard wire format.

One codec serves both places a record crosses a trust boundary — the
durable journal (:class:`~repro.sim.checkpoint.CheckpointJournal`) and the coordinator/worker socketpair
(:mod:`repro.service.shard.worker`) — so bytes encoded once by the
coordinator can be framed into a worker's journal without re-encoding.

Frame layout (all integers little-endian)::

    magic   := b"RJF2\\x00"          (journal files only, once, at offset 0)
    frame   := header payload
    header  := u32 payload_length | u8 kind | u32 crc32(payload)

Torn-tail detection is structural: a file (or stream) that ends inside a
header or payload, or whose payload fails its CRC, is cut at the last
good frame boundary — no parse heuristics.  The CRC also catches bit
rot in the middle of a frame.  :func:`decode_journal` is the one place
journal frames are decoded back into records.

Frame kinds are split into two id spaces so a journal frame can never be
misread as a wire message:

====================  ====  =====================================================
journal               id    payload
====================  ====  =====================================================
``FRAME_HEADER``      1     JSON header dict (kind/version/fingerprint/workload)
``FRAME_PICKLE``      3     pickle ``(index, payload)``
``FRAME_BATCH``       4     i64 first_index + columnar record batch (below)
``FRAME_ATTACH``      5     pickle ``(index, extra)`` — merged into the payload
                            journaled at ``index`` (snapshot/delta riders)
wire                  id    payload
====================  ====  =====================================================
``MSG_JSON``          10    JSON object (control ops, acks)
``MSG_PICKLE``        11    pickle object (status/snapshot/placement replies)
``MSG_ROUTED``        12    columnar record batch, no index (an ``apply``)
====================  ====  =====================================================

Columnar record batches are the structure-of-arrays encoding of the two
hot record schemas — one frame per ``push_batch`` / ``push_routed_batch``
instead of one dict per event.  Each column is a packed
:mod:`array`-module byte string (u8 kinds/flags, f64 times/works, i64
ids/sizes/nodes/gsns); the envelope is a pickled tuple of those byte
strings.  Only records matching the exact hot schema are eligible —
``encode_*`` returns ``None`` for anything else and the caller falls back
to per-record frames, so the columnar path never has to approximate a
record it cannot represent exactly.
"""

from __future__ import annotations

import json
import pickle
import struct
import zlib
from array import array
from typing import Any, Iterator, Mapping, Optional, Sequence

__all__ = [
    "FRAME_HEADER",
    "FRAME_PICKLE",
    "FRAME_BATCH",
    "FRAME_ATTACH",
    "MSG_JSON",
    "MSG_PICKLE",
    "MSG_ROUTED",
    "JOURNAL_MAGIC",
    "FrameError",
    "frame_bytes",
    "read_frame",
    "scan_frames",
    "RoutedColumns",
    "encode_wire_columns",
    "encode_wire_records",
    "encode_routed_records",
    "routed_columns_from_records",
    "decode_record_batch",
    "decode_routed_columns",
    "JournalDecoder",
    "decode_journal",
    "iter_journal_payloads",
]

JOURNAL_MAGIC = b"RJF2\x00"

FRAME_HEADER = 1
FRAME_PICKLE = 3
FRAME_BATCH = 4
FRAME_ATTACH = 5

MSG_JSON = 10
MSG_PICKLE = 11
MSG_ROUTED = 12

_HDR = struct.Struct("<IBI")
_I64 = struct.Struct("<q")
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class FrameError(Exception):
    """A frame could not be read: torn tail, bad CRC, or short header.

    ``reason`` is a short human-readable tag (``"truncated header"``,
    ``"torn payload"``, ``"crc mismatch"``) used in truncation warnings.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def frame_bytes(kind: int, payload: bytes) -> bytes:
    """One encoded frame: 9-byte header + payload."""
    return _HDR.pack(len(payload), kind, zlib.crc32(payload)) + payload


def read_frame(stream: Any) -> Optional[tuple[int, bytes]]:
    """Read one frame from a blocking binary stream.

    Returns ``None`` on clean EOF (zero bytes where a header would
    start); raises :class:`FrameError` if the stream ends mid-frame or
    the payload fails its CRC.
    """
    head = stream.read(_HDR.size)
    if not head:
        return None
    if len(head) < _HDR.size:
        raise FrameError("truncated header")
    length, kind, crc = _HDR.unpack(head)
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise FrameError("torn payload")
    if zlib.crc32(payload) != crc:
        raise FrameError("crc mismatch")
    return kind, payload


def scan_frames(
    data: bytes, offset: int = 0
) -> tuple[list[tuple[int, bytes, int]], int, Optional[str]]:
    """Parse ``data[offset:]`` into frames, stopping at the first bad one.

    Returns ``(frames, good_end, bad_reason)``: each frame is
    ``(kind, payload, start_offset)`` so recovery can truncate *before* a
    frame whose payload later fails to decode; ``good_end`` is the byte
    offset just past the last intact frame and ``bad_reason`` is ``None``
    when the buffer ended exactly on a frame boundary.
    """
    frames: list[tuple[int, bytes, int]] = []
    n = len(data)
    pos = offset
    while pos < n:
        if n - pos < _HDR.size:
            return frames, pos, "truncated header"
        length, kind, crc = _HDR.unpack_from(data, pos)
        body_start = pos + _HDR.size
        body_end = body_start + length
        if body_end > n:
            return frames, pos, "torn payload"
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            return frames, pos, "crc mismatch"
        frames.append((kind, payload, pos))
        pos = body_end
    return frames, pos, None


# -- Columnar record batches -------------------------------------------------
#
# Layout "W" (wire records, ``push_batch``):
#   arrival   {kind, time, id, size, work}
#   departure {kind, time, id}
# Layout "R" (coordinator-routed records, ``push_routed_batch``):
#   placed    {kind, time, id, size, node, work, gsn} (+ optional drain=True)
#   departure {kind, time, id, gsn}
#
# kind codes within a batch: 0 = arrival/placed, 1 = departure.


def _pack_batch(layout: bytes, count: int, cols: tuple[bytes, ...]) -> bytes:
    return pickle.dumps((layout, count, cols), protocol=_PICKLE_PROTO)


def encode_wire_columns(
    kinds: bytearray,
    times: Sequence[float],
    ids: Sequence[int],
    sizes: Sequence[int],
    works: Sequence[float],
) -> bytes:
    """Pack already-columnar wire records (the zero-dict hot path)."""
    return _pack_batch(
        b"W",
        len(kinds),
        (
            bytes(kinds),
            array("d", times).tobytes(),
            array("q", ids).tobytes(),
            array("q", sizes).tobytes(),
            array("d", works).tobytes(),
        ),
    )


def encode_wire_records(
    records: Sequence[Mapping[str, Any]]
) -> Optional[bytes]:
    """Columnar-encode plain arrival/departure wire records.

    ``None`` when any record deviates from the exact hot schema (extra
    keys, missing fields, non-scalar types) — the caller must fall back
    to per-record encoding.
    """
    kinds = bytearray()
    times: list[float] = []
    ids: list[int] = []
    sizes: list[int] = []
    works: list[float] = []
    for r in records:
        kind = r.get("kind")
        t = r.get("time")
        i = r.get("id")
        if type(t) is not float or type(i) is not int:
            return None
        if kind == "arrival":
            s = r.get("size")
            w = r.get("work")
            if len(r) != 5 or type(s) is not int or type(w) is not float:
                return None
            kinds.append(0)
            sizes.append(s)
            works.append(w)
        elif kind == "departure":
            if len(r) != 3:
                return None
            kinds.append(1)
            sizes.append(0)
            works.append(0.0)
        else:
            return None
        times.append(t)
        ids.append(i)
    return encode_wire_columns(kinds, times, ids, sizes, works)


class RoutedColumns:
    """Decoded structure-of-arrays view of one routed record batch.

    ``blob`` retains the encoded payload (when the batch arrived encoded)
    so a worker can frame the same bytes into its journal without
    re-encoding.
    """

    __slots__ = (
        "n", "kinds", "times", "ids", "sizes", "nodes", "works", "gsns",
        "drains", "blob",
    )

    def __init__(
        self,
        kinds: Sequence[int],
        times: Sequence[float],
        ids: Sequence[int],
        sizes: Sequence[int],
        nodes: Sequence[int],
        works: Sequence[float],
        gsns: Sequence[int],
        drains: Sequence[int],
        blob: Optional[bytes] = None,
    ) -> None:
        self.n = len(kinds)
        self.kinds = kinds
        self.times = times
        self.ids = ids
        self.sizes = sizes
        self.nodes = nodes
        self.works = works
        self.gsns = gsns
        self.drains = drains
        self.blob = blob

    def encoded(self) -> bytes:
        if self.blob is None:
            self.blob = _pack_batch(
                b"R",
                self.n,
                (
                    bytes(bytearray(self.kinds)),
                    array("d", self.times).tobytes(),
                    array("q", self.ids).tobytes(),
                    array("q", self.sizes).tobytes(),
                    array("q", self.nodes).tobytes(),
                    array("d", self.works).tobytes(),
                    array("q", self.gsns).tobytes(),
                    bytes(bytearray(self.drains)),
                ),
            )
        return self.blob

    def record_at(self, i: int) -> dict[str, Any]:
        if self.kinds[i] == 0:
            rec: dict[str, Any] = {
                "kind": "placed",
                "time": self.times[i],
                "id": self.ids[i],
                "size": self.sizes[i],
                "node": self.nodes[i],
                "work": self.works[i],
                "gsn": self.gsns[i],
            }
            if self.drains[i]:
                rec["drain"] = True
            return rec
        return {
            "kind": "departure",
            "time": self.times[i],
            "id": self.ids[i],
            "gsn": self.gsns[i],
        }

    def records(self) -> list[dict[str, Any]]:
        return [self.record_at(i) for i in range(self.n)]

    def sliced(self, count: int) -> "RoutedColumns":
        """The first ``count`` records as fresh columns (prefix commit)."""
        return RoutedColumns(
            self.kinds[:count], self.times[:count], self.ids[:count],
            self.sizes[:count], self.nodes[:count], self.works[:count],
            self.gsns[:count], self.drains[:count],
        )


def routed_columns_from_records(
    records: Sequence[Mapping[str, Any]]
) -> Optional[RoutedColumns]:
    """Columnar view of routed records; ``None`` off the hot schema."""
    kinds = bytearray()
    times: list[float] = []
    ids: list[int] = []
    sizes: list[int] = []
    nodes: list[int] = []
    works: list[float] = []
    gsns: list[int] = []
    drains = bytearray()
    for r in records:
        kind = r.get("kind")
        t = r.get("time")
        i = r.get("id")
        g = r.get("gsn")
        if type(t) is not float or type(i) is not int or type(g) is not int:
            return None
        if kind == "placed":
            s = r.get("size")
            nd = r.get("node")
            w = r.get("work")
            drain = r.get("drain", False)
            if (
                len(r) != (8 if drain is True else 7)
                or type(s) is not int
                or type(nd) is not int
                or type(w) is not float
                or (drain is not False and drain is not True)
            ):
                return None
            kinds.append(0)
            sizes.append(s)
            nodes.append(nd)
            works.append(w)
            drains.append(1 if drain else 0)
        elif kind == "departure":
            if len(r) != 4:
                return None
            kinds.append(1)
            sizes.append(0)
            nodes.append(0)
            works.append(0.0)
            drains.append(0)
        else:
            return None
        times.append(t)
        ids.append(i)
        gsns.append(g)
    return RoutedColumns(kinds, times, ids, sizes, nodes, works, gsns, drains)


def encode_routed_records(
    records: Sequence[Mapping[str, Any]]
) -> Optional[bytes]:
    cols = routed_columns_from_records(records)
    return None if cols is None else cols.encoded()


def _unpack_batch(blob: bytes) -> tuple[bytes, int, tuple[bytes, ...]]:
    layout, count, cols = pickle.loads(blob)
    return layout, count, cols


def decode_routed_columns(blob: bytes) -> Optional[RoutedColumns]:
    """Decode a columnar batch into :class:`RoutedColumns` (layout R).

    ``None`` covers *any* malformed blob, not just a wrong layout — the
    worker maps it to a protocol error instead of crashing its loop.
    """
    try:
        layout, count, cols = _unpack_batch(blob)
        if layout != b"R":
            return None
        (kinds_b, times_b, ids_b, sizes_b,
         nodes_b, works_b, gsns_b, drains_b) = cols
    except Exception:
        return None
    times = array("d")
    times.frombytes(times_b)
    ids = array("q")
    ids.frombytes(ids_b)
    sizes = array("q")
    sizes.frombytes(sizes_b)
    nodes = array("q")
    nodes.frombytes(nodes_b)
    works = array("d")
    works.frombytes(works_b)
    gsns = array("q")
    gsns.frombytes(gsns_b)
    return RoutedColumns(
        kinds_b, times.tolist(), ids.tolist(), sizes.tolist(),
        nodes.tolist(), works.tolist(), gsns.tolist(), drains_b, blob,
    )


def decode_record_batch(blob: bytes) -> list[dict[str, Any]]:
    """Materialize a columnar batch back into per-record dicts.

    The dicts are key-for-key identical to the records that were encoded,
    so a resume replays exactly what the per-event path would have
    journaled.
    """
    layout, count, cols = _unpack_batch(blob)
    if layout == b"R":
        routed = decode_routed_columns(blob)
        assert routed is not None
        return routed.records()
    if layout != b"W":
        raise FrameError(f"unknown batch layout {layout!r}")
    kinds_b, times_b, ids_b, sizes_b, works_b = cols
    times = array("d")
    times.frombytes(times_b)
    ids = array("q")
    ids.frombytes(ids_b)
    sizes = array("q")
    sizes.frombytes(sizes_b)
    works = array("d")
    works.frombytes(works_b)
    out: list[dict[str, Any]] = []
    for i in range(count):
        if kinds_b[i] == 0:
            out.append(
                {
                    "kind": "arrival",
                    "time": times[i],
                    "id": ids[i],
                    "size": sizes[i],
                    "work": works[i],
                }
            )
        else:
            out.append({"kind": "departure", "time": times[i], "id": ids[i]})
    return out


# -- Journal decoding ---------------------------------------------------------


class JournalDecoder:
    """Decode a journal file (magic included) front to back.

    Iterating yields one ``(kind, start, end, index, value)`` tuple per
    frame in file order: ``start``/``end`` bound the whole frame in the
    file, ``index`` is the record index (a batch's first index, -1 for
    the header) and ``value`` the decoded payload (header dict, record
    payload, a batch's record list, or attach extras).  It stops at the
    first frame that is torn, fails its CRC, or whose payload does not
    decode: an unknown kind, a record before the header, or an attach
    without its record.  Nothing past that frame is yielded.  Once
    iteration ends, ``payloads`` maps record index to payload with
    ``FRAME_ATTACH`` extras merged in (a duplicated index keeps its last
    value and its first-seen position), ``good_end`` is the byte offset
    where the intact prefix ends and ``bad_reason`` says why decoding
    stopped there (``None`` when the file ended on a frame boundary).
    ``header`` stays ``None`` when the file lacks the magic or does not
    open with a readable header frame.

    Frames are yielded rather than collected so a caller that needs only
    the payloads (a journal reopen) keeps no per-frame objects alive.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.header: Optional[dict] = None
        self.payloads: dict[int, Any] = {}
        self.good_end = 0
        self.bad_reason: Optional[str] = "no journal magic"

    def __iter__(self) -> Iterator[tuple[int, int, int, int, Any]]:
        if not self.data.startswith(JOURNAL_MAGIC):
            return
        raw, self.good_end, self.bad_reason = scan_frames(
            self.data, len(JOURNAL_MAGIC)
        )
        payloads = self.payloads
        for kind, payload, start in raw:
            try:
                if kind == FRAME_HEADER:
                    index, value = -1, None
                    if self.header is None:
                        value = json.loads(payload)
                        if type(value) is not dict:
                            raise FrameError("header is not a JSON object")
                        self.header = value
                elif self.header is None:
                    raise FrameError(f"frame kind {kind} before the header")
                elif kind == FRAME_PICKLE:
                    index, value = pickle.loads(payload)
                    index = int(index)
                    payloads[index] = value
                elif kind == FRAME_BATCH:
                    (index,) = _I64.unpack_from(payload)
                    value = decode_record_batch(payload[_I64.size:])
                    for i, rec in enumerate(value):
                        payloads[index + i] = {"record": rec}
                elif kind == FRAME_ATTACH:
                    index, value = pickle.loads(payload)
                    index = int(index)
                    base = payloads.get(index)
                    if not isinstance(base, dict):
                        raise FrameError(f"attach without its record {index}")
                    base.update(value)
                else:
                    raise FrameError(f"unknown frame kind {kind}")
            except Exception as exc:
                self.good_end = start
                self.bad_reason = f"frame payload: {type(exc).__name__}: {exc}"
                return
            yield kind, start, start + _HDR.size + len(payload), index, value


def decode_journal(data: bytes) -> JournalDecoder:
    """Decode a whole journal file; see :class:`JournalDecoder`."""
    decoder = JournalDecoder(data)
    for _frame in decoder:
        pass
    return decoder


def iter_journal_payloads(path: Any) -> list[tuple[int, Any]]:
    """``(index, payload)`` pairs of a journal file, in first-seen order.

    Tolerates a corrupt tail the way the journal does (everything before
    the first bad frame); an unreadable file, or one that is not a framed
    journal, yields ``[]``.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return []
    return list(decode_journal(data).payloads.items())
