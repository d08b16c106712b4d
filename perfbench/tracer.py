"""In-memory span tracer that wraps the repo's layer functions from outside.

The benchmark measures layers without touching ``src/``: :meth:`Tracer.install`
replaces each layer entry point listed in :data:`LAYER_FUNCTIONS`
with a wrapper that records one span (name, start, end, parent, tag) per
call.  Spans live in flat arrays while a repetition runs; :meth:`Tracer.
take` folds them into per-name self times and counts, where a span's self
time is its duration minus the part its child spans cover.  Calls nest
strictly (every wrapped function is synchronous), so the children of a
span are exactly the spans whose parent it is.

The ``tag`` attached to each span is whatever phase the workload loop last set
(``first`` / ``last`` tenth of a stream, or a sweep cell), so one run can
report a layer's time per phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

#: (module, qualified attribute, span name).  Module-level functions are
#: also re-bound in every module that imported them by name.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.service.shard.server", "ServiceServer._serve_line",
     "service.shard.server.handle"),
    ("repro.service.stream", "parse_event_record", "service.stream.parse"),
    ("repro.service.stream", "decision_line", "service.stream.encode"),
    ("repro.service.stream", "admission_lines", "service.stream.encode"),
    ("repro.service.session", "AllocationSession.push", "service.session.push"),
    ("repro.service.session", "AllocationSession.push_batch",
     "service.session.push_batch"),
    ("repro.service.session", "AllocationSession.offer", "service.session.offer"),
    ("repro.service.slo", "AdmissionController.enqueue", "service.slo.enqueue"),
    ("repro.service.slo", "AdmissionController.pop", "service.slo.pop"),
    ("repro.service.slo", "AdmissionController.cancel", "service.slo.cancel"),
    ("repro.service.slo", "AdmissionController.reject", "service.slo.reject"),
    ("repro.kernel.core", "AllocationKernel.apply", "kernel.apply"),
    ("repro.kernel.core", "AllocationKernel.apply_batch", "kernel.apply_batch"),
    ("repro.kernel.core", "AllocationKernel.snapshot", "kernel.snapshot"),
    ("repro.kernel.core", "AllocationKernel.min_submachine_load",
     "kernel.min_submachine_load"),
    ("repro.kernel.columnar", "ColumnarEngine.try_apply_batch",
     "kernel.columnar.try_apply_batch"),
    ("repro.core.greedy", "GreedyAlgorithm.on_arrival", "core.on_arrival"),
    ("repro.core.basic", "BasicAlgorithm.on_arrival", "core.on_arrival"),
    ("repro.core.periodic", "PeriodicReallocationAlgorithm.on_arrival",
     "core.on_arrival"),
    ("repro.core.twochoice", "TwoChoiceAlgorithm.on_arrival", "core.on_arrival"),
    ("repro.core.base", "AllocationAlgorithm.maybe_reallocate",
     "core.maybe_reallocate"),
    ("repro.core.periodic", "PeriodicReallocationAlgorithm.maybe_reallocate",
     "core.maybe_reallocate"),
    ("repro.core.repack", "repack", "core.repack"),
    ("repro.machines.loads", "LoadTracker.rebuild_from",
     "machines.loads.rebuild_from"),
    ("repro.sim.checkpoint", "CheckpointJournal.record", "sim.checkpoint.record"),
    ("repro.sim.checkpoint", "CheckpointJournal.record_many",
     "sim.checkpoint.record_batch"),
    ("repro.sim.checkpoint", "CheckpointJournal.record_batch_blob",
     "sim.checkpoint.record_batch"),
    ("repro.sim.checkpoint", "CheckpointJournal.commit", "sim.checkpoint.commit"),
    # The one place the journal flushes and fsyncs.
    ("repro.sim.checkpoint", "CheckpointJournal._sync", "sim.checkpoint.fsync"),
    ("repro.sim.engine", "Simulator.run", "sim.engine.run"),
    ("repro.sim.engine", "Simulator.step", "sim.engine.step"),
    ("repro.sim.metrics", "MetricsCollector.observe", "sim.metrics.observe"),
)

#: Journal writers whose appended bytes are counted (``sim.checkpoint.bytes``).
_BYTE_COUNTED = frozenset({"record", "record_many", "record_batch_blob"})


class Tracer:
    """Flat-array span store plus per-tag counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = ["-"]
        self._tag_ids: dict[str, int] = {"-": 0}
        self.tag = 0
        self._stack: list[int] = []
        self._clear()
        self._patches: list[tuple[Any, str, Any]] = []
        self.last_spans: Optional[dict[str, Any]] = None

    def _clear(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("i")
        self.parents = array("i")
        self.span_tags = array("i")
        self.counters: dict[tuple[str, int], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def set_tag(self, tag: str) -> None:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        self.tag = tid

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(name, self.tag)] += value

    # -- Wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable[..., None]] = None) -> Callable:
        nid = self.name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.starts)
            tracer.span_names.append(nid)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.span_tags.append(tracer.tag)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            before = _journal_position(args) if after is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.starts[idx] = t0
                tracer.ends[idx] = t1
            if after is not None:
                after(tracer, args, result, before)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function in :data:`LAYER_FUNCTIONS` (idempotent)."""
        if self._patches:
            return
        # The server and CLI import stream helpers by name; load them first
        # so their aliases are re-bound too.
        for mod in ("repro.cli", "repro.service.shard.server"):
            importlib.import_module(mod)
        for module_name, qualname, span in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self.wrap(vars(cls)[attr], span, _after_hook(attr)))
                continue
            original = getattr(module, qualname)
            wrapped = self.wrap(original, span)
            for other in list(sys.modules.values()):
                if getattr(other, "__dict__", {}).get(qualname) is original:
                    self._patch(other, qualname, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- Aggregation -------------------------------------------------------------

    def take(self) -> dict[str, Any]:
        """Fold the spans recorded since the last call into per-name sums.

        Returns ``{"self": {name: {tag: s}}, "total": {...}, "calls": {...},
        "top_s": s, "counters": {name: {tag: v}}}``, where ``total`` is the
        time inside a name's spans, children included; ``top_s`` is the total time inside
        outermost spans (what the layers cover).  The raw spans are kept as
        :attr:`last_spans` so the final repetition can be written out.
        """
        n = len(self.starts)
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        names, parents = np.asarray(self.span_names), np.asarray(self.parents)
        tags = np.asarray(self.span_tags)
        dur = ends - starts
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        self_time = dur - covered
        out_self: dict[str, dict[str, float]] = defaultdict(dict)
        out_total: dict[str, dict[str, float]] = defaultdict(dict)
        out_calls: dict[str, dict[str, int]] = defaultdict(dict)
        for nid in np.unique(names):
            sel = names == nid
            for tid in np.unique(tags[sel]):
                both = sel & (tags == tid)
                out_self[self.names[nid]][self.tags[tid]] = float(self_time[both].sum())
                out_total[self.names[nid]][self.tags[tid]] = float(dur[both].sum())
                out_calls[self.names[nid]][self.tags[tid]] = int(both.sum())
        counters: dict[str, dict[str, float]] = defaultdict(dict)
        for (name, tid), value in self.counters.items():
            counters[name][self.tags[tid]] = value
        self.last_spans = {
            "names": list(self.names),
            "tags": list(self.tags),
            "name": names.tolist(),
            "tag": tags.tolist(),
            "parent": parents.tolist(),
            "start": starts.tolist(),
            "end": ends.tolist(),
        }
        result = {
            "self": dict(out_self),
            "total": dict(out_total),
            "calls": dict(out_calls),
            "top_s": float(dur[~has_parent].sum()),
            "counters": dict(counters),
        }
        self._clear()
        self._stack.clear()
        return result

    def write_spans(self, path: Path) -> None:
        """Write the last repetition's raw spans as one JSON document."""
        if self.last_spans is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.last_spans))


def _journal_position(args: tuple) -> Optional[int]:
    fh = getattr(args[0], "_fh", None) if args else None
    return fh.tell() if fh is not None else None


def _after_hook(attr: str) -> Optional[Callable[..., None]]:
    if attr in _BYTE_COUNTED:
        return _count_journal_bytes
    if attr == "try_apply_batch":
        return _count_columnar_hit
    return None


def _count_journal_bytes(tracer: Tracer, args: tuple, result: Any,
                         before: Optional[int]) -> None:
    after = _journal_position(args)
    if before is not None and after is not None:
        tracer.count("sim.checkpoint.bytes", after - before)


def _count_columnar_hit(tracer: Tracer, args: tuple, result: Any,
                        before: Any) -> None:
    tracer.count("kernel.columnar.offered")
    if result is not None:
        tracer.count("kernel.columnar.accepted")


def merge(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum several :meth:`Tracer.take` results (the cells of a sweep)."""
    out: dict[str, Any] = {"self": defaultdict(lambda: defaultdict(float)),
                           "total": defaultdict(lambda: defaultdict(float)),
                           "calls": defaultdict(lambda: defaultdict(int)),
                           "top_s": 0.0,
                           "counters": defaultdict(lambda: defaultdict(float))}
    for part in parts:
        out["top_s"] += part["top_s"]
        for key in ("self", "total", "calls", "counters"):
            for name, by_tag in part[key].items():
                for tag, value in by_tag.items():
                    out[key][name][tag] += value
    return out
