"""Metric definitions: what the benchmark reports and how it is computed.

End-to-end metrics are reported by every workload, from the untraced run;
their timings are corrected for the host's changing speed
(``perfbench/pace.py``).
The workload-specific names they stand for (``ack_eps`` on
``serve-lines``, ``sim_eps`` on ``paper-sweep``, ...) are printed next to
them.  Per-layer metrics come from the traced run; each carries the
end-to-end metric and workload it is predicted to move.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Optional

#: name -> (unit, better, bound, meaning)
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "construction of the server and its session, of the session, "
                "or of the simulator (median of the set-ups in a run)"),
    "throughput_eps": ("ev/s", "higher", 0.25,
                       "events completed / time from first send or push to the "
                       "closing commit point (status reply, close(), last cell)"),
    "tail_eps": ("ev/s", "higher", 0.25,
                 "events per second over the last tenth of the stream"),
    "p50_ms": ("ms", "lower", 0.25,
               "median latency of one operation over all repetitions: request "
               "line to reply, one push_batch call, or one simulated event"),
    "p99_ms": ("ms", "lower", 0.25, "99th percentile of the same latencies"),
    "state_bytes_per_event": ("B/ev", "lower", 0.1,
                              "journal bytes per event; paper-sweep: pickled final "
                              "kernel snapshot bytes per event"),
    "resume_s": ("s", "lower", 0.25,
                 "reopen the written journal in a fresh session; paper-sweep: "
                 "restore each cell's final kernel snapshot"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "resident-set high-water mark of the benchmark process"),
}

#: Workload-specific names of the end-to-end metrics.
ALIASES: dict[str, dict[str, str]] = {
    "serve-lines": {"throughput_eps": "ack_eps", "p50_ms": "ack_p50_ms",
                      "p99_ms": "ack_p99_ms",
                      "state_bytes_per_event": "journal_bytes_per_event"},
    "ingest-long": {"throughput_eps": "ingest_eps", "tail_eps": "ingest_tail_eps",
                    "state_bytes_per_event": "journal_bytes_per_event"},
    "admit-flash": {"throughput_eps": "ingest_eps",
                    "state_bytes_per_event": "journal_bytes_per_event"},
    "paper-sweep": {"throughput_eps": "sim_eps"},
}

_SNAPSHOT_PRED = ("ingest_tail_eps, journal_bytes_per_event, resume_s, "
                  "peak_rss_mb on ingest-long")
_ADMIT_PRED = "ingest_eps on admit-flash"
_REALLOC_PRED = "sim_eps, peak_rss_mb on paper-sweep; about zero on greedy workloads"
SWEEP_CELLS = ("d0", "d1", "d4", "greedy")
SLO_METHODS = ("enqueue", "pop", "cancel", "reject")

#: name -> (unit, better, prediction)
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "sim.checkpoint.fsync_s": ("s", "lower",
                               "barely anything: one fsync per batch on ingest-long, "
                               "one per commit point on serve-lines and admit-flash"),
    "sim.checkpoint.fsync_calls": ("count", "lower", "as sim.checkpoint.fsync_s"),
    "sim.checkpoint.record_s": ("s", "lower",
                                "ack_eps, ack_p50_ms on serve-lines (one record per line)"),
    "service.stream.parse_s": ("s", "lower", "ack_p50_ms on serve-lines only"),
    "service.stream.encode_s": ("s", "lower", "ack_p50_ms on serve-lines only"),
    "service.shard.server.handle_s": ("s", "lower", "ack_p50_ms on serve-lines only"),
    "service.shard.server.transport_s": ("s", "lower",
                                         "ack_p50_ms on serve-lines only (timed "
                                         "window minus the line handler's spans)"),
    "service.session.push_s": ("s", "lower", "ack metrics on serve-lines"),
    "kernel.apply_s": ("s", "lower",
                       "ack metrics on serve-lines, sim_eps on paper-sweep"),
    "core.on_arrival_s": ("s", "lower",
                          "ack metrics on serve-lines, sim_eps on paper-sweep"),
    "sim.engine.step_s": ("s", "lower", "sim_eps on paper-sweep"),
    "service.session.push_batch_s": ("s", "lower", "ingest_eps on ingest-long"),
    "kernel.apply_batch_s": ("s", "lower",
                             "ingest_eps on ingest-long; bypassed on serve-lines "
                             "and admit-flash"),
    "kernel.columnar.try_apply_batch_s": ("s", "lower", "ingest_eps on ingest-long"),
    "kernel.columnar.hit_ratio": ("ratio", "higher", "ingest_eps on ingest-long"),
    "service.session.offer_s": ("s", "lower", _ADMIT_PRED),
    "kernel.min_submachine_load_s": ("s", "lower", _ADMIT_PRED),
    "kernel.min_submachine_load_calls": ("count", "lower", _ADMIT_PRED),
    "service.slo.admitted": ("count", "higher", _ADMIT_PRED),
    "service.slo.queued": ("count", "lower", _ADMIT_PRED),
    "service.slo.drained": ("count", "higher", _ADMIT_PRED),
    "service.slo.rejected": ("count", "lower", _ADMIT_PRED),
    "service.slo.cancelled": ("count", "lower", _ADMIT_PRED),
    "service.slo.admit_ratio": ("ratio", "higher", _ADMIT_PRED),
    "trace.uncovered_share": ("ratio", "lower",
                              "share of traced wall time no layer span covers"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced time of one repetition"),
    "trace.overhead_share": ("ratio", "lower", "trace.overhead_s over the untraced time"),
}
for _method in SLO_METHODS:
    PER_LAYER[f"service.slo.{_method}_s"] = ("s", "lower", _ADMIT_PRED)
    PER_LAYER[f"service.slo.{_method}_calls"] = ("count", "lower", _ADMIT_PRED)
#: Snapshot / journal-batch metrics, each also per first and last tenth.
SNAPSHOT_METRICS: dict[str, tuple[str, str]] = {
    "kernel.snapshot_s": ("s", "kernel.snapshot"),
    "kernel.snapshot_calls": ("count", "kernel.snapshot"),
    "sim.checkpoint.record_batch_s": ("s", "sim.checkpoint.record_batch"),
    "sim.checkpoint.commit_s": ("s", "sim.checkpoint.commit"),
    "sim.checkpoint.bytes": ("B", "sim.checkpoint.bytes"),
}
for _name, (_unit, _) in SNAPSHOT_METRICS.items():
    for _suffix in ("", ".first_tenth", ".last_tenth"):
        PER_LAYER[_name + _suffix] = (_unit, "lower", _SNAPSHOT_PRED)
#: Reallocation metrics, over the whole run and per sweep cell.
REALLOC_METRICS: dict[str, tuple[str, Optional[str]]] = {
    "core.maybe_reallocate_s": ("s", "core.maybe_reallocate"),
    "core.repack_s": ("s", "core.repack"),
    "core.repack_calls": ("count", "core.repack"),
    "machines.loads.rebuild_from_s": ("s", "machines.loads.rebuild_from"),
    "kernel.realloc.migrations": ("count", None),
    "sim.metrics.observe_s": ("s", "sim.metrics.observe"),
}
for _name, (_unit, _) in REALLOC_METRICS.items():
    for _suffix in ("",) + tuple("." + c for c in SWEEP_CELLS):
        PER_LAYER[_name + _suffix] = (_unit, "lower", _REALLOC_PRED)


# -- End-to-end ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def tail_eps(streams: list[list[tuple[int, float]]]) -> float:
    """Events per second over the last tenth of each stream.

    Each stream is a (events done, seconds) progress trace; the tails of
    several streams (the cells of a sweep) are pooled.
    """
    events = seconds = 0.0
    for progress in streams:
        total, t_end = progress[-1]
        threshold = total - total // 10
        done_at, t_at = 0, 0.0
        for done, t in progress:
            if done > threshold:
                break
            done_at, t_at = done, t
        events += total - done_at
        seconds += t_end - t_at
    return events / seconds


def end_to_end(reps: list[Any]) -> dict[str, float]:
    """Each metric per repetition, then the median over the repetitions;
    the latency percentiles are taken over the samples of all repetitions."""
    med = statistics.median
    latencies = [x for rep in reps for x in rep.latencies_s]
    return {
        "setup_s": med(rep.setup_s for rep in reps),
        "throughput_eps": med(rep.events / rep.wall_s for rep in reps),
        "tail_eps": med(tail_eps(rep.progress) for rep in reps),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p99_ms": 1e3 * percentile(latencies, 99),
        "state_bytes_per_event": med(rep.state_bytes / rep.events for rep in reps),
        "resume_s": med(rep.resume_s for rep in reps),
        "peak_rss_mb": med(rep.rss_mb for rep in reps),
    }


# -- Per layer -----------------------------------------------------------------


def _sum(layers: dict[str, Any], key: str, name: str, tag: Optional[str]) -> float:
    by_tag = layers[key].get(name, {})
    return float(sum(by_tag.values()) if tag is None else by_tag.get(tag, 0))


def per_layer(layers: dict[str, Any], extras: dict[str, Any]) -> dict[str, float]:
    """Per-layer values of one traced repetition (overhead filled in later)."""

    def self_s(name: str, tag: Optional[str] = None) -> float:
        return _sum(layers, "self", name, tag)

    def calls(name: str, tag: Optional[str] = None) -> float:
        return _sum(layers, "calls", name, tag)

    def counter(name: str, tag: Optional[str] = None) -> float:
        return _sum(layers, "counters", name, tag)

    out: dict[str, float] = {
        "sim.checkpoint.fsync_s": self_s("sim.checkpoint.fsync"),
        "sim.checkpoint.fsync_calls": calls("sim.checkpoint.fsync"),
        "sim.checkpoint.record_s": self_s("sim.checkpoint.record"),
        "service.stream.parse_s": self_s("service.stream.parse"),
        "service.stream.encode_s": self_s("service.stream.encode"),
        "service.shard.server.handle_s": self_s("service.shard.server.handle"),
        "service.shard.server.transport_s": float(layers.get("transport_s", 0.0)),
        "service.session.push_s": self_s("service.session.push"),
        "kernel.apply_s": self_s("kernel.apply"),
        "core.on_arrival_s": self_s("core.on_arrival"),
        "sim.engine.step_s": self_s("sim.engine.step"),
        "service.session.push_batch_s": self_s("service.session.push_batch"),
        "kernel.apply_batch_s": self_s("kernel.apply_batch"),
        "kernel.columnar.try_apply_batch_s": self_s("kernel.columnar.try_apply_batch"),
        "service.session.offer_s": self_s("service.session.offer"),
        "kernel.min_submachine_load_s": self_s("kernel.min_submachine_load"),
        "kernel.min_submachine_load_calls": calls("kernel.min_submachine_load"),
    }
    offered = counter("kernel.columnar.offered")
    out["kernel.columnar.hit_ratio"] = (
        counter("kernel.columnar.accepted") / offered if offered else 0.0)
    for method in SLO_METHODS:
        out[f"service.slo.{method}_s"] = self_s(f"service.slo.{method}")
        out[f"service.slo.{method}_calls"] = calls(f"service.slo.{method}")
    slo = extras.get("slo") or {}
    admitted = slo.get("admitted_total", 0)
    drained = slo.get("drained_total", 0)
    queued = slo.get("queued_total", 0)
    rejected = slo.get("rejected_total", 0)
    offered_arrivals = admitted - drained + queued + rejected
    out.update({
        "service.slo.admitted": admitted,
        "service.slo.queued": queued,
        "service.slo.drained": drained,
        "service.slo.rejected": rejected,
        "service.slo.cancelled": slo.get("canceled_total", 0),
        "service.slo.admit_ratio": admitted / offered_arrivals if offered_arrivals else 0.0,
    })
    for metric, (unit, span) in SNAPSHOT_METRICS.items():
        get = counter if unit == "B" else (calls if unit == "count" else self_s)
        for suffix, tag in (("", None), (".first_tenth", "first"), (".last_tenth", "last")):
            out[metric + suffix] = get(span, tag)
    migrations = extras.get("migrations", {})
    for metric, (unit, span) in REALLOC_METRICS.items():
        for suffix, tag in (("", None),) + tuple(("." + c, c) for c in SWEEP_CELLS):
            if span is None:
                value = sum(migrations.values()) if tag is None else migrations.get(tag, 0)
            else:
                value = (calls if unit == "count" else self_s)(span, tag)
            out[metric + suffix] = float(value)
    out["trace.uncovered_share"] = (
        max(0.0, layers["window_s"] - layers["top_s"]) / layers["window_s"])
    return out
