"""Repository benchmark: one workload per invocation.

Run from the checkout root::

    python3 perfbench/run.py --workload ingest-long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py``): ``serve-lines``, ``ingest-long``,
``admit-flash`` and ``paper-sweep``.  The run repeats the workload's unit of
work for ``--seconds`` seconds, checks the outputs,
prints a human-readable report and, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

End-to-end timings are corrected for the shared host's changing speed by a
fixed probe interleaved with the work (``perfbench/pace.py``); the report
also prints the probe's readings.

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the first half of the time runs untraced, the second half with every layer
wrapped (``perfbench/tracer.py``), and the metrics are the per-layer ones,
including the tracing overhead.  A run whose outputs are wrong prints
``"correct": false`` and exits 1.  Results, the host fingerprint and the
last traced repetition's spans are saved under ``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("serve-lines", "ingest-long", "admit-flash", "paper-sweep")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="work per repetition; 'tiny' is for the smoke check")
    return parser.parse_args(argv)


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest /proc/mounts match)."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def host_fingerprint(workdir: Path) -> dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "journal_fs": _filesystem(workdir),
    }


def _run_reps(workload: Any, seconds: float, tracer: Any, pace: Any,
              reps: list[Any]) -> None:
    """Append repetitions to ``reps`` for at most about ``seconds``.

    The first repetition always runs; a later one starts only if one as long
    as the last still ends before the deadline.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        t0 = clock()
        reps.append(workload.rep(tracer, pace))
        now = clock()
        if now + (now - t0) > deadline:
            return


def _median_layers(traced: list[Any]) -> dict[str, float]:
    from perfbench.spec import per_layer

    rows = [per_layer(rep.layers, rep.extras) for rep in traced]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _report(metrics: dict[str, float], units: dict[str, str],
            aliases: dict[str, str]) -> None:
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]}{alias}")


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after the other."""
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        worst = max(worst, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return worst


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.pace import REFERENCE_PROBE_S, Pace
    from perfbench.spec import END_TO_END, ALIASES, PER_LAYER, end_to_end
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, CheckFailed

    def _terminate(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    tracer = None
    pace = Pace()
    untraced: list[Any] = []
    traced: list[Any] = []
    correct, problem = True, ""
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir, ROOT)
        workload.prepare()
        pace.start()
        _run_reps(workload, args.seconds / (2 if args.trace else 1), None, pace, untraced)
        pace.stop()
        if args.trace:
            tracer = Tracer()
            tracer.install()
            # No timer here: its probes would land inside layer spans, so
            # traced reps are corrected only by the probes at their ends.
            _run_reps(workload, args.seconds / 2, tracer, Pace(), traced)
            tracer.uninstall()
        workload.check(untraced + traced)
    except CheckFailed as exc:
        correct, problem = False, str(exc)
    finally:
        pace.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    reps = untraced + traced
    if not untraced or (args.trace and not traced):
        print(f"CHECK FAILED: {problem}")
        return 1

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    e2e = end_to_end(untraced)
    print(f"workload {args.workload}  seed {args.seed}  reps {len(reps)}  "
          f"trace {args.trace}")
    fingerprint = host_fingerprint(base)
    print("host " + " ".join(f"{k}={v}" for k, v in fingerprint.items()))
    readings = pace.readings
    speed = {"probes": len(readings), "reference_ms": 1e3 * REFERENCE_PROBE_S,
             "median_ms": 1e3 * statistics.median(readings),
             "min_ms": 1e3 * min(readings), "max_ms": 1e3 * max(readings)}
    print("host speed probe: " + " ".join(f"{k}={v:.4g}" for k, v in speed.items()))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    riders = {k: sum(rep.extras.get(k, 0) for rep in reps)
              for k in ("dequeued_riders", "overloaded_riders")}
    if any(riders.values()):
        print("reply riders: " + " ".join(f"{k}={v}" for k, v in riders.items()))
    samples = sum(len(rep.latencies_s) for rep in untraced)
    raw_wall = statistics.median(rep.raw_wall_s for rep in untraced)
    print(f"end-to-end, host-speed corrected (latency samples: {samples}; median "
          f"uncorrected wall time of the timed window {raw_wall:.4f} s):")
    aliases = ALIASES[args.workload]
    _report(e2e, {k: v[0] for k, v in END_TO_END.items()}, aliases)
    result: dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "host": fingerprint,
                              "speed_probe": speed,
                              "reps": len(reps), "end_to_end": e2e,
                              "aliases": aliases, "attempted": attempted,
                              "failed": failed, "correct": correct,
                              "rep_values": [end_to_end([rep]) for rep in reps]}
    if args.trace:
        layers = _median_layers(traced)
        walls = [statistics.median(rep.wall_s for rep in group)
                 for group in (untraced, traced)]
        layers["trace.overhead_s"] = walls[1] - walls[0]
        layers["trace.overhead_share"] = (walls[1] - walls[0]) / walls[0]
        layers = {name: float(layers[name]) for name in PER_LAYER}
        print(f"per layer (median of {len(traced)} traced reps; untraced "
              f"{walls[0]:.4f} s, traced {walls[1]:.4f} s):")
        _report(layers, {k: v[0] for k, v in PER_LAYER.items()}, {})
        result["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}
    if not correct:
        print(f"CHECK FAILED: {problem}")
    results = base / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    if tracer is not None:
        tracer.write_spans(results / f"{stem}.spans.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
