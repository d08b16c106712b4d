"""Smoke check of the benchmark itself, at tiny size.

Run from the checkout root::

    python3 perfbench/smoke.py

For every workload, in both the untraced and the traced mode, it runs
``perfbench/run.py --size tiny`` and checks that the last output line is
the result object and that it carries every metric ``BENCHMARK.json``
names, each with its unit and a finite value (end-to-end values also
non-zero).  It also checks that ``BENCHMARK.json`` matches
``perfbench/spec.py`` and that the benchmark fails, without a result, in
a directory that holds no program sources.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.spec import END_TO_END, PER_LAYER

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != {k: v[0] for k, v in END_TO_END.items()}:
        problems.append("BENCHMARK.json end_to_end differs from perfbench/spec.py")
    if declared[1] != {k: v[0] for k, v in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from perfbench/spec.py")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from perfbench/run.py")
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != set(declared[trace]):
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(declared[trace]))}")
            for name, entry in metrics.items():
                value = entry.get("value")
                if entry.get("unit") != declared[trace].get(name):
                    problems.append(f"{label}: {name} unit {entry.get('unit')!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} value {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {name} is {value}")
            print(f"ok  {label}: {len(metrics)} metrics")
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(bare), "ingest-long", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without sources did not fail cleanly")
        else:
            print("ok  no sources: exit", proc.returncode)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
