"""Run the benchmark over seeds 1-10 and summarise each metric.

    python3 bench/collect.py --trace-seed 1 --out bench/results/baseline.json

Runs `bench/run.py` once per (seed, workload), one process at a time and
for BENCHMARK.json's run_seconds, cycling through the workloads for each
seed so that slow drift of the machine is spread over all of them. For
every end-to-end metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread,
(q3 - q1) / median, and flags a spread above a third of the metric's
bound. It does the same for the uncalibrated wall-time latency and
throughput each run prints, and keeps each run's total time. With
`--trace-seed` it adds one traced run per workload for the per-layer
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
UNCALIBRATED = "uncalibrated "


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(result line, uncalibrated figures, total seconds) of one run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    total = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    plain = {}
    for line in lines:
        if line.startswith(UNCALIBRATED):
            plain = json.loads(line[len(UNCALIBRATED):])
    return json.loads(lines[-1]), plain, total


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def report(title: str, metrics: dict, bounds: dict) -> float:
    """Print each metric's summary; return its largest spread over a third
    of its bound."""
    print(title)
    worst = 0.0
    for name, m in metrics.items():
        third = bounds[name] / 3
        worst = max(worst, m["spread"] / third)
        flag = f"  spread above a third of the bound {bounds[name]}" if m["spread"] > third else ""
        print(f"  {name:<22} median {m['median']:<12.5g} q1 {m['q1']:<12.5g} q3 {m['q3']:<12.5g} "
              f"spread {m['spread']:.4f}{flag}")
    return worst


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload with this seed")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    plain: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    totals: dict[str, list[float]] = {w: [] for w in workloads}
    failures = {w: 0 for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            result, wall, total = run_once(w, seed, seconds, 0)
            failures[w] += result["failed"]
            totals[w].append(total)
            for name, m in result["metrics"].items():
                raw[w].setdefault(name, []).append(m["value"])
            for name, value in wall.items():
                plain[w].setdefault(name, []).append(value)
            print(f"seed {seed} {w} ({total:.1f} s): "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    summary = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {cpu_model()}, {os.cpu_count()} cpus",
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    worst = 0.0
    for w in workloads:
        metrics = {name: summarise(vals) for name, vals in raw[w].items()}
        wall = {name: summarise(vals) for name, vals in plain[w].items()}
        summary["workloads"][w] = {
            "failed": failures[w],
            "end_to_end": metrics,
            "uncalibrated": wall,
            "run_total_s": totals[w],
        }
        print()
        worst = max(worst, report(f"{w} (failed operations: {failures[w]}, longest run {max(totals[w]):.1f} s)",
                                  metrics, bounds))
        report(f"{w}, uncalibrated wall time", wall, bounds)
    print(f"\nlargest spread as a share of a third of its bound: {worst:.3f}")

    if args.trace_seed is not None:
        for w in workloads:
            result, _, _ = run_once(w, args.trace_seed, seconds, 1)
            summary["workloads"][w]["trace_seed"] = args.trace_seed
            summary["workloads"][w]["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            summary["workloads"][w]["failed"] += result["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
