"""Measure a baseline: every workload over a range of seeds.

Run from the repository root::

    python3 perfbench/baseline.py --first 101 --last 110 --extra-seed 9001 \\
        --out perfbench/BASELINE.json

For each workload it runs ``run.py --trace 0`` once per seed and records
each end-to-end metric's median and quartiles (``statistics.quantiles``,
n=4) and its spread, the quartile distance over the median; then one
traced run and one run on ``--extra-seed``, a seed the baseline range does
not use. The environment (cores, Python, numpy) and the HTTP workload's
latency limit and reference rate are recorded alongside.
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

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    parser.add_argument("--extra-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: those in BENCHMARK.json")
    args = parser.parse_args()

    import numpy

    import speed
    import workload_http

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first, args.last + 1))
    listed = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else listed
    out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    out.update({
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "reference_kernel_s": speed.REFERENCE_KERNEL_S,
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "extra_seed": args.extra_seed,
        "http": {
            "reference_rate_per_s": workload_http.REFERENCE_RATE,
            "p99_limit_ms": workload_http.P99_LIMIT_MS,
            "connections": workload_http.CONNECTIONS,
        },
    })
    for workload in chosen:
        runs = []
        for seed in seeds:
            last = run_once(workload, seed, seconds, 0)
            runs.append(last)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            entry = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name] = entry
            print(f"  {name}: median {entry['median']:.5g} spread {entry['spread']:.4f}",
                  flush=True)
        extra = run_once(workload, args.extra_seed, seconds, 0)
        traced = run_once(workload, seeds[0], seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "extra_seed_run": {k: v["value"] for k, v in extra["metrics"].items()},
            "traced_run": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
