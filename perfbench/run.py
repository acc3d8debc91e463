"""Repo-wide benchmark of the FakeDetector reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload train_full_graph --seed 1 --seconds 30 --trace 0

Workloads (all on the default ``FakeDetectorConfig`` over the synthetic
corpus at scale 0.25, made from ``--seed``):

- ``train_full_graph``: full-batch ``FakeDetector.fit``, closed loop.
- ``session_predict``: a warm ``InferenceSession`` scoring unseen articles
  at batch 1, then at batch 64, closed loop.
- ``http_open_loop``: ``repro serve http --workers 1 --shards 1`` in its
  own process, driven open loop over a ladder of arrival rates. It is not
  in ``BENCHMARK.json``: on the shared 2-vCPU host its figures spread up to
  0.18-0.25 (quartile distance over median, ten runs), so it cannot gate a
  25% bound. The traced run of ``session_predict`` splits the HTTP path's
  layers instead; run it by name to see the path end to end.

Every workload reports the same end-to-end metrics:

==================  ==================  ==================  ====================
metric              train_full_graph    session_predict     http_open_loop
==================  ==================  ==================  ====================
setup_s             fit wall - steps    load + session      spawn to healthz ok
peak_rss_mb         this process        this process        service + worker
success_ratio       1 - failed / attempted operations; a failed check is a failure
latency_ms          step p50            batch-1 call p50,   request p10 at the
                                        reference speed     reference rate, from
                                                            its due time
throughput_per_s    nodes per p50 step  articles per s at   2 connections back
                                        the batch-64 call   to back over their
                                        p50, reference      p10 round trip
                                        speed
==================  ==================  ==================  ====================

Set-up is repeated several times per run and its median reported.
Session calls are scaled to the reference speed of ``speed.py``: each call
is timed next to a fixed kernel, which removes the host's slow spells from
these Python-bound calls; raw wall-clock figures are printed beside them.
The train step and the HTTP path do not slow down in step with that
kernel, so they are reported as measured. The other figures the issue names
(step, call and request p50/p99, the ladder capacity) are printed in the
report lines.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it holds
the per-layer metrics, from a separate run that times each layer through
public calls. A per-layer metric of a layer the workload does not exercise
reads 0. Lines before it are a readable report: every metric under the
name the workload gives it, operations per phase and each check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("train_full_graph", "session_predict", "http_open_loop")


def _spec(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _workload(name: str):
    if name == "train_full_graph":
        import workload_train as module
    elif name == "session_predict":
        import workload_session as module
    else:
        import workload_http as module
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = _spec(root)[args.trace]

    # Unwind on SIGTERM too, so a started service is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = _workload(args.workload).run(
            args.seed, args.seconds, bool(args.trace), work
        )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        result.metrics["success_ratio"] = 1.0 - result.failed / max(1, result.attempted)
    unknown = set(result.metrics) - set(units)
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1
    if not args.trace and set(units) - set(result.metrics):
        print(f"error: workload did not measure {sorted(set(units) - set(result.metrics))}",
              file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for line in result.report:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for name, ok in result.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(f"failed_ratio = {result.failed / max(1, result.attempted)!r} "
          f"({result.failed} of {result.attempted} operations)")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
