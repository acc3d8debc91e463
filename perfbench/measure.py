"""Shared helpers: percentiles, memory readings and the run result record."""

from __future__ import annotations

import dataclasses
import math
import resource
from pathlib import Path
from typing import Dict, List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method), ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over a live process and its direct children."""
    total_kb = 0
    pids = [pid] + _children(pid)
    for p in pids:
        try:
            status = Path(f"/proc/{p}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _children(pid: int) -> List[int]:
    out: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return out


@dataclasses.dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to its measured value; units come from
    ``BENCHMARK.json``. ``report`` lines are printed before the final JSON
    line, for a human reading the run.
    """

    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    report: List[str] = dataclasses.field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failing check is one failed op."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.failed += 1
            self.attempted += 1
            self.report.append(f"CHECK FAILED {name}: {detail}")
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def describe_ms(name: str, values_s: Sequence[float]) -> str:
    """``name n=.. p10=.. mean=.. p50=.. p90=.. p99=..`` summary of seconds, in ms."""
    ms = [1e3 * v for v in values_s]
    return (
        f"{name}: n={len(ms)} p10={quantile(ms, 0.1):.3f} ms mean={mean(ms):.3f} ms "
        f"p50={quantile(ms, 0.5):.3f} ms "
        f"p90={quantile(ms, 0.9):.3f} ms p99={quantile(ms, 0.99):.3f} ms max={max(ms):.3f} ms"
    )
