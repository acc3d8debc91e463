"""Serving observability: request/batch/cache counters and latency stats.

One :class:`ServingMetrics` instance rides along an
:class:`repro.serve.InferenceSession`. Since the ``repro.obs`` subsystem
landed this class is a thin facade over a
:class:`repro.obs.metrics.MetricsRegistry` — counters, the bounded latency
window and the percentile math all come from the shared implementation —
while :meth:`snapshot` keeps its historical keys, so existing dashboards
and tests read the same report.

Latency accounting distinguishes two paths:

- **direct** calls (``InferenceSession.predict`` with no queue):
  every request in the batch is charged the compute share
  ``seconds / size``, which *is* its latency because nothing waited;
- **queued** calls (:class:`repro.serve.BatchQueue` with ``metrics=``):
  the queue stamps each request's enqueue time and reports the true
  end-to-end latency (queue wait + compute) per request, replacing the
  compute-share approximation. The handler's in-batch ``record_batch``
  runs under :meth:`deferred_latency` so the window never double-counts.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Optional, Sequence

from ..obs.metrics import MetricsRegistry, percentile

#: Bounded window of per-request latencies kept for percentile estimates.
LATENCY_WINDOW = 4096


class ServingMetrics:
    """Thread-safe counters for a serving session."""

    def __init__(
        self,
        latency_window: int = LATENCY_WINDOW,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.registry = registry or MetricsRegistry()
        self._started = time.perf_counter()
        self._requests = self.registry.counter("serve.requests")
        self._batches = self.registry.counter("serve.batches")
        self._busy = self.registry.counter("serve.busy_seconds")
        self._cache_hits = self.registry.counter("serve.cache_hits")
        self._cache_misses = self.registry.counter("serve.cache_misses")
        self._latency = self.registry.histogram(
            "serve.latency_seconds", window=latency_window
        )
        self._queue_wait = self.registry.histogram(
            "serve.queue_wait_seconds", window=latency_window
        )
        self._local = threading.local()

    # -- counter views (historical attribute API) ----------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._cache_misses.value)

    @property
    def total_seconds(self) -> float:
        return self._busy.value

    # ------------------------------------------------------------------
    def record_batch(self, size: int, seconds: float) -> None:
        """Account one prediction batch of ``size`` requests.

        Outside a queue the per-request latency is the compute share
        ``seconds / size``; under :meth:`deferred_latency` the window is
        left to the caller, who knows the true per-request waits.
        """
        if size <= 0:
            return
        self._requests.inc(size)
        self._batches.inc(1)
        self._busy.inc(seconds)
        if not getattr(self._local, "defer_latency", False):
            self._latency.observe_many([seconds / size] * size)

    @contextlib.contextmanager
    def deferred_latency(self):
        """Suppress record_batch's synthetic latency entries on this thread.

        :class:`repro.serve.BatchQueue` wraps handler invocations in this so
        it can record the true enqueue-to-resolve latency per request
        afterwards, instead of the handler's compute-share estimate.
        """
        self._local.defer_latency = True
        try:
            yield
        finally:
            self._local.defer_latency = False

    def record_queued(
        self, latencies: Sequence[float], queue_waits: Sequence[float]
    ) -> None:
        """True per-request latency (queue wait + compute) for one batch."""
        self._latency.observe_many(latencies)
        self._queue_wait.observe_many(queue_waits)

    def record_cache(self, hit: bool, count: int = 1) -> None:
        """Account ``count`` feature-cache lookups that all hit or all missed."""
        if count > 0:
            (self._cache_hits if hit else self._cache_misses).inc(count)

    # ------------------------------------------------------------------
    @staticmethod
    def _percentile(sorted_values, fraction: float) -> float:
        # Retained alias; the shared implementation lives in repro.obs.
        return percentile(sorted_values, fraction)

    def snapshot(self) -> Dict[str, float]:
        """Point-in-time report of everything the session has served."""
        elapsed = time.perf_counter() - self._started
        latency = self._latency.snapshot()
        queue_wait = self._queue_wait.snapshot()
        requests = self.requests
        batches = self.batches
        cache_hits = self.cache_hits
        cache_misses = self.cache_misses
        cache_total = cache_hits + cache_misses
        return {
            "requests": requests,
            "batches": batches,
            "mean_batch_size": requests / batches if batches else 0.0,
            "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
            "uptime_seconds": elapsed,
            "busy_seconds": self.total_seconds,
            "latency_mean_ms": 1e3 * latency["mean"],
            "latency_p50_ms": 1e3 * latency["p50"],
            "latency_p95_ms": 1e3 * latency["p95"],
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_hit_rate": cache_hits / cache_total if cache_total else 0.0,
            "queued_requests": int(queue_wait["count"]),
            "queue_wait_mean_ms": 1e3 * queue_wait["mean"],
            "queue_wait_p50_ms": 1e3 * queue_wait["p50"],
            "queue_wait_p95_ms": 1e3 * queue_wait["p95"],
        }

    def render(self) -> str:
        """Human-readable one-per-line snapshot (the CLI footer)."""
        snap = self.snapshot()
        lines = ["serving metrics:"]
        for key, value in snap.items():
            if isinstance(value, float):
                lines.append(f"  {key:18s} {value:.4f}")
            else:
                lines.append(f"  {key:18s} {value}")
        return "\n".join(lines)
