"""Open-loop HTTP load generator: requests leave on a fixed schedule.

One process, ``connections`` threads, one keep-alive connection each.
Request ``i`` of a phase is due at ``start + i / rate``, whether or not
earlier requests have been answered, and its latency is timed from that
due time, so a stall also charges the wait it imposes on later requests.
A request due while every connection is busy waits for one; that wait is
latency. The generator's own lateness is separate: the time from when a
request could leave (due, with a free connection) until it left. When its
p99 exceeds ``LATE_P99_BOUND_MS`` the phase measured the generator, not
the service, and is marked invalid. ``run_saturated`` drops the schedule:
each connection sends its next request as soon as the last is answered.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from typing import Callable, List, Optional

from measure import quantile

LATE_P99_BOUND_MS = 5.0
REQUEST_TIMEOUT_S = 10.0


@dataclasses.dataclass
class Outcome:
    index: int
    due: float
    sent: float
    done: float
    late: float
    status: int
    body: Optional[dict]


@dataclasses.dataclass
class Phase:
    rate: float
    seconds: float
    outcomes: List[Outcome]
    due_count: int
    backlog_end: int

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.status == 200 and o.body is not None]

    @property
    def failed(self) -> int:
        return self.sent - len(self.ok)

    @property
    def unsent(self) -> int:
        return self.due_count - self.sent

    def latencies_ms(self) -> List[float]:
        return [1e3 * (o.done - o.due) for o in self.ok]

    def latency_ms(self, q: float) -> float:
        values = self.latencies_ms()
        return quantile(values, q) if values else float("inf")

    def late_p99_ms(self) -> float:
        return quantile([1e3 * o.late for o in self.outcomes], 0.99) if self.outcomes else 0.0

    @property
    def valid(self) -> bool:
        return self.late_p99_ms() <= LATE_P99_BOUND_MS

    def passes(self, p99_limit_ms: float, backlog_limit: int) -> bool:
        """Meets the latency limit with no failures and no growing backlog."""
        return (
            self.valid
            and self.failed == 0
            and self.backlog_end <= backlog_limit
            and self.latency_ms(0.99) <= p99_limit_ms
        )

    def summary(self) -> str:
        return (
            f"rate {self.rate:g}/s for {self.seconds:g} s: sent={self.sent} "
            f"succeeded={len(self.ok)} failed={self.failed} unsent={self.unsent} "
            f"backlog_end={self.backlog_end} p50={self.latency_ms(0.5):.2f} ms "
            f"p90={self.latency_ms(0.9):.2f} ms p99={self.latency_ms(0.99):.2f} ms late_p99={self.late_p99_ms():.3f} ms"
            f"{'' if self.valid else ' INVALID (generator late)'}"
        )


class Generator:
    """Keep-alive connections to one service, reused across phases."""

    def __init__(self, host: str, port: int, connections: int):
        self.host, self.port = host, port
        self.connections = [self._connect() for _ in range(connections)]

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        for conn in self.connections:
            conn.close()

    def post(self, slot: int, body: bytes):
        """``(status, decoded JSON or None)``; a transport error reads 0."""
        conn = self.connections[slot]
        try:
            conn.request("POST", "/v1/predict", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self.connections[slot] = self._connect()
            return 0, None
        try:
            document = json.loads(payload) if response.status == 200 else None
        except ValueError:
            document = None
        return response.status, document

    def run_phase(self, rate: float, seconds: float, body: Callable[[int], bytes]) -> Phase:
        """Send ``rate * seconds`` requests on schedule; drop what is unsent at the end.

        ``body(i)`` builds request ``i``; all bodies are built before the
        phase starts.
        """
        count = int(round(rate * seconds))
        bodies = [body(i) for i in range(count)]
        lock = threading.Lock()
        cursor = [0]
        outcomes: List[Outcome] = []
        start = time.perf_counter() + 0.01
        end = start + seconds

        def sender(slot: int) -> None:
            while True:
                free = time.perf_counter()
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= count:
                    return
                due = start + i / rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                sent = time.perf_counter()
                if sent > end:
                    return  # due requests not sent by the phase end stay unsent
                status, document = self.post(slot, bodies[i])
                done = time.perf_counter()
                with lock:
                    outcomes.append(Outcome(i, due, sent, done, sent - max(due, free), status, document))

        threads = [
            threading.Thread(
                target=sender, args=(slot,), name=f"openloop-{slot}", daemon=True
            )
            for slot in range(len(self.connections))
        ]
        for thread in threads:
            thread.start()
        self._join(threads, seconds)
        completed_by_end = sum(1 for o in outcomes if o.done <= end)
        outcomes.sort(key=lambda o: o.index)
        return Phase(rate, seconds, outcomes, count, count - completed_by_end)

    def run_saturated(self, seconds: float, body: Callable[[int], bytes]) -> Phase:
        """Every connection sends back to back for ``seconds``: the saturated load.

        Each request is due when its connection is free, so latency is
        timed from send and nothing is late. ``body(i)`` builds request
        ``i``, one call at a time. A request in flight at the end completes,
        but the phase's ``rate`` counts only the requests answered by then,
        per second: the throughput.
        """
        lock = threading.Lock()
        cursor = [0]
        outcomes: List[Outcome] = []
        start = time.perf_counter()
        end = start + seconds

        def sender(slot: int) -> None:
            while time.perf_counter() < end:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                    payload = body(i)
                sent = time.perf_counter()
                status, document = self.post(slot, payload)
                done = time.perf_counter()
                with lock:
                    outcomes.append(Outcome(i, sent, sent, done, 0.0, status, document))

        threads = [
            threading.Thread(
                target=sender, args=(slot,), name=f"saturate-{slot}", daemon=True
            )
            for slot in range(len(self.connections))
        ]
        for thread in threads:
            thread.start()
        self._join(threads, seconds)
        outcomes.sort(key=lambda o: o.index)
        answered = sum(1 for o in outcomes if o.done <= end and o.status == 200)
        return Phase(answered / seconds, seconds, outcomes, len(outcomes), 0)

    @staticmethod
    def _join(threads, seconds: float) -> None:
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S + seconds + 5.0)
            if thread.is_alive():
                raise RuntimeError("load generator thread did not finish")
