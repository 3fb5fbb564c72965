"""Open-loop ``/predict`` load over keep-alive HTTP connections.

Requests are due on a fixed schedule, ``i / rate`` seconds after the
start, and request ``i`` goes out on connection ``i % connections``. A
connection's thread sends each request when it is due, or as soon as its
previous response is in if that came later; latency is measured from the
due time, so a stall also counts against the requests queued behind it,
and the send delay is the generator's lag. Responses are checked after
the phase, off the timed path.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np


@dataclass
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


@dataclass
class Phase:
    start: float
    end: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    stopped_early: bool = False


class Client:
    """``connections`` keep-alive connections to one server."""

    def __init__(self, port: int, bodies: Sequence[bytes], connections: int = 2):
        self.bodies = list(bodies)
        self.conns = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            for _ in range(connections)
        ]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def _send(self, conn, body: bytes):
        conn.request(
            "POST", "/predict", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()

    def run(
        self,
        rate: float,
        count: int,
        *,
        limit_ms: Optional[float] = None,
        max_over: int = 10,
    ) -> Phase:
        """Send ``count`` requests at ``rate`` per second.

        With ``limit_ms``, the phase stops early once more than
        ``max_over`` requests have missed the limit (a failed request
        misses it too): the step has failed and the rest adds nothing.
        """
        n_conn = len(self.conns)
        phase = Phase(start=time.monotonic() + 0.01)
        stop = threading.Event()
        lock = threading.Lock()
        over = [0]

        def worker(k: int) -> None:
            conn = self.conns[k]
            for i in range(k, count, n_conn):
                if stop.is_set():
                    return
                due = phase.start + i / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                try:
                    status, body = self._send(conn, self.bodies[i % len(self.bodies)])
                except (OSError, http.client.HTTPException):
                    conn.close()  # reconnects on the next request
                    status, body = 0, b""
                sample = Sample(i, due, sent, time.monotonic(), status, body)
                with lock:
                    phase.samples.append(sample)
                    if limit_ms is not None and (
                        status != 200 or sample.latency_ms > limit_ms
                    ):
                        over[0] += 1
                        if over[0] > max_over:
                            phase.stopped_early = True
                            stop.set()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_conn)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.end = time.monotonic()
        phase.samples.sort(key=lambda s: s.index)
        return phase


def tail(latencies_ms: Sequence[float], min_beyond: int = 10):
    """``(value, percentile, beyond)``: the highest of p99.9, p99, p90 and
    p50 that has at least ``min_beyond`` samples above it."""
    values = np.sort(np.asarray(latencies_ms, dtype=float))
    n = values.size
    for pct in (99.9, 99.0, 90.0, 50.0):
        beyond = int(n - np.ceil(n * pct / 100.0))
        if beyond >= min_beyond:
            return float(np.percentile(values, pct)), pct, beyond
    return float(values[-1]), 100.0, 0


def lag_grows(phase: Phase, slack_ms: float) -> bool:
    """Whether the generator fell further behind during the phase: the
    median lag of the last third exceeds that of the first by ``slack_ms``."""
    lags = [s.lag_ms for s in phase.samples]
    third = max(1, len(lags) // 3)
    return float(np.median(lags[-third:])) - float(np.median(lags[:third])) > slack_ms


def check_responses(samples: Sequence[Sample], expected: Sequence[np.ndarray], atol=1e-9):
    """Count responses that are a 200 whose decision values equal the
    offline model's to an absolute ``atol``."""
    ok = 0
    for sample in samples:
        if sample.status != 200:
            continue
        want = expected[sample.index % len(expected)]
        try:
            got = np.asarray(json.loads(sample.body)["decision_values"], dtype=float)
        except (ValueError, KeyError, TypeError):
            continue
        if got.shape == want.shape and np.all(np.abs(got - want) <= atol):
            ok += 1
    return ok
