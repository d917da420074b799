"""Open-loop HTTP load generator for the serve-poll workload.

Requests are due on a fixed schedule — request ``k`` at ``t0 + k / rate``
— whatever the server is doing, so a server stall delays every request
due during it (no coordinated omission).  They go out over two
keep-alive connections, ``k`` on connection ``k % 2``; a connection
still waiting on an earlier answer sends the next request as soon as it
is free.  Latency runs from the scheduled send time to the last byte of
the answer.  ``late`` measures the generator itself: how long after a
request was both due and sendable (its connection free) it actually
went out.

The route mix is ``benchmarks/bench_serve.py``'s poller mix, drawn from
a seeded RNG: a seed always gives the same request sequence.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List

#: (route, weight): every node's power agent polls the fleet cap.
MIX = (
    ("/v1/fleet/cap", 70),
    ("/v1/fleet/savings", 10),
    ("/v1/policy", 10),
    ("/v1/jobs?limit=20", 10),
)
CONNECTIONS = 2
TIMEOUT_S = 10.0


def routes(seed: int, n: int) -> List[str]:
    rng = random.Random(seed)
    names = [route for route, _ in MIX]
    weights = [weight for _, weight in MIX]
    return rng.choices(names, weights=weights, k=n)


@dataclass
class StepResult:
    """What one rate step measured (times in seconds, monotonic clock)."""

    rate: float
    duration_s: float
    #: One per answered request (200 or not-JSON), from its due time.
    latencies_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    errors: int = 0             # transport errors and non-200 answers
    bad_bodies: int = 0
    #: Due requests never sent because the step's time ran out first.
    unsent: int = 0
    last_done: float = 0.0
    t0: float = 0.0
    #: Answers completed by ``t0 + duration_s``.
    done_in_time: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms) + self.errors

    @property
    def failed(self) -> int:
        """Transport errors, non-200 answers and unparsable bodies."""
        return self.errors + self.bad_bodies

    @property
    def achieved_rps(self) -> float:
        """Answers per second: over the step when it ran to completion,
        over its scheduled duration when unsent requests were cut off."""
        if self.unsent:
            return self.done_in_time / self.duration_s
        span = self.last_done - self.t0
        return len(self.latencies_ms) / span if span > 0 else 0.0


class Connection:
    """A minimal HTTP/1.1 keep-alive client, one request in flight.

    Far cheaper per request than ``http.client``, so on a small host the
    generator takes less processor time from the server it measures.
    The server frames every answer with ``Content-Length``.
    """

    def __init__(self, host: str, port: int) -> None:
        self.addr = (host, port)
        self.sock = None
        self.buf = b""

    def open(self) -> None:
        self.close()
        self.sock = socket.create_connection(self.addr, timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock, self.buf = None, b""

    def _fill(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data

    def get(self, request: bytes):
        """Send one pre-encoded request; (status, body) of the answer."""
        if self.sock is None:
            self.open()
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        if close:
            self.close()
        return status, body


def _request(route: str) -> bytes:
    return f"GET {route} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()


def _worker(host, port, jobs, t0, rate, cutoff, result, lock) -> None:
    conn = Connection(host, port)
    try:
        conn.open()         # before t0; a failure retries on first request
    except OSError:
        conn.close()
    lat, late, bodies, errors = [], [], [], 0
    free_at = last_done = t0
    in_time = unsent = 0
    try:
        for i, (k, route) in enumerate(jobs):
            due = t0 + k / rate
            now = time.monotonic()
            if cutoff is not None and now >= cutoff:
                unsent = len(jobs) - i
                break
            if now < due:
                time.sleep(due - now)
            sent = time.monotonic()
            late.append(1e3 * max(0.0, sent - max(due, free_at)))
            try:
                status, body = conn.get(route)
            except (OSError, ValueError, IndexError):
                errors += 1
                conn.close()
                free_at = last_done = time.monotonic()
                continue
            done = free_at = last_done = time.monotonic()
            if cutoff is not None and done <= cutoff:
                in_time += 1
            if status != 200:
                errors += 1
                continue
            lat.append(1e3 * (done - due))
            bodies.append(body)
    finally:
        conn.close()
    # Validate bodies after the step, off the latency path.
    bad = 0
    for body in bodies:
        try:
            json.loads(body)
        except ValueError:
            bad += 1
    with lock:
        result.latencies_ms.extend(lat)
        result.late_ms.extend(late)
        result.errors += errors
        result.bad_bodies += bad
        result.unsent += unsent
        result.done_in_time += in_time
        result.last_done = max(result.last_done, last_done)


def run_step(
    host: str, port: int, *, rate: float, duration_s: float, seed: int,
    t0: float, cut_off: bool = False,
) -> StepResult:
    """Offer ``rate`` req/s for ``duration_s`` starting at monotonic ``t0``.

    With ``cut_off``, requests still unsent at ``t0 + duration_s`` are
    abandoned (an overload step would otherwise run on as long as its
    backlog takes to drain).
    """
    n = max(1, int(round(rate * duration_s)))
    encoded = {route: _request(route) for route, _ in MIX}
    sequence = [(k, encoded[r]) for k, r in enumerate(routes(seed, n))]
    result = StepResult(rate=rate, duration_s=duration_s, t0=t0)
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_worker,
            args=(host, port, sequence[c::CONNECTIONS], t0, rate,
                  t0 + duration_s if cut_off else None, result, lock),
        )
        for c in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return result
