#!/usr/bin/env python
"""Control-plane load test: latency SLOs under concurrent pollers.

Stands up a real :class:`repro.serve.ControlPlane` on an ephemeral TCP
port, keeps ingest running in the background (so snapshots keep
publishing mid-load, at a fixed :data:`PUBLISH_HZ`), and hammers it
with hundreds of concurrent clients over persistent HTTP/1.1
connections.  The traffic generator is deterministic: every client's
request sequence and think-times come from its own seeded RNG, so two
runs issue the identical request streams (only the wall-clock timings
differ).

The mix models a fleet of pollers: dominated by ``/v1/fleet/cap`` (the
endpoint every node's power agent polls), with fleet savings, policy
reads, and job-table queries mixed in.  Latency is measured per request
around the full request/response round trip.

The hard gate (``--check``) fails when:

* any request errors, or fewer than :data:`MIN_CLIENTS` clients ran;
* the snapshot version did not advance during the load (ingest starved
  behind serving — the cache is supposed to decouple them);
* the *recorded baseline* breaks the SLOs: p50 >= 1 ms or p99 >= 5 ms
  (re-record on the reference machine);
* the live p99 exceeds the disaster bound :data:`LIVE_P99_LIMIT_MS`
  (generous, because shared CI runners are noisy; slow drift is the
  history trail's job).

Modes::

    python benchmarks/bench_serve.py            # measure and report
    python benchmarks/bench_serve.py --record   # measure and (re)write baseline
    python benchmarks/bench_serve.py --check    # gate (CI)
    python benchmarks/bench_serve.py --check --quick --history
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_serve.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_history  # noqa: E402
from repro.serve import ControlPlane  # noqa: E402
from repro.stream import simulated_fleet  # noqa: E402

#: The SLOs the recorded reference run must meet (the tentpole's
#: acceptance bar): sub-millisecond median, p99 under 5 ms.
P50_LIMIT_MS = 1.0
P99_LIMIT_MS = 5.0
#: Live disaster bound for --check (loose: CI runners are shared).
LIVE_P99_LIMIT_MS = 50.0
#: The load must come from at least this many concurrent clients.
MIN_CLIENTS = 200

FLEET_NODES = 24
DAYS = 1.0
CHUNK_TICKS = 8
#: Chunks folded before the load starts (a warm, populated cache).
WARMUP_CHUNKS = 200
#: Snapshot publishes per second while the load runs: the recorded
#: baseline's rate (7 in its 4 s), held fixed so the refresh work the
#: pollers compete with does not grow with the host's ingest speed.
PUBLISH_HZ = 1.75

#: (route, weight): the poller mix, heavily read-the-fleet-cap.
MIX = (
    ("/v1/fleet/cap", 70),
    ("/v1/fleet/savings", 10),
    ("/v1/policy", 10),
    ("/v1/jobs?limit=20", 10),
)


def _pick_route(rng: random.Random) -> str:
    total = sum(w for _, w in MIX)
    roll = rng.randrange(total)
    for route, weight in MIX:
        roll -= weight
        if roll < 0:
            return route
    return MIX[0][0]


def _client_worker(
    host: str,
    port: int,
    *,
    seed: int,
    stop: threading.Event,
    start: threading.Barrier,
    think_s: tuple,
    latencies: list,
    errors: list,
) -> None:
    rng = random.Random(seed)
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.connect()
        try:
            start.wait(timeout=60)
        except threading.BrokenBarrierError:
            return
        # First think-time before the first request spreads the herd.
        while not stop.is_set():
            time.sleep(rng.uniform(*think_s))
            if stop.is_set():
                break
            route = _pick_route(rng)
            t0 = time.perf_counter()
            try:
                conn.request("GET", route)
                resp = conn.getresponse()
                body = resp.read()
                ok = resp.status == 200 and body
            except (OSError, http.client.HTTPException):
                errors.append(route)
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=10)
                conn.connect()
                continue
            if ok:
                latencies.append((time.perf_counter() - t0) * 1e3)
            else:
                errors.append(route)
    finally:
        conn.close()


def measure(args) -> dict:
    duration = args.duration
    if duration is None:
        duration = 2.0 if args.quick else 4.0
    # With hundreds of runnable threads, CPython's default 5 ms GIL
    # switch interval dominates the latency tail (a response can wait
    # several intervals behind other threads).  A finer interval trades
    # a little throughput for the tail the SLO actually gates.
    old_switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)
    try:
        return _measure(clients=args.clients, duration_s=duration, seed=0)
    finally:
        sys.setswitchinterval(old_switch)


def _measure(*, clients: int, duration_s: float, seed: int) -> dict:
    log, source = simulated_fleet(
        fleet_nodes=FLEET_NODES, days=DAYS, seed=seed,
        chunk_ticks=CHUNK_TICKS,
    )
    plane = ControlPlane(log)
    chunks = iter(source)
    for _ in range(WARMUP_CHUNKS):
        chunk = next(chunks, None)
        if chunk is None:
            break
        plane.ingest(chunk)

    stop = threading.Event()

    def ingest_loop() -> None:
        # Keep snapshots publishing at PUBLISH_HZ while the load runs;
        # the waits keep the GIL mostly free for request handling.
        next_publish = time.perf_counter()
        for chunk in chunks:
            if plane.ingest(chunk):
                next_publish += 1.0 / PUBLISH_HZ
            if stop.wait(max(next_publish - time.perf_counter(), 0.01)):
                return

    server = plane.serve(port=0)
    host, port = "127.0.0.1", server.port
    version_start = plane.cache.view.version

    ingester = threading.Thread(target=ingest_loop, daemon=True)
    ingester.start()

    start = threading.Barrier(clients + 1)
    latencies: list = []
    errors: list = []
    threads = []
    for i in range(clients):
        # Per-thread sinks, merged after join: no lock on the hot path.
        lat: list = []
        err: list = []
        t = threading.Thread(
            target=_client_worker,
            args=(host, port),
            kwargs=dict(
                seed=seed * 100_000 + i,
                stop=stop,
                start=start,
                think_s=(0.1, 0.2),
                latencies=lat,
                errors=err,
            ),
            daemon=True,
        )
        threads.append((t, lat, err))
        t.start()

    start.wait(timeout=60)
    t0 = time.perf_counter()
    time.sleep(duration_s)
    stop.set()
    wall_s = time.perf_counter() - t0
    for t, lat, err in threads:
        t.join(timeout=30)
        latencies.extend(lat)
        errors.extend(err)
    version_end = plane.cache.view.version
    plane.close()

    latencies.sort()
    n = len(latencies)
    return {
        "serve_load": {
            "description": (
                f"{clients} persistent HTTP/1.1 pollers with seeded "
                f"100-200 ms think-times against a live control plane "
                f"({FLEET_NODES} nodes x {DAYS:g} days, ingest running "
                f"throughout)"
            ),
            "clients": clients,
            "duration_s": round(wall_s, 3),
            "requests": n,
            "errors": len(errors),
            "rps": round(n / wall_s, 1) if wall_s > 0 else 0.0,
            "p50_ms": round(bench_history.percentile(latencies, 50.0), 4),
            "p90_ms": round(bench_history.percentile(latencies, 90.0), 4),
            "p99_ms": round(bench_history.percentile(latencies, 99.0), 4),
            "max_ms": round(latencies[-1], 4) if latencies else 0.0,
            "version_start": version_start,
            "version_end": version_end,
            "publish_hz": PUBLISH_HZ,
            "mix": {route: weight for route, weight in MIX},
        },
    }


def check(results: dict) -> int:
    failures = []
    load = results["serve_load"]
    if load["errors"]:
        failures.append(f"{load['errors']} request(s) errored")
    if load["clients"] < MIN_CLIENTS:
        failures.append(
            f"only {load['clients']} clients (need >= {MIN_CLIENTS})"
        )
    if load["requests"] == 0:
        failures.append("no requests completed")
    if load["version_end"] <= load["version_start"]:
        failures.append(
            f"snapshot version stuck at {load['version_start']} during "
            f"the load; ingest starved behind serving"
        )
    if load["p99_ms"] >= LIVE_P99_LIMIT_MS:
        failures.append(
            f"live p99 {load['p99_ms']:.2f} ms over the "
            f"{LIVE_P99_LIMIT_MS:.0f} ms disaster bound"
        )

    if BASELINE_PATH.exists():
        ref = json.loads(BASELINE_PATH.read_text())["serve_load"]
        if ref["p50_ms"] >= P50_LIMIT_MS:
            failures.append(
                f"recorded p50 {ref['p50_ms']:.3f} ms breaks the "
                f"< {P50_LIMIT_MS:g} ms SLO; re-record on the "
                f"reference machine"
            )
        if ref["p99_ms"] >= P99_LIMIT_MS:
            failures.append(
                f"recorded p99 {ref['p99_ms']:.3f} ms breaks the "
                f"< {P99_LIMIT_MS:g} ms SLO; re-record on the "
                f"reference machine"
            )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def timings(results: dict) -> dict:
    return {
        "serve_p50_ms": results["serve_load"]["p50_ms"],
        "serve_p99_ms": results["serve_load"]["p99_ms"],
    }


GATE = bench_history.Gate(
    source="bench_serve",
    doc=__doc__,
    baseline=BASELINE_PATH,
    measure=measure,
    check=check,
    timings=timings,
    check_help="gate errors, SLOs, and snapshot liveness",
    quick_help="shorter load window (CI mode)",
    flags=(
        ("--clients", dict(
            type=int, default=MIN_CLIENTS,
            help=f"concurrent pollers (default {MIN_CLIENTS})",
        )),
        ("--duration", dict(
            type=float, default=None,
            help="seconds of steady-state load (default 4; 2 with --quick)",
        )),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_history.run_gate(GATE))
