#!/usr/bin/env python
"""Structured event-log gate: invisible when off, bounded when on.

Four contracts from ``docs/observability.md``, each measured here and
hard-gated by ``--check``:

* **disabled path < 2 %**: a constructed-but-disabled :class:`EventLog`
  attached to a :class:`StreamEngine` must cost under
  :data:`DISABLED_OVERHEAD_BUDGET_PCT` of bare ingest.  Measured as a
  per-round paired attached/bare wall-clock ratio, minimum over rounds
  (noise is additive, so the cleanest round bounds the true overhead
  from above — the same estimator ``bench_batch`` uses);
* **bitwise invisible when enabled**: an *enabled* log folding every
  window-seal event must leave the fleet cube bit-identical to a
  log-free engine's — emission is a pure read of the window stream;
* **bounded RSS at scale**: ingesting :data:`INGEST_EVENTS` records
  through a ring-buffered log into a rotated :class:`LogStore` must
  keep the peak-RSS delta under :data:`RSS_CEILING_MB` while spilling
  more bytes to disk than the ring could ever hold — the proof that
  segments stream out instead of accumulating;
* **fast range queries**: p99 over seeded random time-range queries
  against the rotated segments must stay under
  :data:`QUERY_P99_LIMIT_MS` in the recorded baseline (live runs get
  the loose :data:`LIVE_P99_LIMIT_MS` disaster bound; shared CI
  runners are noisy and slow drift is ``bench_history``'s job).

Modes::

    python benchmarks/bench_logs.py            # measure and report
    python benchmarks/bench_logs.py --record   # (re)write baseline
    python benchmarks/bench_logs.py --check    # gate (CI)
    python benchmarks/bench_logs.py --check --quick --history
"""

from __future__ import annotations

import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_logs.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_history  # noqa: E402
from repro.core.join import cubes_equal  # noqa: E402
from repro.obs.log import EventLog, LogStore, select  # noqa: E402
from repro.stream import StreamEngine, simulated_fleet  # noqa: E402

#: Maximum disabled-log overhead on streaming ingest, percent.
DISABLED_OVERHEAD_BUDGET_PCT = 2.0
#: Peak-RSS growth ceiling for the large store ingest, MB.
RSS_CEILING_MB = 64.0
#: The recorded baseline must answer range queries under this p99.
QUERY_P99_LIMIT_MS = 50.0
#: Live disaster bound for --check (loose: CI runners are shared).
LIVE_P99_LIMIT_MS = 250.0

#: Records pushed through the ring+store in the scale leg.
INGEST_EVENTS = 1_000_000
INGEST_EVENTS_QUICK = 300_000
RING_CAPACITY = 4_096
SEGMENT_RECORDS = 1_024

FLEET_NODES = 32
DAYS = 1.0
CHUNK_TICKS = 20
WINDOW_S = 600.0

#: Synthetic event rate (fixed so segment *time* granularity — and
#: therefore per-query parse cost — is identical in quick and full
#: modes) and the range-query width in event-time seconds.
EVENT_RATE_HZ = 12.0
QUERY_SPAN_S = 120.0


def _one_pass(log, chunks, *, eventlog=None):
    engine = StreamEngine(log, window_s=WINDOW_S)
    if eventlog is not None:
        engine.attach(event_log=eventlog)
    t0 = time.perf_counter()
    for chunk in chunks:
        engine.ingest(chunk)
    engine.drain()
    return (time.perf_counter() - t0) * 1e3, engine


def measure_overhead(*, rounds: int, seed: int = 0) -> dict:
    """Disabled-path overhead plus the enabled bitwise-identity check."""
    log, source = simulated_fleet(
        fleet_nodes=FLEET_NODES, days=DAYS, seed=seed,
        chunk_ticks=CHUNK_TICKS,
    )
    chunks = list(source)            # materialized: generation untimed

    # Warmup absorbs lazy imports and allocator growth.
    _one_pass(log, chunks)
    _one_pass(log, chunks, eventlog=EventLog(enabled=False))

    best_ratio = float("inf")
    bare_ms = attached_ms = None
    for _ in range(rounds):
        t_on, _ = _one_pass(log, chunks, eventlog=EventLog(enabled=False))
        t_off, _ = _one_pass(log, chunks)
        if bare_ms is None or t_off < bare_ms:
            bare_ms, attached_ms = t_off, t_on
        best_ratio = min(best_ratio, t_on / t_off)
    overhead_pct = max(0.0, 100.0 * (best_ratio - 1.0))

    # Enabled leg: every window seals one event, cube bits never move.
    _, plain = _one_pass(log, chunks)
    live = EventLog(capacity=65_536)
    _, logged = _one_pass(log, chunks, eventlog=live)
    bitwise = cubes_equal(plain.cube(copy=False), logged.cube(copy=False))
    seals = sum(
        1 for r in live.records() if r["event"] == "stream.window_seal"
    )
    return {
        "description": (
            f"streaming ingest of {FLEET_NODES} nodes x {DAYS:g} days "
            f"({len(chunks)} chunks, {WINDOW_S:.0f} s windows) with a "
            f"disabled EventLog attached vs bare"
        ),
        "rounds": rounds,
        "bare_ms": round(bare_ms, 2),
        "attached_ms": round(attached_ms, 2),
        "disabled_overhead_pct": round(overhead_pct, 3),
        "bitwise_identical_enabled": bitwise,
        "windows_sealed": seals,
        "events_emitted_enabled": live.emitted,
    }


def measure_store(*, events: int, n_queries: int, seed: int = 0) -> dict:
    """Bounded-RSS bulk ingest plus range-query latency percentiles."""
    rss0_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    step_s = 1.0 / EVENT_RATE_HZ
    span_s = events * step_s
    with tempfile.TemporaryDirectory() as dir:
        store = LogStore(
            Path(dir) / "logs", segment_records=SEGMENT_RECORDS,
        )
        eventlog = EventLog(capacity=RING_CAPACITY, store=store)
        t0 = time.perf_counter()
        for i in range(events):
            eventlog.emit(
                "info", "bench.tick", f"synthetic event {i}",
                t_s=i * step_s, window=i // 64, node=i % FLEET_NODES,
                value=float(i % 1000),
            )
        eventlog.finalize()
        ingest_s = time.perf_counter() - t0
        written_mb = store.total_bytes() / 1e6
        rss_delta_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0_kb
        ) / 1024.0

        rng = random.Random(seed)
        latencies = []
        for _ in range(n_queries):
            q0 = rng.uniform(0.0, span_s - QUERY_SPAN_S)
            t = time.perf_counter()
            hits = select(
                store.iter_records(q0, q0 + QUERY_SPAN_S),
                min_severity="info", limit=100,
            )
            latencies.append((time.perf_counter() - t) * 1e3)
            assert hits, "range query found no records; workload broken"
        latencies.sort()
        problems = store.check()
        summary = store.summary()
        store.close()

    return {
        "description": (
            f"{events:,} events through a {RING_CAPACITY}-record ring "
            f"into {SEGMENT_RECORDS}-record JSONL segments, then "
            f"{n_queries} random {QUERY_SPAN_S:.0f} s range queries"
        ),
        "events": events,
        "ingest_s": round(ingest_s, 3),
        "events_per_s": round(events / ingest_s, 0),
        "segments": summary["segments"],
        "written_mb": round(written_mb, 1),
        "rss_delta_mb": round(rss_delta_mb, 1),
        "ring_evicted": eventlog.evicted,
        "store_problems": problems,
        "query_p50_ms": round(bench_history.percentile(latencies, 50.0), 3),
        "query_p99_ms": round(bench_history.percentile(latencies, 99.0), 3),
        "query_max_ms": round(latencies[-1], 3) if latencies else 0.0,
    }


def measure(*, rounds: int, quick: bool) -> dict:
    events = INGEST_EVENTS_QUICK if quick else INGEST_EVENTS
    return {
        "log_overhead": measure_overhead(rounds=rounds),
        "log_store": measure_store(
            events=events, n_queries=60 if quick else 200,
        ),
    }


def check(results: dict) -> int:
    failures = []
    over = results["log_overhead"]
    store = results["log_store"]
    if not over["bitwise_identical_enabled"]:
        failures.append("enabled event log changed a fleet-cube bit")
    if over["windows_sealed"] == 0:
        failures.append("no window-seal events; the workload is broken")
    if over["disabled_overhead_pct"] >= DISABLED_OVERHEAD_BUDGET_PCT:
        failures.append(
            f"disabled-path overhead {over['disabled_overhead_pct']:.2f} "
            f"% breaks the < {DISABLED_OVERHEAD_BUDGET_PCT:g} % budget"
        )
    if store["rss_delta_mb"] >= RSS_CEILING_MB:
        failures.append(
            f"peak RSS grew {store['rss_delta_mb']:.1f} MB over the "
            f"{RSS_CEILING_MB:g} MB ceiling; segments are accumulating"
        )
    if store["written_mb"] <= store["rss_delta_mb"]:
        failures.append(
            f"store spilled only {store['written_mb']:.1f} MB against a "
            f"{store['rss_delta_mb']:.1f} MB RSS delta; nothing paged out"
        )
    if store["ring_evicted"] == 0:
        failures.append("ring never evicted; the scale leg is too small")
    if store["store_problems"]:
        failures.append(
            f"store check found problems: {store['store_problems']}"
        )
    if store["query_p99_ms"] >= LIVE_P99_LIMIT_MS:
        failures.append(
            f"live query p99 {store['query_p99_ms']:.1f} ms over the "
            f"{LIVE_P99_LIMIT_MS:.0f} ms disaster bound"
        )

    if BASELINE_PATH.exists():
        ref = json.loads(BASELINE_PATH.read_text())
        ref_over = ref["log_overhead"]
        ref_store = ref["log_store"]
        if ref_over["disabled_overhead_pct"] >= DISABLED_OVERHEAD_BUDGET_PCT:
            failures.append(
                f"recorded disabled-path overhead "
                f"{ref_over['disabled_overhead_pct']:.2f} % breaks the "
                f"< {DISABLED_OVERHEAD_BUDGET_PCT:g} % budget; re-record "
                f"on the reference machine"
            )
        if ref_store["query_p99_ms"] >= QUERY_P99_LIMIT_MS:
            failures.append(
                f"recorded query p99 {ref_store['query_p99_ms']:.1f} ms "
                f"breaks the < {QUERY_P99_LIMIT_MS:g} ms budget"
            )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def timings(results: dict) -> dict:
    return {
        "logs_bare_ms": results["log_overhead"]["bare_ms"],
        "logs_attached_ms": results["log_overhead"]["attached_ms"],
        "logs_query_p99_ms": results["log_store"]["query_p99_ms"],
    }


def measure_gate(args) -> dict:
    # The overhead leg gates a <2 % live ratio, so it needs the same
    # round count bench_batch's estimator uses — one noisy round can
    # only overstate the ratio, and more rounds let the min converge.
    rounds = args.rounds
    if rounds is None:
        rounds = 5 if args.quick else 9
    return measure(rounds=rounds, quick=args.quick)


GATE = bench_history.Gate(
    source="bench_logs",
    doc=__doc__,
    baseline=BASELINE_PATH,
    measure=measure_gate,
    check=check,
    timings=timings,
    check_help="gate overhead, RSS, bitwise identity, p99",
    quick_help="fewer rounds and events (CI mode)",
    flags=(
        ("--rounds", dict(
            type=int, default=None,
            help="paired timing rounds (default 9; 5 with --quick)",
        )),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_history.run_gate(GATE))
