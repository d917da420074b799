#!/usr/bin/env python
"""Out-of-core history benchmark: 90-day ingest, range queries, RSS proof.

Streams a synthetic 90-day campaign (518 400 level-0 windows at 15 s,
28 columns — ~120 MB of column data) into an on-disk
:class:`repro.obs.history.store.HistoryStore` in bounded day-sized
batches, then times range queries against the memmapped store.  The
synthetic rows are a pure function of the row index, so every run
ingests the identical byte stream.

The hard gate (``--check``) is the out-of-core acceptance bar:

* **larger than the ceiling**: the store must hold more column bytes
  than :data:`RSS_CEILING_MB`, and the peak-RSS delta across ingest
  plus queries must stay *under* that ceiling — the proof that columns
  page in lazily instead of materializing;
* **fast over the full span**: the *recorded baseline*
  (``BENCH_query.json``) must show full-span p99 below
  :data:`QUERY_P99_LIMIT_MS` (re-record on the reference machine), and
  the live p99 must stay under the loose :data:`LIVE_P99_LIMIT_MS`
  disaster bound (shared CI runners are noisy; slow drift is
  ``bench_history``'s job);
* **still exact**: a seeded sample of rollup buckets at every level
  must refold bitwise from their level-0 rows, and attaching a history
  to a live streaming engine must leave the fleet cube bitwise
  identical to a history-free engine's.

Modes::

    python benchmarks/bench_query.py            # measure and report
    python benchmarks/bench_query.py --record   # measure and (re)write baseline
    python benchmarks/bench_query.py --check    # gate (CI)
    python benchmarks/bench_query.py --check --quick --history
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_query.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.history import History, history_columns  # noqa: E402
from repro.obs.history.query import select  # noqa: E402
from repro.obs.history.store import HistoryStore, fold_values  # noqa: E402
from repro.stream import simulated_fleet  # noqa: E402
from repro.stream.engine import StreamEngine  # noqa: E402

#: The campaign the paper retains: 90 days of 15 s windows.
DAYS = 90.0
WINDOW_S = 15.0
#: Rows appended per batch — one day; bounds ingest working memory.
BATCH_ROWS = 8_640

#: The out-of-core bar: the store must exceed this many MB on disk
#: while the benchmark's peak-RSS delta stays under it.
RSS_CEILING_MB = 80.0
#: The recorded baseline must answer full-span queries under this p99.
QUERY_P99_LIMIT_MS = 50.0
#: Live disaster bound for --check (loose: CI runners are shared).
LIVE_P99_LIMIT_MS = 250.0

#: Rollup buckets refolded per level by the sampled bitwise check.
SAMPLE_BUCKETS = 64

#: The query mix: (label, span seconds, step seconds).  ``None`` span
#: means the full retained range.
ZOOMS = (
    ("hour", 3_600.0, WINDOW_S),
    ("day", 86_400.0, 300.0),
    ("week", 7 * 86_400.0, 3_600.0),
    ("full", None, None),
)


def synth_batch(r0: int, rows: int, n_cols: int) -> np.ndarray:
    """Rows ``[r0, r0+rows)`` of the synthetic campaign (pure function)."""
    j = np.arange(n_cols, dtype=np.float64)
    t = (r0 + np.arange(rows, dtype=np.float64)) * WINDOW_S
    block = np.empty((rows, n_cols))
    block[:] = np.sin(t[:, None] * 1e-3 * (j + 1.0)) * 100.0 + j
    block[:, 0] = t              # t_start_s
    block[:, 1] = t + WINDOW_S   # t_end_s
    return block


def ingest(store: HistoryStore, rows: int) -> float:
    """Append the synthetic campaign in day-sized batches; seconds."""
    n_cols = len(store.columns)
    t0 = time.perf_counter()
    for r0 in range(0, rows, BATCH_ROWS):
        store.append_batch(synth_batch(r0, min(BATCH_ROWS, rows - r0), n_cols))
    store.sync()
    return time.perf_counter() - t0


def _percentile(sorted_ms: list, pct: float) -> float:
    if not sorted_ms:
        return 0.0
    idx = min(len(sorted_ms) - 1, int(pct / 100.0 * len(sorted_ms)))
    return sorted_ms[idx]


def _stats(ms: list) -> dict:
    ms = sorted(ms)
    return {
        "queries": len(ms),
        "p50_ms": round(_percentile(ms, 50.0), 4),
        "p99_ms": round(_percentile(ms, 99.0), 4),
        "max_ms": round(ms[-1], 4) if ms else 0.0,
    }


def time_queries(store: HistoryStore, *, n_full: int, n_mixed: int,
                 seed: int = 0) -> dict:
    """Latency distributions for full-span and mixed zoom queries."""
    rng = random.Random(seed)
    t_first, t_last = store.time_span()
    t_end = t_last + WINDOW_S
    series = [name for name, _ in store.columns
              if name not in ("t_start_s", "t_end_s")]

    full_ms = []
    for _ in range(n_full):
        name = rng.choice(series)
        t0 = time.perf_counter()
        select(store, name, t_first, t_end, (t_end - t_first) / 60.0)
        full_ms.append((time.perf_counter() - t0) * 1e3)

    mixed_ms = []
    for _ in range(n_mixed):
        name = rng.choice(series)
        _label, span, step = rng.choice(ZOOMS)
        if span is None or span >= t_end - t_first:
            q0, q1 = t_first, t_end
            step = (q1 - q0) / 60.0
        else:
            q0 = t_first + rng.uniform(0.0, (t_end - t_first) - span)
            q1 = q0 + span
        t0 = time.perf_counter()
        select(store, name, q0, q1, step)
        mixed_ms.append((time.perf_counter() - t0) * 1e3)

    return {"full_span": _stats(full_ms), "mixed": _stats(mixed_ms)}


def sample_rollups(store: HistoryStore, *, buckets: int = SAMPLE_BUCKETS,
                   seed: int = 0) -> dict:
    """Refold a seeded sample of rollup buckets bitwise from level 0.

    ``verify_rollups`` walks *every* bucket — which pages the whole
    level-0 range into RSS and would defeat the bounded-memory gate
    here, so the benchmark refolds a bounded sample instead (the
    exhaustive check runs in ``tests/obs/test_history.py`` and
    ``repro obs query --check``).
    """
    rng = random.Random(seed)
    checked, mismatches = 0, 0
    for level in range(1, store.n_levels):
        span = store.level_span_rows(level)
        n = store.rows(level)
        if n == 0:
            continue
        picks = rng.sample(range(n), min(buckets, n))
        for b in sorted(picks):
            base = store._rows_block(0, b * span, (b + 1) * span)
            stored = store._rows_block(level, b, b + 1)[0]
            for j, (_name, agg) in enumerate(store.columns):
                refolded = fold_values(base[:, j], agg)
                checked += 1
                if np.float64(refolded).tobytes() != (
                    np.float64(stored[j]).tobytes()
                ):
                    mismatches += 1
    return {"values_checked": checked, "mismatches": mismatches}


def invisibility_smoke(*, seed: int = 0) -> bool:
    """Attaching a history must not change the fleet cube by one bit."""
    cubes = []
    for attach in (False, True):
        log, source = simulated_fleet(
            fleet_nodes=4, days=0.05, seed=seed, chunk_ticks=8,
        )
        engine = StreamEngine(log, interval_s=WINDOW_S, window_s=WINDOW_S)
        if attach:
            engine.attach(history=History())
        for chunk in source:
            engine.ingest(chunk)
        engine.drain()
        cubes.append(engine.cube())
    a, b = cubes
    return (
        np.array_equal(a.energy_j, b.energy_j)
        and np.array_equal(a.gpu_hours, b.gpu_hours)
        and a.cpu_energy_j == b.cpu_energy_j
    )


def measure(*, quick: bool = False, dir=None, seed: int = 0) -> dict:
    rows = int(round(DAYS * 86_400.0 / WINDOW_S))
    n_full = 30 if quick else 100
    n_mixed = 60 if quick else 300

    rss0_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ctx = tempfile.TemporaryDirectory() if dir is None else None
    store_dir = Path(ctx.name if ctx is not None else dir)
    try:
        store = HistoryStore(
            history_columns(), dir=store_dir, window_s=WINDOW_S,
        )
        ingest_s = ingest(store, rows)
        latencies = time_queries(
            store, n_full=n_full, n_mixed=n_mixed, seed=seed,
        )
        rss1_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rollups = sample_rollups(
            store, buckets=SAMPLE_BUCKETS // 2 if quick else SAMPLE_BUCKETS,
            seed=seed,
        )
        written_mb = store.total_bytes() / 2**20
        segments = store.segment_count()
        levels = [store.rows(k) for k in range(store.n_levels)]
        store.close()
    finally:
        if ctx is not None:
            ctx.cleanup()

    return {
        "history_query": {
            "description": (
                f"{DAYS:g}-day synthetic campaign ({rows:,} windows x "
                f"{len(history_columns())} columns) ingested in "
                f"{BATCH_ROWS}-row batches into an on-disk history "
                f"store, then queried via memmap"
            ),
            "rows": rows,
            "level_rows": levels,
            "written_mb": round(written_mb, 2),
            "segments": segments,
            "ingest_s": round(ingest_s, 3),
            "ingest_rows_per_s": round(rows / ingest_s) if ingest_s else 0,
            "rss_ceiling_mb": RSS_CEILING_MB,
            "rss_delta_mb": round((rss1_kb - rss0_kb) / 1024.0, 2),
            **latencies,
            "rollup_sample": rollups,
            "history_invisible": invisibility_smoke(seed=seed),
        },
    }


def check(results: dict) -> int:
    failures = []
    q = results["history_query"]
    if q["written_mb"] <= RSS_CEILING_MB:
        failures.append(
            f"store holds only {q['written_mb']:.1f} MB — not above the "
            f"{RSS_CEILING_MB:.0f} MB ceiling, so nothing is proven "
            f"out-of-core"
        )
    if q["rss_delta_mb"] >= RSS_CEILING_MB:
        failures.append(
            f"peak-RSS delta {q['rss_delta_mb']:.1f} MB reached the "
            f"{RSS_CEILING_MB:.0f} MB ceiling; columns are being "
            f"materialized, not paged"
        )
    if q["rollup_sample"]["mismatches"]:
        failures.append(
            f"{q['rollup_sample']['mismatches']} sampled rollup value(s) "
            f"do not refold bitwise from level 0"
        )
    if not q["history_invisible"]:
        failures.append(
            "attaching a history changed the fleet cube (must be "
            "bitwise invisible)"
        )
    if q["full_span"]["p99_ms"] >= LIVE_P99_LIMIT_MS:
        failures.append(
            f"live full-span p99 {q['full_span']['p99_ms']:.2f} ms over "
            f"the {LIVE_P99_LIMIT_MS:.0f} ms disaster bound"
        )

    if BASELINE_PATH.exists():
        ref = json.loads(BASELINE_PATH.read_text())["history_query"]
        if ref["full_span"]["p99_ms"] >= QUERY_P99_LIMIT_MS:
            failures.append(
                f"recorded full-span p99 {ref['full_span']['p99_ms']:.2f} "
                f"ms breaks the < {QUERY_P99_LIMIT_MS:g} ms bar; "
                f"re-record on the reference machine"
            )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--record", action="store_true",
                        help="write the measured results as the baseline")
    parser.add_argument("--check", action="store_true",
                        help="gate RSS, latency, and bitwise exactness")
    parser.add_argument("--quick", action="store_true",
                        help="fewer timed queries (CI mode; same 90-day "
                             "store — the RSS proof needs the full size)")
    parser.add_argument("--dir", default=None, metavar="DIR",
                        help="build the store here instead of a temp dir "
                             "(kept afterwards, e.g. for CI artifacts)")
    parser.add_argument("--history", action="store_true",
                        help="append this run to BENCH_history.jsonl and "
                             "flag >20%% drift vs the trailing median")
    args = parser.parse_args(argv)

    results = measure(quick=args.quick, dir=args.dir)
    results["quick"] = args.quick
    print(json.dumps(results, indent=2))

    if args.history:
        import bench_history

        flags = bench_history.drift_flags(
            bench_history.timings_from_results(results),
            bench_history.load_history(),
        )
        bench_history.append_run(results, quick=args.quick)
        for flag in flags:
            print(f"DRIFT: {flag}")

    if args.record:
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
    if args.check:
        return check(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
