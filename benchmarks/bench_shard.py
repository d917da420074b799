#!/usr/bin/env python
"""Sharded campaign engine: scaling benchmark and regression gate.

Measures ingest+fold throughput of the sharded campaign engine
(:mod:`repro.stream.shard`) versus worker count, verifies the bitwise
shard-count invariance contract live, and records the results in
``benchmarks/BENCH_shard.json``.

Scaling is derived honestly for the machine at hand:

* with at least as many cores as workers, each worker count is **run**
  and wall-clock measured (``"mode": "measured"``);
* on smaller machines (CI runners, laptops), per-shard task durations
  are measured serially and the pool makespan is computed from the
  actual greedy assignment ProcessPoolExecutor performs
  (``"mode": "projected"`` — the model has no communication term, so
  it is the machine-independent upper bound the reference run must
  then meet).

The hard gate (``--check``) fails when:

* the sharded cube is not bitwise identical across shard counts
  (1 vs 4, live, every run);
* a 2-worker pool run does not reproduce the serial cube exactly
  (live pool-machinery smoke, every run);
* the recorded baseline's 1 -> 8 worker scaling is below
  :data:`MIN_SHARD_SCALING` (the acceptance bar for the engine);
* the live serial fold is >2x slower than the recorded baseline.

Modes::

    python benchmarks/bench_shard.py            # measure and report
    python benchmarks/bench_shard.py --record   # measure and (re)write baseline
    python benchmarks/bench_shard.py --check    # gate (CI)
    python benchmarks/bench_shard.py --check --quick --history
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_shard.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_history  # noqa: E402
from repro import units  # noqa: E402
from repro.core.join import cubes_equal  # noqa: E402
from repro.parallel import partition  # noqa: E402
from repro.scheduler import SlurmSimulator, default_mix  # noqa: E402
from repro.stream.shard import (  # noqa: E402
    ShardConfig,
    _shard_task,
    plan_units,
    run_sharded_campaign,
)

#: Minimum 1 -> 8 worker throughput scaling on the recorded reference
#: run (the tentpole's acceptance bar, gated by ``make bench-quick``).
MIN_SHARD_SCALING = 3.0
#: --check fails when the live serial fold is more than this factor
#: slower than the recorded baseline.
REGRESSION_FACTOR = 2.0

WORKER_COUNTS = (1, 2, 4, 8)

#: Benchmark campaign: 64 nodes x 6 h in 4-node fold units -> 16 units
#: over 8 shards, so the 8-worker critical path is 2 units.
FLEET_NODES = 64
DAYS = 0.25
UNIT_NODES = 4
SHARDS = 8


def _campaign_inputs(quick: bool):
    nodes = FLEET_NODES // 2 if quick else FLEET_NODES
    days = DAYS / 2 if quick else DAYS
    cfg = ShardConfig(unit_nodes=UNIT_NODES)
    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=0)
    return nodes, days, cfg, log


def _makespan(durations_s, workers: int) -> float:
    """Pool makespan of the shard tasks under greedy assignment.

    ProcessPoolExecutor hands the next queued task to whichever worker
    frees up first — exactly the greedy list-scheduling this simulates.
    """
    free = [0.0] * min(workers, len(durations_s))
    heapq.heapify(free)
    for d in durations_s:
        heapq.heappush(free, heapq.heappop(free) + d)
    return max(free) if free else 0.0


def measure_scaling(rounds: int, quick: bool) -> dict:
    nodes, days, cfg, log = _campaign_inputs(quick)
    cores = os.cpu_count() or 1
    log_arrays = log.to_arrays()
    unit_grid = plan_units(log.n_nodes, cfg.unit_nodes)
    shard_ranges = partition(len(unit_grid), SHARDS)

    # Per-shard task durations, best-of-rounds, measured serially so
    # the numbers are contention-free on any machine.
    shard_ms = [float("inf")] * len(shard_ranges)
    samples = 0
    for _ in range(rounds):
        samples = 0
        for i, (lo, hi) in enumerate(shard_ranges):
            t0 = time.perf_counter()
            _states, counters = _shard_task(
                log_arrays, log.n_nodes, 1000, unit_grid[lo:hi], cfg,
                None, False, None,
            )
            shard_ms[i] = min(
                shard_ms[i], (time.perf_counter() - t0) * 1e3
            )
            samples += int(sum(c[1] for c in counters))

    # Serial end-to-end reference (includes simulate + merge).
    serial_ms = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = run_sharded_campaign(
            fleet_nodes=nodes, days=days, seed=0, shards=SHARDS,
            workers=0, cfg=cfg, log=log,
        )
        serial_ms = min(serial_ms, (time.perf_counter() - t0) * 1e3)
    overhead_ms = max(0.0, serial_ms - sum(shard_ms))

    measured_mode = cores >= max(WORKER_COUNTS)
    per_worker = {}
    for w in WORKER_COUNTS:
        if measured_mode and w > 1:
            wall = float("inf")
            for _ in range(rounds):
                t0 = time.perf_counter()
                run_sharded_campaign(
                    fleet_nodes=nodes, days=days, seed=0,
                    shards=SHARDS, workers=w, cfg=cfg, log=log,
                )
                wall = min(wall, (time.perf_counter() - t0) * 1e3)
        else:
            wall = overhead_ms + _makespan(
                [ms / 1e3 for ms in shard_ms], w
            ) * 1e3
        per_worker[str(w)] = {
            "wall_ms": round(wall, 3),
            "samples_per_s": round(samples / (wall / 1e3)),
            "speedup": round(per_worker["1"]["wall_ms"] / wall, 2)
            if "1" in per_worker else 1.0,
        }
    speedup_8 = per_worker[str(max(WORKER_COUNTS))]["speedup"]

    return {
        "description": (
            f"sharded campaign ingest+fold: {nodes} nodes x "
            f"{days:g} days, {len(unit_grid)} fold units of "
            f"{cfg.unit_nodes} nodes over {len(shard_ranges)} shards"
        ),
        "mode": "measured" if measured_mode else "projected",
        "cores": cores,
        "samples": samples,
        "serial_ms": round(serial_ms, 3),
        "parent_overhead_ms": round(overhead_ms, 3),
        "shard_ms": [round(ms, 3) for ms in shard_ms],
        "workers": per_worker,
        "speedup_8": speedup_8,
    }


def measure_identity(quick: bool) -> dict:
    """Live contract checks: shard-count invariance + pool machinery."""
    nodes, days, cfg, log = _campaign_inputs(quick)

    kw = dict(fleet_nodes=nodes, days=days, seed=0, cfg=cfg, log=log)
    ref = run_sharded_campaign(shards=1, **kw).cube
    shard_counts_ok = all(
        cubes_equal(run_sharded_campaign(shards=s, **kw).cube, ref)
        for s in (4,)
    )
    pool_ok = cubes_equal(
        run_sharded_campaign(shards=4, workers=2, **kw).cube, ref
    )
    return {
        "description": (
            "bitwise contract, verified live: the merged cube at 4 "
            "shards (serial and in a 2-worker pool) vs 1 shard"
        ),
        "shard_count_invariant": bool(shard_counts_ok),
        "pool_invariant": bool(pool_ok),
    }


def measure(rounds: int, quick: bool) -> dict:
    return {
        "shard_scaling": measure_scaling(rounds, quick),
        "bitwise_identity": measure_identity(quick),
        "rounds": rounds,
    }


def check(results: dict) -> int:
    failures = []
    identity = results["bitwise_identity"]
    if not identity["shard_count_invariant"]:
        failures.append("sharded cube diverged across shard counts")
    if not identity["pool_invariant"]:
        failures.append("2-worker pool run diverged from the serial fold")

    scaling = results["shard_scaling"]
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        ref = baseline["shard_scaling"]
        if ref["speedup_8"] < MIN_SHARD_SCALING:
            failures.append(
                f"recorded 1->8 worker scaling {ref['speedup_8']:.2f}x "
                f"below the {MIN_SHARD_SCALING:.0f}x bar "
                f"(mode {ref['mode']}); re-record on the reference "
                f"machine"
            )
        # Regression gate on the serial fold: same-config baselines
        # only (quick halves the campaign, so the scales differ).
        if results.get("quick") == baseline.get("quick"):
            now, then = scaling["serial_ms"], ref["serial_ms"]
            if now > REGRESSION_FACTOR * then:
                failures.append(
                    f"serial sharded fold: {now:.0f} ms vs baseline "
                    f"{then:.0f} ms (>{REGRESSION_FACTOR:.0f}x "
                    f"regression)"
                )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")

    if scaling["mode"] == "measured":
        if scaling["speedup_8"] < MIN_SHARD_SCALING:
            failures.append(
                f"measured 1->8 worker scaling {scaling['speedup_8']:.2f}x "
                f"below the {MIN_SHARD_SCALING:.0f}x bar"
            )
    else:
        print(
            f"note: {scaling['cores']} core(s) — scaling is the "
            f"projected pool makespan ({scaling['speedup_8']:.2f}x at 8 "
            f"workers); the hard scaling gate applies to the recorded "
            f"reference run"
        )

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def timings(results: dict) -> dict:
    # Drift tracking is one-sided (above-median = slower), so only the
    # wall-clock scalar is tracked; the scaling factor has its own hard
    # gate in check().
    return {"shard_serial_ms": results["shard_scaling"]["serial_ms"]}


GATE = bench_history.Gate(
    source="bench_shard",
    doc=__doc__,
    baseline=BASELINE_PATH,
    measure=lambda args: measure(2 if args.quick else 4, args.quick),
    check=check,
    timings=timings,
    check_help="gate identity, scaling, and regressions",
    quick_help="half-size campaign, fewer rounds (CI mode)",
)


if __name__ == "__main__":
    sys.exit(bench_history.run_gate(GATE))
