#!/usr/bin/env python
"""Batched-engine speedup benchmark and regression gate.

Times the paper's Fig 4 evaluation (both knobs, full arithmetic-intensity
grid) two ways — the point-by-point scalar :class:`CapSweep` path and the
batched :class:`GridSweep` path — plus the vectorized telemetry join, and
records the best-of-N times in ``benchmarks/BENCH_batch.json``.  Best-of
is the ``timeit`` convention: the minimum over rounds measures the code,
the spread above it measures scheduler/cache interference.

Modes::

    python benchmarks/bench_batch.py            # measure and report
    python benchmarks/bench_batch.py --record   # measure and (re)write baseline
    python benchmarks/bench_batch.py --check    # fail if >2x slower than baseline
    python benchmarks/bench_batch.py --check --quick   # fewer rounds (CI)

The scalar path clears the power-cap memo between rounds so the
comparison measures the solver, not the cache.  The acceptance bar for
this repo is a >=10x batched speedup on the Fig 4 grid; ``--check``
enforces both that bar and the 2x regression gate on absolute times.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_batch.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import bench_history  # noqa: E402
from repro import constants, units  # noqa: E402
from repro.bench.sweep import CapSweep  # noqa: E402
from repro.bench.vai import VAIBenchmark  # noqa: E402
from repro.core import join_campaign  # noqa: E402
from repro.gpu import GPUDevice  # noqa: E402
from repro.gpu.kernel import KernelBatch  # noqa: E402
from repro.gpu.powercap import clear_powercap_cache  # noqa: E402
from repro.gpu.specs import default_spec  # noqa: E402
from repro.obs import runtime as obs_runtime  # noqa: E402
from repro.scheduler import SlurmSimulator, default_mix  # noqa: E402
from repro.stream.buffer import ReorderBuffer  # noqa: E402
from repro.telemetry import FleetTelemetryGenerator  # noqa: E402
from repro.telemetry.schema import TelemetryChunk  # noqa: E402

FIG4_FREQ_CAPS = constants.FREQUENCY_CAPS_MHZ[1:]
FIG4_POWER_CAPS = (500, 400, 300, 200, 100)

#: --check fails when a timed target is more than this factor slower
#: than its recorded baseline median.
REGRESSION_FACTOR = 2.0
#: Minimum batched speedup on the Fig 4 grid (the tentpole's bar).
MIN_SPEEDUP = 10.0
#: Maximum no-op instrumentation overhead on the hot paths, percent.
#: The observability wrappers must stay invisible when disabled.
OVERHEAD_BUDGET_PCT = 2.0


def best_ms(*fns, rounds: int, inner: int = 1):
    """Best-of-``rounds`` time for each ``fn()`` call, in milliseconds.

    Each sample times ``inner`` consecutive calls and divides — short
    targets are otherwise dominated by timer/scheduler jitter.  One
    untimed warmup call absorbs lazy imports and allocator growth.
    Passing several targets interleaves their rounds, so ambient load
    shifts (CPU contention, frequency scaling) hit every target alike
    instead of biasing whichever happened to run during the quiet window.
    """
    for fn in fns:
        fn()
    samples = [[] for _ in fns]
    for _ in range(rounds):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            out.append((time.perf_counter() - t0) * 1e3 / inner)
    best = [min(s) for s in samples]
    return best[0] if len(fns) == 1 else best


def fig4_sweeps(batched: bool):
    bench = VAIBenchmark()

    def run():
        # The memo cache would let later rounds (and the scalar path in
        # particular) skip every bisection; clear it so each round times
        # the full solve.
        clear_powercap_cache()
        harness = CapSweep(bench, batched=None if batched else False)
        harness.frequency_sweep(FIG4_FREQ_CAPS)
        harness.power_sweep(FIG4_POWER_CAPS)

    return run


def join_target():
    mix = default_mix(fleet_nodes=16)
    log = SlurmSimulator(mix).run(units.days(1), rng=0)
    store = FleetTelemetryGenerator(log, mix, seed=1).generate()

    def run():
        join_campaign(store, log)

    return run


def _synthetic_chunks(n_chunks: int = 48, nodes: int = 16,
                      ticks: int = 16) -> list:
    """In-order arrival chunks for the ingest benchmark (~256 rows each)."""
    interval = constants.TELEMETRY_INTERVAL_S
    rng = np.random.default_rng(7)
    chunks = []
    tick0 = 0
    for _ in range(n_chunks):
        tt = np.arange(tick0, tick0 + ticks, dtype=np.float64) * interval
        time = np.repeat(tt, nodes)
        node = np.tile(np.arange(nodes, dtype=np.int32), ticks)
        gpu = rng.uniform(
            80.0, 560.0, size=(len(time), constants.GPUS_PER_NODE)
        ).astype(np.float32)
        cpu = rng.uniform(40.0, 200.0, size=len(time)).astype(np.float32)
        chunks.append(TelemetryChunk(
            time_s=time, node_id=node, gpu_power_w=gpu, cpu_power_w=cpu,
        ))
        tick0 += ticks
    return chunks


def stream_ingest_target():
    """ReorderBuffer.push throughput over a full synthetic stream."""
    chunks = _synthetic_chunks()
    total = sum(len(c) for c in chunks)
    interval = constants.TELEMETRY_INTERVAL_S

    def run(push_attr: str = "push"):
        buf = ReorderBuffer(interval_s=interval, lateness_s=2 * interval)
        push = getattr(buf, push_attr)
        for c in chunks:
            push(c)
        buf.flush()

    return run, total


def _overhead_pct(wrapped_fn, raw_fn, *, rounds: int, inner: int) -> float:
    """Per-round paired wrapped/raw ratio, minimum over rounds, as percent.

    Scheduler and allocator noise is additive, so any single round can
    only overstate the ratio; the cleanest round bounds the true
    overhead from above.  Pairing both legs inside one round keeps slow
    ambient drift (CPU frequency scaling, co-tenants) out of the ratio.
    """
    for fn in (wrapped_fn, raw_fn):
        fn()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(inner):
            wrapped_fn()
        a = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(inner):
            raw_fn()
        b = time.perf_counter() - t0
        best = min(best, a / b)
    return max(0.0, 100.0 * (best - 1.0))


def measure_overhead(rounds: int) -> dict:
    """No-op instrumentation overhead (observability disabled), percent.

    Times each hot path through its public wrapper and through the raw
    ``_impl`` body on the same inputs.  With observability off the
    difference is one module-global read and a branch; the budget is
    :data:`OVERHEAD_BUDGET_PCT`.
    """
    obs_runtime.disable()

    ingest, _total = stream_ingest_target()
    push_pct = _overhead_pct(
        lambda: ingest("push"),
        lambda: ingest("_push_impl"),
        rounds=rounds,
        inner=2,
    )

    bench = VAIBenchmark()
    spec = default_spec()
    batch = KernelBatch.from_kernels(bench.grid_kernels(spec))
    device = GPUDevice(spec)
    run_batch_pct = _overhead_pct(
        lambda: device.run_batch(batch),
        lambda: device._run_batch_impl(batch),
        rounds=rounds,
        inner=30,
    )

    return {
        "description": (
            "no-op overhead of the observability wrappers with "
            "observability disabled (public method vs raw _impl)"
        ),
        "push_pct": round(push_pct, 3),
        "run_batch_pct": round(run_batch_pct, 3),
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }


def measure(rounds: int) -> dict:
    # The two sweep paths are interleaved with the same inner-repeat
    # count so jitter suppression is symmetric; the join is long enough
    # on its own.
    scalar_ms, batched_ms = best_ms(
        fig4_sweeps(batched=False),
        fig4_sweeps(batched=True),
        rounds=rounds,
        inner=3,
    )
    join_ms = best_ms(join_target(), rounds=rounds)
    ingest, ingest_samples = stream_ingest_target()
    ingest_ms = best_ms(ingest, rounds=rounds, inner=2)
    return {
        "fig4_grid": {
            "description": (
                "Fig 4 evaluation, both knobs: "
                f"{len(FIG4_FREQ_CAPS) + 1}+{len(FIG4_POWER_CAPS) + 1} caps "
                f"x {len(constants.VAI_INTENSITIES)} intensities"
            ),
            "scalar_capsweep_ms": round(scalar_ms, 3),
            "batched_capsweep_ms": round(batched_ms, 3),
            "speedup": round(scalar_ms / batched_ms, 2),
        },
        "join": {
            "description": (
                "join_campaign, 16 nodes x 1 day of telemetry "
                "(vectorized labelling + grouped histograms)"
            ),
            "best_ms": round(join_ms, 3),
        },
        "stream_ingest": {
            "description": (
                "ReorderBuffer.push + flush over "
                f"{ingest_samples} in-order samples (48 chunks, 16 nodes)"
            ),
            "best_ms": round(ingest_ms, 3),
            "samples_per_s": round(ingest_samples / (ingest_ms / 1e3)),
        },
        "rounds": rounds,
    }


def check_overhead(results: dict) -> list:
    """Failures against the no-op instrumentation budget."""
    failures = []
    overhead = results.get("obs_overhead")
    if overhead is None:
        return failures
    for key, label in (
        ("push_pct", "ReorderBuffer.push"),
        ("run_batch_pct", "GPUDevice.run_batch"),
    ):
        pct = overhead[key]
        if pct >= OVERHEAD_BUDGET_PCT:
            failures.append(
                f"no-op obs overhead on {label}: {pct:.2f} % >= "
                f"{OVERHEAD_BUDGET_PCT:.0f} % budget"
            )
    return failures


def check(results: dict) -> int:
    failures = check_timings(results) if "fig4_grid" in results else []
    failures.extend(check_overhead(results))
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def check_timings(results: dict) -> list:
    """Failures against the speedup bar and the recorded baseline."""
    failures = []
    speedup = results["fig4_grid"]["speedup"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"fig4 batched speedup {speedup:.1f}x below the "
            f"{MIN_SPEEDUP:.0f}x bar"
        )
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        pairs = [
            (
                "fig4 batched sweep",
                results["fig4_grid"]["batched_capsweep_ms"],
                baseline["fig4_grid"]["batched_capsweep_ms"],
            ),
            (
                "telemetry join",
                results["join"]["best_ms"],
                baseline["join"]["best_ms"],
            ),
            (
                "stream ingest",
                results["stream_ingest"]["best_ms"],
                baseline.get("stream_ingest", {}).get("best_ms"),
            ),
        ]
        for name, now, then in pairs:
            # Baselines recorded before a target existed have no entry
            # for it; --record refreshes them.
            if then is None:
                continue
            if now > REGRESSION_FACTOR * then:
                failures.append(
                    f"{name}: {now:.2f} ms vs baseline {then:.2f} ms "
                    f"(>{REGRESSION_FACTOR:.0f}x regression)"
                )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")
    return failures


def measure_gate(args) -> dict:
    results = {} if args.overhead_only else measure(3 if args.quick else 7)
    # The overhead A/B needs enough rounds for a stable best-of even in
    # --quick mode: the gate is a 2 % band, not a 2x factor.
    results["obs_overhead"] = measure_overhead(9)
    return results


def timings(results: dict) -> dict:
    return {
        "fig4_scalar_ms": results["fig4_grid"]["scalar_capsweep_ms"],
        "fig4_batched_ms": results["fig4_grid"]["batched_capsweep_ms"],
        "join_ms": results["join"]["best_ms"],
        "stream_ingest_ms": results["stream_ingest"]["best_ms"],
    }


GATE = bench_history.Gate(
    source="bench_batch",
    doc=__doc__,
    baseline=BASELINE_PATH,
    measure=measure_gate,
    check=check,
    timings=timings,
    check_help="fail on >2x regression vs the baseline",
    quick_help="fewer timing rounds (CI mode)",
    flags=(
        ("--overhead-only", dict(
            action="store_true",
            help="only measure/gate the no-op obs overhead",
        )),
    ),
    partial="overhead_only",
)


if __name__ == "__main__":
    sys.exit(bench_history.run_gate(GATE))
