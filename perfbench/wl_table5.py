"""table5-batch: the ``repro run table5`` path at its default config.

Set-up (untimed, per repetition): ``SlurmSimulator`` for 96 nodes x 4
days and the measured Table III factors of both knobs.  Timed: the
node-major ``FleetTelemetryGenerator.chunks`` feeding ``join_campaign``,
then ``project_savings`` for both knobs and the Table V render — the
experiment's own code, with its cached campaign replaced by the cube
this repetition just built, so nothing carries over between
repetitions.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import Counter

import common
from common import Metric, Outcome

FLEET_NODES = 96
DAYS = 4.0
NODES_PER_CHUNK = 16
#: SHA-256 of ``results/table5.txt`` (the artifact at seed 0, newline-terminated).
SEED0_TABLE5_SHA256 = (
    "eaa945e6717d3e8a0fc4070ebd471790ac24f7142bcf1d1bc356546e00ca176e"
)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    common.use_source_tree()
    from repro import constants, units
    from repro.core import characterization
    from repro.core import join as joinmod
    from repro.experiments import table5
    from repro.experiments.registry import ExperimentConfig
    from repro.scheduler import SlurmSimulator, default_mix
    from repro.telemetry import FleetTelemetryGenerator

    config = ExperimentConfig(fleet_nodes=FLEET_NODES, days=DAYS, seed=seed)
    tracer = counts = None
    state = {}
    setups, times, texts, rows, folded = [], [], [], [], []
    wall_clock = []
    speed = common.HostSpeed()

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def rep(_i):
        speed.sample()
        t0 = common.clock()
        with span("setup"):
            mix = default_mix(fleet_nodes=FLEET_NODES)
            log = SlurmSimulator(mix).run(units.days(DAYS), rng=seed)
            state["factors"] = {
                knob: characterization.measured_factors(knob)
                for knob in ("frequency", "power")
            }
            gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
        setups.append(common.clock() - t0)

        t0, w0 = common.clock(), time.perf_counter()
        with span("run"):
            state["cube"] = joinmod.join_campaign(
                gen.chunks(nodes_per_chunk=NODES_PER_CHUNK), log
            )
            text = table5.run(config).text
        times.append(common.clock() - t0)
        wall_clock.append(time.perf_counter() - w0)
        texts.append(text)
        rows.append(log.n_nodes * gen.n_samples)
        # Every GPU reading of every row lands in the power histogram.
        folded.append(
            state["cube"].histogram.counts.sum() / constants.GPUS_PER_NODE
        )

    # The experiment reads its campaign and factors through these module
    # names; point them at what the current repetition built.
    originals = (table5.campaign_cube, table5.measured_factors)
    table5.campaign_cube = lambda _config: state["cube"]
    table5.measured_factors = lambda knob: state["factors"][knob]
    try:
        if trace:
            from layers import install
            from tracing import Tracer

            tracer, counts = Tracer(), Counter()
            install(tracer, counts)
        common.repeat(seconds, rep)
        if trace:
            # One more repetition, untraced, prices the tracing itself.
            tracer.restore()
            traced, tracer = tracer, None   # no root span either
            rep(-1)
            untraced, tracer = times.pop(), traced
            setups.pop(), wall_clock.pop()
    finally:
        if tracer:
            tracer.restore()
        table5.campaign_cube, table5.measured_factors = originals

    rss = common.peak_rss_mb()
    checks = []
    digest = hashlib.sha256((texts[0] + "\n").encode()).hexdigest()
    if seed == 0:
        checks.append((
            "table5 text equals results/table5.txt",
            digest == SEED0_TABLE5_SHA256,
            f"sha256 {digest[:16]}",
        ))
    same = sum(t == texts[0] for t in texts)
    checks.append((
        "every repetition renders the same Table V",
        same == len(texts),
        f"{same} / {len(texts)} identical",
    ))
    checks.append((
        "rows folded = nodes x samples",
        folded == rows,
        f"{rows[0]} rows per repetition",
    ))
    failed = 0 if all(ok for _, ok, _ in checks) else len(texts)

    # Every time in reference-host seconds (see common.HostSpeed).
    scale = speed.scale
    time_ms = [1e3 * scale * t for t in times]
    metrics = {
        common.SETUP_S: Metric(
            scale * common.median(setups),
            f"median of {len(setups)} set-ups (scheduler + factors)",
        ),
        common.THROUGHPUT: Metric(
            rows[0] / (scale * common.median(times)),
            f"{rows[0]} telemetry rows folded per repetition / median "
            f"time of {len(times)} repetitions (rows/s)",
        ),
        common.LATENCY_P50: Metric(
            common.median(time_ms),
            f"time to a rendered Table V, median of {len(times)}",
        ),
        # 15-30 repetitions fit a run: no high percentile has ten samples
        # beyond it, and p90 would be one of the slowest three.
        common.LATENCY_TAIL: Metric(
            common.percentile(time_ms, 75),
            f"time to a rendered Table V, p75 of {len(times)}",
        ),
        common.PEAK_RSS: Metric(rss, "peak RSS of the worker process"),
    }
    out = Outcome(
        workload=workload,
        metrics=metrics,
        attempted=len(texts),
        failed=failed,
        checks=checks,
        notes=[speed.note(), common.clock_note(times, wall_clock)],
    )
    if trace:
        finish_trace(out, tracer, counts, untraced=untraced, times=times)
        layers = out.layers
        share = (
            layers["telemetry.render_s"] / layers["trace.wall_s"]
            + layers["join.update_share"] + layers["join.campaign_self_share"]
        )
        out.notes.append(
            f"hot spot: generation + join = {100.0 * share:.1f} % of the "
            "traced wall"
        )
    return out


def finish_trace(out, tracer, counts, *, untraced, times) -> None:
    """Per-layer figures, the layer table and the tracing overhead."""
    from layers import layer_metrics, per_repetition
    from tracing import layer_rows, render_table

    layers = layer_metrics(tracer, counts, root="run")
    layers["trace.overhead_s"] = len(times) * (common.median(times) - untraced)
    out.layers = per_repetition(layers, len(times))
    wall, rows, unattributed = layer_rows(tracer.spans, "run")
    out.table = render_table(
        f"layer table: {len(times)} traced repetitions",
        wall, rows, unattributed,
    )
    out.notes.append(
        f"tracing overhead: {common.median(times):.4f} s traced vs "
        f"{untraced:.4f} s untraced per repetition"
    )
