"""Extension: streaming ingestion vs the batch pipeline.

The paper analyzed its three months of telemetry after the fact; an
operational power manager has to produce the same answers online.  This
experiment drives the :mod:`repro.stream` engine over one campaign's
telemetry three ways — in event-time order, shuffled within a lateness
horizon, and shuffled with injected duplicate records — and checks that
every drained run reproduces the batch join *bitwise* (canonical-window
contract) while agreeing with the node-major batch experiments to float
tolerance.  It also reports what the batch path cannot: ingest
statistics (duplicates, late drops, peak resident samples) and the
fleet cap advice available at the final watermark.

A fourth, deliberately broken delivery exercises the health layer: the
engine gets no lateness allowance and a window far smaller than the
delivery jitter, so a deterministic share of samples arrives behind the
sealed frontier and is dropped — and the default alert ruleset must
notice.  The resulting
event-time alert timeline (pending/firing/resolved transitions of the
``stream_late_dropped`` rate rule and friends) is part of the
experiment's output.
"""

from __future__ import annotations

import numpy as np

from .. import constants, units
from ..core import decompose_modes, join_campaign, measured_factors
from ..core.join import cubes_equal
from ..obs.health import DriftReference, HealthMonitor, render_events
from ..scheduler import SlurmSimulator, default_mix
from ..stream import StreamEngine, canonical_windows, perturb, replay_store
from ..telemetry import FleetTelemetryGenerator
from .registry import ExperimentConfig, ExperimentResult

#: Event-time window and allowed lateness (aggregated ticks).
WINDOW_TICKS = 40
LATENESS_TICKS = 8
DUP_FRACTION = 0.05


def run(config: ExperimentConfig) -> ExperimentResult:
    # A streaming-sized slice of the configured campaign: the contract
    # is scale-invariant and the perturbed replays materialize rows.
    fleet_nodes = min(config.fleet_nodes, 32)
    days = min(config.days, 1.0)
    mix = default_mix(fleet_nodes=fleet_nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=config.seed)
    gen = FleetTelemetryGenerator(log, mix, seed=config.seed + 1000)
    store = gen.generate()

    window_s = WINDOW_TICKS * constants.TELEMETRY_INTERVAL_S
    lateness_s = LATENESS_TICKS * constants.TELEMETRY_INTERVAL_S
    batch = join_campaign(canonical_windows(store, window_s=window_s), log)
    node_major = join_campaign(store, log)

    runs = {}
    for label, source, lateness in (
        ("in-order", replay_store(store, chunk_ticks=20), 0.0),
        (
            "shuffled",
            perturb(store, seed=config.seed, lateness_s=lateness_s),
            lateness_s,
        ),
        (
            "shuffled+dup",
            perturb(
                store,
                seed=config.seed + 1,
                lateness_s=lateness_s,
                dup_fraction=DUP_FRACTION,
            ),
            lateness_s,
        ),
    ):
        engine = StreamEngine(
            log, window_s=window_s, lateness_s=lateness
        ).run(source)
        runs[label] = engine

    factors = measured_factors("frequency")
    lines = [
        f"streaming vs batch on {fleet_nodes} nodes x {days:g} days "
        f"(window {window_s:.0f} s, lateness {lateness_s:.0f} s):",
        "",
        f"{'delivery':<14} {'bitwise':>8} {'dups':>7} {'late':>6} "
        f"{'peak resident':>14} {'max|dE| (J)':>12}",
    ]
    data = {"bitwise": {}, "stats": {}}
    for label, engine in runs.items():
        cube = engine.cube()
        equal = cubes_equal(cube, batch)
        s = engine.stats
        gap = float(np.abs(cube.energy_j - node_major.energy_j).max())
        lines.append(
            f"{label:<14} {str(equal):>8} {s.duplicates:>7} "
            f"{s.late_dropped:>6} {s.peak_resident_samples:>14} "
            f"{gap:>12.3g}"
        )
        data["bitwise"][label] = equal
        data["stats"][label] = {
            "duplicates": s.duplicates,
            "late_dropped": s.late_dropped,
            "peak_resident_samples": s.peak_resident_samples,
            "samples_in": s.samples_in,
            "node_major_max_abs_diff_j": gap,
        }

    snapshot = runs["shuffled+dup"].snapshot(
        factors=factors, campaign_energy_mwh=config.campaign_energy_mwh
    )
    lines.append("")
    lines.append(
        "the drained stream reproduces the batch join bitwise under "
        "every delivery; the node-major batch cube agrees to float "
        "rounding (grouping of the float adds differs)."
    )
    lines.append("")
    lines.append(snapshot.render())

    # Health layer under a broken delivery: give the engine no lateness
    # allowance and a window shorter than the delivery jitter, so a
    # deterministic share of samples arrives behind the sealed frontier
    # and drops.  The drift reference is pinned to the batch
    # decomposition, and the event-time alert timeline is recorded.
    # Uses its own monitor/registry, so the experiment output is
    # identical whether global observability is on or off.
    monitor = HealthMonitor(
        reference=DriftReference.from_table(
            decompose_modes(batch), label="batch Table IV"
        )
    )
    broken_window_s = lateness_s / 4
    broken = StreamEngine(
        log, window_s=broken_window_s, lateness_s=0.0
    ).attach(health=monitor)
    broken.run(perturb(
        store,
        seed=config.seed + 2,
        lateness_s=lateness_s,
        rows_per_chunk=512,
    ))
    broken_stats = broken.stats
    health = monitor.to_health_dict()
    fired = sorted({
        ev["rule"] for ev in monitor.events if ev["transition"] == "firing"
    })
    lines.append("")
    lines.append(
        f"health layer on a broken delivery ({broken_window_s:.0f} s "
        f"windows, no lateness allowance, {lateness_s:.0f} s delivery "
        f"jitter): {broken_stats.late_dropped} of "
        f"{broken_stats.samples_in} samples dropped late, final status "
        f"{health['status']!r}"
    )
    lines.append(render_events(
        monitor.events, title="alert timeline (event time):"
    ))

    rec = snapshot.recommendation
    data["recommendation"] = {
        "cap": rec.cap if rec is not None else None,
        "savings_pct": rec.savings_pct if rec is not None else 0.0,
    }
    data["table4_gpu_hours_pct"] = (
        snapshot.table4.gpu_hours_pct if snapshot.table4 else None
    )
    data["alerts"] = {
        "late_dropped": broken_stats.late_dropped,
        "samples_in": broken_stats.samples_in,
        "status": health["status"],
        "fired_rules": fired,
        "timeline": list(monitor.events),
    }
    return ExperimentResult(
        exp_id="ext_stream",
        title="",
        text="\n".join(lines),
        data=data,
    )
