"""Extension: the closed-loop control plane banking real energy.

The paper's Table V is an open-loop projection: fold three months of
telemetry, then report what a fleet cap *would have* saved.  The
control plane (:mod:`repro.serve`) closes the loop: it publishes a cap
recommendation from every sealed window and a live fleet applies it to
the windows that follow.  This experiment simulates exactly that — one
campaign streamed chunk by chunk through a
:class:`~repro.serve.service.ControlPlane`, with a window observer
playing the role of the fleet's power manager: each newly sealed window
is charged at the *currently published* cap (one refresh of control
delay, as a real deployment would have), scaling the MI/CI region
energies by the measured cap factors and accumulating the runtime cost
the same energy-weighted way the projection does.

Checks, all printed and asserted in the result data:

* the recommendation converges (the published cap stops changing once
  enough windows have sealed);
* the closed-loop campaign banks energy: capped <= uncapped, with the
  energy-weighted slowdown inside the policy budget;
* the served analytics are *bitwise* equal to an offline batch fold of
  the same sealed windows (per-job matrices, fleet cube, and the cap
  decision itself), and the slowdown-objective decision lands on the
  same cap as the stream layer's Table V advisor;
* the objective menu spreads as expected: ``energy`` caps at least as
  aggressively as ``edp`` >= ``ed2p``, and ``slowdown`` respects the
  budget.
"""

from __future__ import annotations

import numpy as np

from .. import constants, units
from ..core import join_campaign, measured_factors
from ..core.join import cubes_equal, region_index
from ..scheduler import SlurmSimulator, default_mix
from ..serve import ControlPlane, JobAccumulator, decide_cap
from ..serve.objectives import objective_names
from ..stream import canonical_windows, replay_store
from ..telemetry import FleetTelemetryGenerator
from .registry import ExperimentConfig, ExperimentResult

#: Event-time window (aggregated ticks), matching ext_stream.
WINDOW_TICKS = 40


class ClosedLoopBank:
    """The simulated fleet: charges each sealed window at the live cap."""

    def __init__(self, plane: ControlPlane) -> None:
        self.plane = plane
        self.factors = plane.factors
        self.interval_s = plane.engine.buffer.interval_s
        self.uncapped_j = 0.0
        self.capped_j = 0.0
        self.slowdown_weight_j = 0.0
        self.windows_capped = 0
        self.windows_uncapped = 0

    def update(self, window) -> None:
        if not len(window):
            return
        power = window.gpu_power_w
        region_j = np.bincount(
            region_index(power).reshape(-1),
            weights=power.reshape(-1).astype(np.float64),
            minlength=4,
        ) * self.interval_s
        total_j = float(region_j.sum())
        self.uncapped_j += total_j
        view = self.plane.cache.view
        decision = view.decision if view is not None else None
        if decision is None or not decision.capped:
            self.capped_j += total_j
            self.windows_uncapped += 1
            return
        cap = decision.cap
        mi_save, ci_save, delay = self.factors.effect(cap, region_j)
        self.capped_j += float(total_j - ci_save - mi_save)
        self.slowdown_weight_j += float(delay)
        self.windows_capped += 1

    @property
    def slowdown_pct(self) -> float:
        if self.uncapped_j <= 0:
            return 0.0
        return 100.0 * self.slowdown_weight_j / self.uncapped_j


def run(config: ExperimentConfig) -> ExperimentResult:
    fleet_nodes = min(config.fleet_nodes, 32)
    days = min(config.days, 1.0)
    mix = default_mix(fleet_nodes=fleet_nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=config.seed)
    store = FleetTelemetryGenerator(
        log, mix, seed=config.seed + 1000
    ).generate()
    window_s = WINDOW_TICKS * constants.TELEMETRY_INTERVAL_S
    budget_pct = 5.0

    plane = ControlPlane(
        log,
        objective="slowdown",
        max_slowdown_pct=budget_pct,
        campaign_energy_mwh=config.campaign_energy_mwh,
        window_s=window_s,
    )
    bank = ClosedLoopBank(plane)
    plane.engine.add_window_observer(bank.update)

    # Stream the campaign, recording the published cap after every chunk
    # — the convergence trail of the closed loop.
    trail = []
    last_cap = object()
    chunks = 0
    for chunk in replay_store(store, chunk_ticks=20):
        chunks += 1
        plane.ingest(chunk)
        view = plane.cache.view
        cap = view.decision.cap if view is not None else None
        if cap != last_cap:
            trail.append((chunks, plane.engine.stats.windows_folded, cap))
            last_cap = cap
    plane.drain()
    final = plane.cache.view
    if final.decision.cap != last_cap:
        trail.append(
            (chunks, plane.engine.stats.windows_folded, final.decision.cap)
        )

    # Offline batch fold of the identical sealed windows: the parity
    # reference for everything the control plane served.
    windows = list(canonical_windows(store, window_s=window_s))
    offline_jobs = JobAccumulator(log)
    for window in windows:
        offline_jobs.update(window)
    offline_cube = join_campaign(iter(windows), log)
    jobs_bitwise = (
        np.array_equal(offline_jobs.energy_j, plane.job_acc.energy_j)
        and np.array_equal(offline_jobs.gpu_hours, plane.job_acc.gpu_hours)
        and np.array_equal(offline_jobs.samples, plane.job_acc.samples)
    )
    cube_bitwise = cubes_equal(offline_cube, final.snap.cube)
    offline_decision = decide_cap(
        offline_cube.region_energy_j(),
        plane.factors,
        objective="slowdown",
        max_slowdown_pct=budget_pct,
    )
    decision_bitwise = offline_decision == final.decision
    rec = final.snap.recommendation
    advisor_cap = rec.cap if rec is not None and rec.capped else None
    advisor_parity = advisor_cap == final.decision.cap

    saved_j = bank.uncapped_j - bank.capped_j
    lines = [
        f"closed-loop control plane on {fleet_nodes} nodes x {days:g} "
        f"days (window {window_s:.0f} s, objective slowdown, budget "
        f"{budget_pct:g} %):",
        "",
        "published-cap convergence trail:",
        f"  {'chunk':>6} {'windows':>8} {'cap':>10}",
    ]
    for chunk_i, n_windows, cap in trail:
        shown = f"{cap:.0f} MHz" if cap is not None else "uncapped"
        lines.append(f"  {chunk_i:>6} {n_windows:>8} {shown:>10}")
    lines.append("")
    lines.append(
        f"fleet energy: uncapped {units.to_mwh(bank.uncapped_j):.3f} "
        f"MWh, closed-loop {units.to_mwh(bank.capped_j):.3f} MWh "
        f"-> banked {units.to_mwh(saved_j):.3f} MWh "
        f"({100.0 * saved_j / bank.uncapped_j:.2f} %) across "
        f"{bank.windows_capped} capped / {bank.windows_uncapped} "
        f"uncapped windows"
    )
    lines.append(
        f"energy-weighted slowdown {bank.slowdown_pct:.2f} % "
        f"(budget {budget_pct:g} %)"
    )
    lines.append("")
    lines.append(
        f"served vs offline batch fold of the same sealed windows: "
        f"per-job matrices bitwise={jobs_bitwise}, fleet cube "
        f"bitwise={cube_bitwise}, cap decision equal={decision_bitwise}, "
        f"advisor parity={advisor_parity}"
    )

    region_j = final.snap.cube.region_energy_j()
    lines.append("")
    lines.append("objective menu on the final fleet state:")
    lines.append(
        f"  {'objective':<10} {'cap':>10} {'save %':>8} {'dT %':>7}"
    )
    menu = {}
    for name in objective_names():
        d = decide_cap(
            region_j, plane.factors,
            objective=name, max_slowdown_pct=budget_pct,
        )
        shown = f"{d.cap:.0f} MHz" if d.capped else "uncapped"
        lines.append(
            f"  {name:<10} {shown:>10} {d.savings_pct:>8.2f} "
            f"{d.runtime_increase_pct:>7.2f}"
        )
        menu[name] = {
            "cap": d.cap,
            "savings_pct": d.savings_pct,
            "runtime_increase_pct": d.runtime_increase_pct,
        }

    checks = {
        "banked_energy": bank.capped_j <= bank.uncapped_j,
        "slowdown_within_budget": bank.slowdown_pct <= budget_pct,
        "jobs_bitwise": jobs_bitwise,
        "cube_bitwise": cube_bitwise,
        "decision_bitwise": decision_bitwise,
        "advisor_parity": advisor_parity,
        "converged": len(trail) >= 1,
    }
    lines.append("")
    failed = sorted(k for k, ok in checks.items() if not ok)
    lines.append(
        "all checks passed" if not failed else f"FAILED: {failed}"
    )
    data = {
        "uncapped_mwh": units.to_mwh(bank.uncapped_j),
        "capped_mwh": units.to_mwh(bank.capped_j),
        "banked_mwh": units.to_mwh(saved_j),
        "slowdown_pct": bank.slowdown_pct,
        "budget_pct": budget_pct,
        "final_cap": final.decision.cap,
        "snapshots_published": final.version,
        "trail": [
            {"chunk": c, "windows": w, "cap": cap} for c, w, cap in trail
        ],
        "checks": checks,
        "objectives": menu,
    }
    return ExperimentResult(
        exp_id="ext_controlplane",
        title="Closed-loop control plane banking energy live",
        text="\n".join(lines),
        data=data,
    )
