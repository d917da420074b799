"""Extension: deterministic fault injection through the flight recorder.

The forensics layer (:mod:`repro.obs.forensics`) claims a strong
contract: attach a flight recorder to a streaming control plane and
every fault the fleet experiences folds into the *identical* incident
timeline — same incident ids, same event-time bounds, same attribution
— whatever the chunking was, across reruns, and (for window-content
detectors) even with no control plane at all.  This experiment proves
the contract by construction.

A synthetic 16-node fleet draws a flat, well-conditioned power profile
(every GPU near 300 W, all samples in the MI region), so a correctly
quiet detector set produces *zero* incidents — and then exactly three
faults are injected at known event times:

1. **straggler** — node 3 pinned to 540 W on all four GCDs for one
   hour (robust z far above the fleet, still under the vendor limit);
2. **cap violation** — one GCD of node 7 pushed to 575 W, above the
   560 W limit of paper Table I, for half an hour;
3. **publication stall** — the control plane's ``refresh()`` is
   withheld for one event-time hour (ingest keeps folding), so the
   published cap decision goes stale by more than three windows.

The expected timeline is therefore exactly ``inc-001`` (straggler,
attributed to node 3), ``inc-002`` (cap_violation, critical, node 7),
``inc-003`` (publication_stall, critical), all resolved by drain.

Checks:

* the three incidents appear with the predicted windows, severities,
  and node attribution, and nothing else fires (``exact_timeline``);
* rerunning the identical campaign reproduces the timeline verbatim
  (``reproducible``) and halving the arrival chunk size changes no
  field of it (``chunking_invariant``);
* an *offline* recorder fed the canonical windows — no control plane,
  no publication feed — reproduces the two window-content incidents
  bit for bit (``offline_parity``);
* the analytic outputs (fleet cube, per-job matrices) of the
  recorder-enabled plane are bitwise identical to a plane with
  forensics disabled (``recorder_bitwise``);
* every incident is resolved at drain, so the CI gate
  ``repro obs incidents --check`` passes (``all_resolved``);
* each incident's exported forensic bundle embeds a non-empty,
  window-bounded slice of the structured event log
  (``bundle_logs_embedded``), the slice reproduces verbatim under
  rerun (``log_slice_reproducible``), and its event ids are invariant
  under re-chunking (``log_ids_chunking_invariant``) — the
  determinism contract of :mod:`repro.obs.log`.
"""

from __future__ import annotations

import numpy as np

from .. import constants, units
from ..core.join import cubes_equal
from ..obs.forensics import (
    Forensics,
    build_bundle,
    default_detectors,
    forensics_doc,
)
from ..obs.log import EventLog
from ..obs.health.drift import DriftReference
from ..scheduler import SlurmSimulator, default_mix
from ..serve import ControlPlane
from ..stream import canonical_windows, replay_store
from ..telemetry.schema import TelemetryChunk
from ..telemetry.store import TelemetryStore
from .registry import ExperimentConfig, ExperimentResult

#: Fixed geometry: the experiment asserts an *exact* timeline, so the
#: fleet and campaign length are pinned rather than config-scaled.
NODES = 16
CAMPAIGN_S = 43_200.0                 # half a day
WINDOW_TICKS = 40
WINDOW_S = WINDOW_TICKS * constants.TELEMETRY_INTERVAL_S   # 600 s

BASE_POWER_W = 300.0                  # + node id, so medians are crisp
NOISE_W = 3.0
CPU_POWER_W = 100.0

#: Fault schedule (event-time seconds; all multiples of the window).
STRAGGLER_NODE, STRAGGLER_W = 3, 540.0
STRAGGLER_T0, STRAGGLER_T1 = 10_800.0, 14_400.0      # windows 18..23
VIOLATION_NODE, VIOLATION_W = 7, 575.0
VIOLATION_T0, VIOLATION_T1 = 21_600.0, 23_400.0      # windows 36..38
STALL_T0, STALL_T1 = 28_800.0, 32_400.0              # refresh withheld


def _detectors():
    """The detector set tuned to the synthetic fleet.

    The mode-mix reference is pinned to the fleet's true mix (all MI),
    and the straggler threshold sits between the cap-violation node's
    mild excursion (|z| ~ 10: one hot GCD out of four) and the true
    straggler (|z| ~ 35: the whole node), so each fault trips exactly
    one detector.
    """
    return default_detectors(
        reference=DriftReference(
            gpu_hours_pct=(0.0, 100.0, 0.0, 0.0), label="synthetic MI fleet"
        ),
        z_threshold=15.0,
        tv_threshold=0.2,
        deviation_pct=50.0,
        max_lag_windows=3.0,
    )


def _synthetic_store(seed: int) -> TelemetryStore:
    """A flat fleet profile with the three faults stamped in."""
    ticks = int(round(CAMPAIGN_S / constants.TELEMETRY_INTERVAL_S))
    time_s = np.repeat(
        np.arange(ticks, dtype=np.float64) * constants.TELEMETRY_INTERVAL_S,
        NODES,
    )
    node_id = np.tile(np.arange(NODES, dtype=np.int32), ticks)
    rng = np.random.default_rng(seed)
    base = BASE_POWER_W + node_id.astype(np.float64)
    gpu = base[:, None] + rng.normal(
        0.0, NOISE_W, size=(ticks * NODES, constants.GPUS_PER_NODE)
    )
    straggler = (
        (node_id == STRAGGLER_NODE)
        & (time_s >= STRAGGLER_T0) & (time_s < STRAGGLER_T1)
    )
    gpu[straggler, :] = STRAGGLER_W
    violation = (
        (node_id == VIOLATION_NODE)
        & (time_s >= VIOLATION_T0) & (time_s < VIOLATION_T1)
    )
    gpu[violation, 2] = VIOLATION_W
    chunk = TelemetryChunk(
        time_s=time_s,
        node_id=node_id,
        gpu_power_w=np.clip(gpu, 1.0, None).astype(np.float32),
        cpu_power_w=np.full(ticks * NODES, CPU_POWER_W, dtype=np.float32),
    )
    return TelemetryStore(chunk)


def _run_plane(store, log, *, chunk_ticks: int, forensics,
               event_log=None):
    """Stream the campaign through a plane, stalling publication.

    Chunks whose event time falls in the stall span bypass
    ``plane.ingest`` and fold through ``plane.engine.ingest`` directly:
    windows keep sealing (observers, recorder, per-job fold all run)
    but no fresh :class:`~repro.serve.cache.ServeView` is published —
    exactly a wedged publication thread.
    """
    plane = ControlPlane(
        log,
        objective="slowdown",
        max_slowdown_pct=5.0,
        window_s=WINDOW_S,
        forensics=forensics,
        event_log=event_log,
    )
    for chunk in replay_store(store, chunk_ticks=chunk_ticks):
        if STALL_T0 <= float(chunk.time_s[0]) < STALL_T1:
            plane.engine.ingest(chunk)
        else:
            plane.ingest(chunk)
    plane.drain()
    return plane


def _timeline(forensics: Forensics) -> list:
    return [i.to_dict() for i in forensics.incidents.incidents]


def _scrub(rec: dict) -> dict:
    """Drop process-local correlation ids (trace/span) for comparison.

    Everything else in a window-correlated record — the per-event
    occurrence id, seq, event time, severity, message, fields — is
    part of the determinism contract and *is* compared.
    """
    return {k: v for k, v in rec.items()
            if k not in ("trace_id", "span_id")}


def _bundle_logs(plane) -> dict:
    """``{incident_id: embedded log slice}`` from exported bundles."""
    doc = forensics_doc(plane.forensics)
    return {
        inc["id"]: build_bundle(doc, inc["id"])["logs"]
        for inc in doc["incidents"]
    }


def _top_node(incident: dict):
    tops = incident.get("top_nodes", [])
    return tops[0]["id"] if tops else None


def run(config: ExperimentConfig) -> ExperimentResult:
    store = _synthetic_store(config.seed)
    log = SlurmSimulator(default_mix(fleet_nodes=NODES)).run(
        units.days(CAMPAIGN_S / 86_400.0), rng=config.seed
    )

    # Every instrumented plane carries a structured event log, so the
    # forensic bundles below embed correlated log slices; the ring is
    # sized past the campaign's emission count (no eviction).
    plane_a = _run_plane(
        store, log, chunk_ticks=20,
        forensics=Forensics(detectors=_detectors()),
        event_log=EventLog(capacity=16_384),
    )
    plane_b = _run_plane(
        store, log, chunk_ticks=20,
        forensics=Forensics(detectors=_detectors()),
        event_log=EventLog(capacity=16_384),
    )
    plane_c = _run_plane(
        store, log, chunk_ticks=40,
        forensics=Forensics(detectors=_detectors()),
        event_log=EventLog(capacity=16_384),
    )
    plane_plain = _run_plane(store, log, chunk_ticks=20, forensics=False)

    timeline = _timeline(plane_a.forensics)
    reproducible = timeline == _timeline(plane_b.forensics)
    chunking_invariant = timeline == _timeline(plane_c.forensics)

    # Offline recorder: the canonical windows fed straight to a bare
    # Forensics — no engine, no publication feed.  The window-content
    # incidents (straggler, cap violation) must come out identical.
    offline = Forensics(detectors=_detectors(), log=log)
    for window in canonical_windows(store, window_s=WINDOW_S):
        offline.observe_window(window)
    offline.finalize()
    offline_timeline = _timeline(offline)
    window_content = [
        i for i in timeline if i["detector"] != "publication_stall"
    ]
    offline_parity = offline_timeline == window_content

    recorder_bitwise = (
        cubes_equal(
            plane_a.cache.view.snap.cube, plane_plain.cache.view.snap.cube
        )
        and np.array_equal(
            plane_a.job_acc.energy_j, plane_plain.job_acc.energy_j
        )
        and np.array_equal(
            plane_a.job_acc.samples, plane_plain.job_acc.samples
        )
    )

    # Structured-log determinism: each exported bundle embeds the log
    # slice spanning its incident's window range (padded one window);
    # the slice reproduces verbatim under rerun, and its per-event
    # occurrence ids survive re-chunking (cadence-driven records never
    # enter bundles, so the halved chunk size changes no embedded id).
    logs_a, logs_b, logs_c = (
        _bundle_logs(plane_a), _bundle_logs(plane_b), _bundle_logs(plane_c)
    )
    bounds = {
        i["id"]: (i["first_window"] - 1, i["last_window"] + 1)
        for i in timeline
    }
    bundle_logs_embedded = bool(logs_a) and all(
        slice_ and all(
            bounds[inc_id][0] <= r["window"] <= bounds[inc_id][1]
            for r in slice_
        )
        for inc_id, slice_ in logs_a.items()
    )
    log_slice_reproducible = {
        inc_id: [_scrub(r) for r in slice_]
        for inc_id, slice_ in logs_a.items()
    } == {
        inc_id: [_scrub(r) for r in slice_]
        for inc_id, slice_ in logs_b.items()
    }
    log_ids_chunking_invariant = {
        inc_id: [r["id"] for r in slice_]
        for inc_id, slice_ in logs_a.items()
    } == {
        inc_id: [r["id"] for r in slice_]
        for inc_id, slice_ in logs_c.items()
    }

    by_detector = {i["detector"]: i for i in timeline}
    straggler = by_detector.get("straggler")
    violation = by_detector.get("cap_violation")
    stall = by_detector.get("publication_stall")

    checks = {
        "exact_timeline": (
            [i["detector"] for i in timeline]
            == ["straggler", "cap_violation", "publication_stall"]
            and [i["id"] for i in timeline]
            == ["inc-001", "inc-002", "inc-003"]
        ),
        "straggler_attributed": (
            straggler is not None
            and straggler["t_start_s"] == STRAGGLER_T0
            and straggler["t_end_s"] == STRAGGLER_T1
            and _top_node(straggler) == STRAGGLER_NODE
        ),
        "violation_attributed": (
            violation is not None
            and violation["severity"] == "critical"
            and violation["t_start_s"] == VIOLATION_T0
            and violation["t_end_s"] == VIOLATION_T1
            and _top_node(violation) == VIOLATION_NODE
        ),
        "stall_detected": (
            stall is not None
            and stall["severity"] == "critical"
            and STALL_T0 <= stall["t_start_s"]
            and stall["t_end_s"] <= STALL_T1 + WINDOW_S
        ),
        "reproducible": reproducible,
        "chunking_invariant": chunking_invariant,
        "offline_parity": offline_parity,
        "recorder_bitwise": recorder_bitwise,
        "all_resolved": not plane_a.forensics.incidents.open_incidents,
        "bundle_logs_embedded": bundle_logs_embedded,
        "log_slice_reproducible": log_slice_reproducible,
        "log_ids_chunking_invariant": log_ids_chunking_invariant,
    }

    summary = plane_a.forensics.summary()
    lines = [
        f"fault-injected fleet: {NODES} nodes x {CAMPAIGN_S / 3600.0:.0f} h "
        f"(window {WINDOW_S:.0f} s, {summary['windows_recorded']} windows "
        f"recorded, {summary['findings_total']} findings)",
        "",
        "injected faults:",
        f"  straggler       node {STRAGGLER_NODE} at {STRAGGLER_W:.0f} W, "
        f"t [{STRAGGLER_T0:,.0f}, {STRAGGLER_T1:,.0f}) s",
        f"  cap violation   node {VIOLATION_NODE} GCD 2 at "
        f"{VIOLATION_W:.0f} W (> {constants.GCD_MAX_POWER_W:.0f} W), "
        f"t [{VIOLATION_T0:,.0f}, {VIOLATION_T1:,.0f}) s",
        f"  delivery stall  publication withheld, "
        f"t [{STALL_T0:,.0f}, {STALL_T1:,.0f}) s",
        "",
        plane_a.forensics.timeline(),
        "",
        f"determinism: rerun identical={reproducible}, "
        f"chunk 300 s vs 600 s identical={chunking_invariant}, "
        f"offline window-content parity={offline_parity}",
        f"recorder overhead on analytics: fleet cube + per-job matrices "
        f"bitwise identical to a recorder-free plane={recorder_bitwise}",
        f"bundled event logs: "
        f"{sum(len(s) for s in logs_a.values())} records across "
        f"{len(logs_a)} bundles, rerun-verbatim={log_slice_reproducible}, "
        f"ids chunking-invariant={log_ids_chunking_invariant}",
    ]
    failed = sorted(k for k, ok in checks.items() if not ok)
    lines.append("")
    lines.append("all checks passed" if not failed else f"FAILED: {failed}")

    if config.out_dir:
        from ..obs.forensics import write_forensics_artifacts

        write_forensics_artifacts(
            config.out_dir,
            plane_a.forensics,
            command="repro run ext_incidents",
            registry=plane_a.registry,
            monitor=None,
        )

    data = {
        "incidents": timeline,
        "summary": summary,
        "checks": checks,
    }
    return ExperimentResult(
        exp_id="ext_incidents",
        title="Flight-recorder forensics under injected faults",
        text="\n".join(lines),
        data=data,
    )
