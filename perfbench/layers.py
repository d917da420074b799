"""Where the traced run hooks into each ``repro`` layer, and what it reports.

:func:`install` patches the public functions named in the per-layer
table (class methods at the class, module functions where their caller
looks them up).  :func:`layer_metrics` turns the recorded spans and the
counters read at the same boundaries into the ``per_layer`` figures of
``BENCHMARK.json``.  Every workload reports every figure; a layer a
workload never reaches reports 0.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from common import percentile
from tracing import Tracer, busy_times, layer_rows

#: (name, unit, better) — the ``per_layer`` list of BENCHMARK.json, in order.
#: Set-up layers report seconds; a layer of the timed region reports its
#: busy time as a share of the traced wall time (``trace.wall_s``), so a
#: layer a workload never reaches reads 0 as a ratio, not as a time.
PER_LAYER = [
    ("scheduler.simulate_s", "s", "lower"),
    ("characterization.factors_s", "s", "lower"),
    ("telemetry.render_s", "s", "lower"),
    ("telemetry.node_chunk_calls", "count", "lower"),
    ("telemetry.rows_rendered", "count", "lower"),
    ("sources.next_share", "ratio", "lower"),
    ("sources.chunks", "count", "higher"),
    ("sources.rows_delivered", "count", "higher"),
    ("sources.render_ratio", "ratio", "lower"),
    ("buffer.push_share", "ratio", "lower"),
    ("buffer.duplicates", "count", "lower"),
    ("buffer.duplicates_injected", "count", "lower"),
    ("buffer.duplicate_ratio", "ratio", "higher"),
    ("buffer.late_dropped", "count", "lower"),
    ("buffer.peak_resident_samples", "count", "lower"),
    ("join.update_share", "ratio", "lower"),
    ("join.campaign_self_share", "ratio", "lower"),
    ("join.windows", "count", "higher"),
    ("engine.ingest_self_share", "ratio", "lower"),
    ("engine.snapshot_share", "ratio", "lower"),
    ("engine.drain_share", "ratio", "lower"),
    ("projection.project_share", "ratio", "lower"),
    ("modes.decompose_share", "ratio", "lower"),
    ("forensics.observe_share", "ratio", "lower"),
    ("forensics.serve_doc_share", "ratio", "lower"),
    ("forensics.incidents", "count", "lower"),
    ("history.observe_share", "ratio", "lower"),
    ("history.bytes_written", "bytes", "lower"),
    ("log.observe_share", "ratio", "lower"),
    ("log.records", "count", "lower"),
    ("log.bytes_written", "bytes", "lower"),
    ("health.observe_share", "ratio", "lower"),
    ("serve.refresh_share", "ratio", "lower"),
    ("serve.cache_publish_share", "ratio", "lower"),
    ("serve.jobs_update_share", "ratio", "lower"),
    ("serve.body_share", "ratio", "lower"),
    ("serve.body_hit_ratio", "ratio", "higher"),
    ("serve.views_published", "count", "higher"),
    ("checkpoint.save_share", "ratio", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Layers that also run in set-up: seconds, wherever they run.
SECONDS_OF = {
    "scheduler.simulate_s": "scheduler.simulate",
    "characterization.factors_s": "characterization.factors",
    "telemetry.render_s": "telemetry.render",
}

#: Busy time outside set-up (outermost spans of the name), over the wall.
SHARE_OF = {
    name: name[: -len("_share")]
    for name, _, _ in PER_LAYER
    if name.endswith("_share") and not name.endswith("_self_share")
}

#: Self time under the timed root (span duration minus child spans),
#: over the wall.
SELF_SHARE_OF = {
    "join.campaign_self_share": "join.campaign",
    "engine.ingest_self_share": "engine.ingest",
}

#: Spans whose cost per call grows along a stream: their per-call
#: percentiles go in the report.
PER_CALL = ("serve.refresh", "forensics.serve_doc")


def install(tracer: Tracer, counts: Counter) -> None:
    """Patch every layer boundary the per-layer table names."""
    import repro.core.characterization as characterization
    import repro.core.join as join
    import repro.experiments.table5 as table5
    import repro.policy.live as live
    import repro.serve.service as service
    import repro.stream.checkpoint as checkpoint
    import repro.stream.engine as engine
    from repro.obs.forensics import Forensics
    from repro.obs.health import HealthMonitor
    from repro.obs.history import History
    from repro.obs.log import EventLog
    from repro.scheduler import SlurmSimulator
    from repro.serve.analytics import JobAccumulator
    from repro.serve.cache import ServeView, SnapshotCache
    from repro.serve.http import ControlPlaneServer
    from repro.stream.buffer import ReorderBuffer
    from repro.telemetry import FleetTelemetryGenerator

    def rendered(_args, chunk) -> None:
        counts["telemetry.node_chunk_calls"] += 1
        counts["telemetry.rows_rendered"] += len(chunk)

    def body_lookup(args) -> None:
        view, route = args[0], args[1]
        counts["serve.body_calls"] += 1
        if route in view._bodies:
            counts["serve.body_hits"] += 1

    patch = tracer.patch
    patch(SlurmSimulator, "run", "scheduler.simulate")
    patch(characterization, "measured_factors", "characterization.factors")
    patch(FleetTelemetryGenerator, "node_chunk", "telemetry.render",
          after=rendered)
    patch(ReorderBuffer, "push", "buffer.push")
    patch(ReorderBuffer, "flush", "buffer.flush")
    patch(join.CampaignAccumulator, "update", "join.update")
    patch(join, "join_campaign", "join.campaign")
    patch(engine.StreamEngine, "ingest", "engine.ingest")
    patch(engine.StreamEngine, "drain", "engine.drain")
    patch(engine.StreamEngine, "snapshot", "engine.snapshot")
    for module in (engine, live, table5):
        patch(module, "project_savings", "projection.project")
    patch(engine, "decompose_modes", "modes.decompose")
    patch(Forensics, "observe_window", "forensics.observe")
    patch(Forensics, "serve_doc", "forensics.serve_doc")
    patch(Forensics, "finalize", "forensics.finalize")
    patch(History, "observe_window", "history.observe")
    patch(History, "finalize", "history.finalize")
    patch(EventLog, "observe_window", "log.observe")
    patch(EventLog, "emit", "log.emit")
    patch(EventLog, "finalize", "log.finalize")
    patch(HealthMonitor, "observe_engine", "health.observe")
    patch(service.ControlPlane, "refresh", "serve.refresh")
    patch(service, "decide_cap", "serve.decide_cap")
    patch(SnapshotCache, "publish", "serve.cache_publish")
    patch(JobAccumulator, "update", "serve.jobs_update")
    patch(JobAccumulator, "snapshot", "serve.jobs_snapshot")
    patch(ServeView, "body", "serve.body", before=body_lookup)
    patch(ControlPlaneServer.handler_class, "do_GET", "serve.http_request")
    patch(checkpoint, "save_checkpoint", "checkpoint.save")


#: Figures that are not sums over repetitions (left as measured).
NOT_ADDITIVE = {
    name for name, unit, _ in PER_LAYER if unit == "ratio"
} | {"buffer.peak_resident_samples"}


def per_repetition(layers: Dict[str, float], reps: int) -> Dict[str, float]:
    """Divide the additive figures by the number of traced repetitions."""
    return {
        name: value if name in NOT_ADDITIVE else value / reps
        for name, value in layers.items()
    }


def layer_metrics(
    tracer: Tracer, counts: Counter, *, root: str
) -> Dict[str, float]:
    """Every ``per_layer`` figure from the spans and counters (totals).

    Shares are busy time outside ``setup`` spans over the wall time of
    the ``root`` spans (the timed region); the set-up layers' seconds
    and the ``telemetry.*`` counters count set-up too.  Correctness
    checks run paused and count nowhere.
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    wall, rows, unattributed = layer_rows(tracer.spans, root)
    busy, calls = busy_times(tracer.spans, skip="setup")
    anywhere, _ = busy_times(tracer.spans)
    for metric, span in SECONDS_OF.items():
        out[metric] = sum(anywhere.get(span, [0.0]))
    for metric, span in SHARE_OF.items():
        out[metric] = sum(busy.get(span, [0.0])) / wall
    for metric, span in SELF_SHARE_OF.items():
        out[metric] = rows.get(span, (0.0, 0.0, 0))[0] / wall
    out["join.windows"] = float(len(calls.get("join.update", ())))
    out["sources.chunks"] = float(len(calls.get("sources.next", ())))
    for name in ("telemetry.node_chunk_calls", "telemetry.rows_rendered"):
        out[name] = float(counts[name])
    if counts["serve.body_calls"]:
        out["serve.body_hit_ratio"] = (
            counts["serve.body_hits"] / counts["serve.body_calls"]
        )
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    return out


def per_call_notes(tracer: Tracer) -> List[str]:
    """Per-call percentiles of the :data:`PER_CALL` spans (set-up excluded)."""
    _, calls = busy_times(tracer.spans, skip="setup")
    notes = []
    for name in PER_CALL:
        ms = [1e3 * d for d in calls.get(name, ())]
        if ms:
            notes.append(
                f"per call: {name} p50 {percentile(ms, 50):.2f} ms, p90 "
                f"{percentile(ms, 90):.2f} ms, max {max(ms):.2f} ms "
                f"({len(ms)} calls)"
            )
    return notes
