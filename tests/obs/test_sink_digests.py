"""Pinned outputs of the three window sinks: forensics, history, log.

A control plane over a perturbed 8-node x 0.25-day fleet with a
drift-on health monitor, an in-memory flight recorder, an on-disk
history store and an event log with a ``LogStore`` — plus a bare
engine carrying all three sinks at two chunkings — produce documents,
columns, records and served bodies whose SHA-256 digests are pinned
below.  Any change to how the engine feeds its sinks (record
construction, counter deltas, decision stamping, sink order) must keep
every digest bitwise-equal.  So must any change to what a publish
computes: the plane's registry render after every publish and every
view's ``/v1/incidents`` body are pinned too.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np
import pytest

from repro.core import join
from repro.obs.forensics import Forensics
from repro.obs.forensics.incidents import IncidentEngine
from repro.obs.health import DriftReference, HealthMonitor
from repro.obs.history import History
from repro.obs.log import EventLog, LogStore
from repro.obs.metrics import WALL_CLOCK_METRICS
from repro.scheduler.log import SchedulerLog
from repro.serve import ControlPlane
from repro.stream import StreamEngine, perturb, simulated_fleet
from tests.serve.conftest import route_key

NODES = 8
DAYS = 0.25
SEED = 0

#: SHA-256 of each pinned output (see the module docstring).
PLANE_DIGESTS = {
    "forensics": (
        "841e90c2c2e2ce642a500867394616c5d873fd71caf8934382d0c9651c46f3fd"
    ),
    "history": (
        "9d270a4868c7699f47145b54c10e18ba9cedf6ca74ff21ce15018623a2117f08"
    ),
    "log_records": (
        "5f603901b43b0953fb0576816a479a383539ce6bb484eff1e7f3d664ff37b429"
    ),
    "log_segments": (
        "75c054da2ec900953e7d59ff74013aaf4485c958a3934c018dcd09c9014ae6fe"
    ),
    "bodies": (
        "1c7d14117f41c70245d581e61a4c4a37fcfe81f3c9a4317233d49a07bfd8da20"
    ),
}
BARE_DIGESTS = {
    16: {
        "forensics": (
            "5476b248600bdc64384be142451c428d11b5ccfbb892ee906298bfa6ec646bbe"
        ),
        "history": (
            "4b100bc7095111322d0a0171283c5e00ccb1fda9dd30cc8a9ee8e88b3568df84"
        ),
        "log_records": (
            "0ba2460feb9bd18e66cbf5023c4e2b7fe504a88d4ba5a6ef8e43bd8914025dbd"
        ),
    },
    48: {
        "forensics": (
            "8cc5e229c94e5f2bfe1ffd8a9f2ff1d5d1e46c03814122ca78ac500afda6b1d2"
        ),
        "history": (
            "79bfdc3796f714e53ab80a490c57b13ad3944a4be6b90e7c8bbd7aa2717cb4f3"
        ),
        "log_records": (
            "0ba2460feb9bd18e66cbf5023c4e2b7fe504a88d4ba5a6ef8e43bd8914025dbd"
        ),
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def _history_digest(history: History) -> str:
    store = history.store
    n = store.rows(0)
    h = hashlib.sha256()
    for name, _agg in store.columns:
        h.update(name.encode())
        h.update(store.column_slice(name, 0, 0, n).tobytes())
    return h.hexdigest()


def _sink_digests(forensics, history, eventlog) -> dict:
    return {
        "forensics": _sha(_json(forensics.serve_doc())),
        "history": _history_digest(history),
        "log_records": _sha(_json(eventlog.records())),
    }


@pytest.fixture(scope="module")
def plane_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sinks")
    log, source = simulated_fleet(fleet_nodes=NODES, days=DAYS, seed=SEED)
    # Delivery lateness past a window length, so some samples arrive
    # after their window sealed and are dropped late.
    chunks = perturb(source, seed=SEED, dup_fraction=0.01,
                     lateness_s=900.0)
    monitor = HealthMonitor(
        None, reference=DriftReference.paper(), drift=True
    )
    history = History(dir=tmp / "history")
    eventlog = EventLog(capacity=65_536, store=LogStore(tmp / "logs"))
    plane = ControlPlane(
        log, monitor=monitor, history=history, event_log=eventlog,
    )
    plane.run(chunks)
    yield plane, tmp / "logs"
    plane.close()


class TestControlPlaneSinks:
    def test_sink_outputs_are_pinned(self, plane_run):
        plane, log_dir = plane_run
        digests = _sink_digests(plane.forensics, plane.history,
                                plane.event_log)
        digests["log_segments"] = _sha(b"".join(
            path.read_bytes() for path in sorted(log_dir.glob("*.jsonl"))
        ))
        view = plane.cache.view
        routes = ["fleet/cap", "fleet/savings", "policy", "jobs",
                  "incidents", "series",
                  route_key("/v1/logs?limit=100000"),
                  route_key("/v1/query?series=energy_j&step=3600")]
        routes += [
            f"incidents/{incident.id}"
            for incident in plane.forensics.incidents.incidents
        ]
        bodies = []
        for route in routes:
            status, body = view.body(route)
            assert status == 200, route
            bodies.append(route.encode() + b"\n" + body)
        digests["bodies"] = _sha(b"\n".join(bodies))
        assert digests == PLANE_DIGESTS

    def test_run_exercises_every_delta(self, plane_run):
        plane, _log_dir = plane_run
        records = plane.forensics.recorder.records
        assert plane.forensics.incidents.incidents
        assert any(r.duplicates_delta for r in records)
        assert any(r.late_dropped_delta for r in records)
        assert any(r.alert_transitions_delta for r in records)
        assert any(r.published_version is not None for r in records)


@pytest.mark.parametrize("chunk_ticks", [16, 48])
def test_bare_engine_sinks_are_pinned(chunk_ticks):
    log, source = simulated_fleet(
        fleet_nodes=NODES, days=DAYS, seed=SEED, chunk_ticks=chunk_ticks,
    )
    engine = StreamEngine(log)
    forensics, history, eventlog = Forensics(), History(), EventLog(
        capacity=65_536
    )
    engine.attach(forensics=forensics, history=history, event_log=eventlog)
    engine.run(source)
    assert _sink_digests(forensics, history, eventlog) == (
        BARE_DIGESTS[chunk_ticks]
    )


#: SHA-256 of the plane's registry render (wall-clock series skipped)
#: after every publishing ingest and after drain, and of every
#: published view's ``/v1/incidents`` body, in publish order.
PUBLISH_DIGESTS = {
    "registry": (
        "eb20ded43d65b13d36edd4b3ce97e3b812f800ebbbc48ad21e27a461b345b05e"
    ),
    "incidents": (
        "74b14b50ab0baca4270a4bba0a24fa0ad4ee586a1cd2f618e13a833a07638808"
    ),
}


def _counting(monkeypatch, module_prefix: str, name: str, fn) -> list:
    """Patch ``name`` (bound to ``fn``) in every loaded module under
    ``module_prefix`` with a counting wrapper; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if (
            mod_name.startswith(module_prefix)
            and getattr(module, name, None) is fn
        ):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_publishes_pin_registry_and_incident_bytes(tmp_path, monkeypatch):
    """Every publish renders the same registry and incident bytes, with
    one region binning and one job-id join per sealed window and no
    ``np.isin`` in incident attribution.

    The plane runs both readers of a window's job ids (the per-job fold
    and incident attribution), so one ``job_id_table`` call per window
    pins that neither labels a window again."""
    log, source = simulated_fleet(fleet_nodes=NODES, days=DAYS, seed=SEED)
    chunks = list(perturb(source, seed=SEED, dup_fraction=0.01,
                          lateness_s=900.0))
    plane = ControlPlane(
        log,
        monitor=HealthMonitor(
            None, reference=DriftReference.paper(), drift=True
        ),
        history=History(dir=tmp_path / "history"),
        event_log=EventLog(capacity=65_536,
                           store=LogStore(tmp_path / "logs")),
    )
    binnings = _counting(monkeypatch, "repro", "region_index",
                         join.region_index)
    isin_calls = _counting(monkeypatch, "numpy", "isin", np.isin)
    joins = []
    job_id_table = SchedulerLog.job_id_table

    def counted_join(self, *args, **kwargs):
        joins.append(len(args[0]))
        return job_id_table(self, *args, **kwargs)

    monkeypatch.setattr(SchedulerLog, "job_id_table", counted_join)
    isin_in_attribution = []
    attribute = IncidentEngine._attribute

    def watched_attribute(*args, **kwargs):
        before = len(isin_calls)
        try:
            return attribute(*args, **kwargs)
        finally:
            isin_in_attribution.append(len(isin_calls) - before)

    monkeypatch.setattr(IncidentEngine, "_attribute", watched_attribute)
    registry, incidents = hashlib.sha256(), hashlib.sha256()

    def published() -> None:
        registry.update(plane.registry.to_prometheus(
            skip=WALL_CLOCK_METRICS
        ).encode())
        status, body = plane.cache.view.body("incidents")
        assert status == 200
        incidents.update(body)

    try:
        for chunk in chunks:
            if plane.ingest(chunk):
                published()
        plane.drain()
        published()
    finally:
        plane.close()
    windows = plane.engine.stats.windows_folded
    assert windows > 0 and isin_in_attribution
    assert len(binnings) == windows
    assert len(joins) == windows
    assert sum(joins) == plane.engine.stats.samples_folded
    assert sum(isin_in_attribution) == 0
    assert {
        "registry": registry.hexdigest(),
        "incidents": incidents.hexdigest(),
    } == PUBLISH_DIGESTS
