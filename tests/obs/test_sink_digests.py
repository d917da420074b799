"""Pinned outputs of the three window sinks: forensics, history, log.

A control plane over a perturbed 8-node x 0.25-day fleet with a
drift-on health monitor, an in-memory flight recorder, an on-disk
history store and an event log with a ``LogStore`` — plus a bare
engine carrying all three sinks at two chunkings — produce documents,
columns, records and served bodies whose SHA-256 digests are pinned
below.  Any change to how the engine feeds its sinks (record
construction, counter deltas, decision stamping, sink order) must keep
every digest bitwise-equal.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.obs.forensics import Forensics
from repro.obs.health import DriftReference, HealthMonitor
from repro.obs.history import History
from repro.obs.log import EventLog, LogStore
from repro.serve import ControlPlane
from repro.serve.http import _logs_route_key, _query_route_key
from repro.stream import StreamEngine, perturb, simulated_fleet

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
                  _logs_route_key("limit=100000"),
                  _query_route_key("series=energy_j&step=3600")]
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
