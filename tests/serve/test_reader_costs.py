"""What a publish pays for, and what it leaves to readers.

A control plane wired like ``repro serve --history-dir D --log-dir D``
(health monitor, flight recorder, on-disk history and event log) over a
perturbed fleet:

* bodies render lazily: a publish pre-renders exactly the routes read
  on the view it replaces (the single-route case is in
  ``test_service.py``), and every body — pre-rendered or rendered on
  request — equals a fresh render of the same view's document;
* Tables V/VI and the fleet advice are computed on a view's first
  read, once, and equal the engine's own snapshot of the same fold
  state;
* per-sink wall time lands in ``stream_sink_seconds_total``;
* nothing the engine holds points back at the plane, so a dropped plane
  is freed on refcount alone, with the cyclic collector off.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.join import cubes_equal
from repro.obs.health import DriftReference, HealthMonitor
from repro.obs.history import History
from repro.obs.log import EventLog, LogStore
from repro.policy import live as live_module
from repro.serve import ControlPlane
from repro.serve.cache import render_body
from repro.stream import engine as engine_module
from repro.stream import perturb, simulated_fleet
from tests.serve.conftest import route_key

NODES = 8
DAYS = 0.25

#: Every route family a poller can ask for (incident ids added per view).
ROUTES = (
    "fleet/cap",
    "fleet/savings",
    "policy",
    "jobs",
    "jobs?limit=20",
    "incidents",
    "series",
    "logs",
    route_key("/v1/logs?severity=warning&limit=50"),
    route_key("/v1/query?series=energy_j&step=3600"),
)


def _chunks():
    log, source = simulated_fleet(fleet_nodes=NODES, days=DAYS, seed=0)
    return log, list(perturb(source, seed=0, dup_fraction=0.01,
                             lateness_s=900.0, rows_per_chunk=NODES * 20))


def _plane(log, tmp_path) -> ControlPlane:
    return ControlPlane(
        log,
        monitor=HealthMonitor(
            None, reference=DriftReference.paper(), drift=True
        ),
        history=History(dir=tmp_path / "history"),
        event_log=EventLog(store=LogStore(tmp_path / "logs")),
    )


def _routes(view):
    routes = list(ROUTES)
    routes += [f"incidents/{inc['id']}"
               for inc in view.incidents.doc["incidents"]]
    job_ids = view.jobs.active_job_ids()
    if job_ids:
        routes += [f"jobs/{job_ids[0]}", f"jobs/{job_ids[0]}/cap",
                   f"jobs/{job_ids[0]}/savings"]
    return routes


@pytest.fixture(scope="module")
def stream():
    return _chunks()


class TestLazyBodies:
    def test_every_body_equals_a_fresh_render_of_its_view(
        self, stream, tmp_path
    ):
        log, chunks = stream
        plane = _plane(log, tmp_path)
        read, views, prerendered = (), 0, 0
        try:
            for chunk in chunks + [None]:
                if chunk is None:
                    plane.drain()
                elif not plane.ingest(chunk):
                    continue
                view = plane.cache.view
                # What the previous view served is ready before anyone
                # asks, and nothing else is.
                assert set(view._bodies) == set(read)
                prerendered += len(view._bodies)
                routes = _routes(view)
                for route in routes:
                    status, body = view.body(route)
                    assert status == 200, route
                    assert body == render_body(view._build(route)[1]), route
                read = view.read_routes()
                assert set(read) == set(routes)
                views += 1
        finally:
            plane.close()
        assert views > 10 and prerendered > 0
        assert plane.forensics.incidents.incidents


def test_sink_seconds_appear_and_grow_in_the_plane_registry(
    stream, tmp_path
):
    log, chunks = stream
    plane = _plane(log, tmp_path)
    half = len(chunks) // 2

    def sink_seconds():
        family = plane.registry.to_dict()["stream_sink_seconds_total"]
        return {s["labels"]["sink"]: s["value"] for s in family["series"]}

    try:
        plane.run(chunks[:half], drain=False)
        early = sink_seconds()
        plane.run(chunks[half:])
        late = sink_seconds()
    finally:
        plane.close()
    assert set(early) == set(late) == {"forensics", "history", "log"}
    for sink, seconds in late.items():
        assert 0.0 < early[sink] < seconds, sink
    assert "stream_sink_seconds_total" in plane.registry.to_prometheus()


def test_a_dropped_plane_is_freed_on_refcount(stream, tmp_path):
    log, chunks = stream
    gc.collect()
    gc.disable()
    try:
        plane = _plane(log, tmp_path)
        plane.run(chunks)
        view = plane.cache.view
        for route in _routes(view):
            view.body(route)
        plane.refresh()
        plane.close()
        refs = weakref.ref(plane), weakref.ref(plane.engine)
        del plane, view
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestTablesRenderOnRead:
    """Tables V/VI and the fleet advice wait for a view's first reader."""

    def _counters(self, monkeypatch):
        snapshots = _count_calls(monkeypatch, engine_module,
                                 "compute_snapshot")
        projections = _count_calls(monkeypatch, engine_module,
                                   "project_savings")
        projections += _count_calls(monkeypatch, live_module,
                                    "project_savings")
        return snapshots, projections

    def test_a_plane_nobody_reads_projects_nothing(
        self, stream, tmp_path, monkeypatch
    ):
        log, chunks = stream
        snapshots, projections = self._counters(monkeypatch)
        plane = _plane(log, tmp_path)
        try:
            plane.run(chunks)
        finally:
            plane.close()
        assert plane.cache.version > 10
        assert snapshots == [] and projections == []

    def test_the_first_read_computes_the_snapshot_once(
        self, stream, tmp_path, monkeypatch
    ):
        log, chunks = stream
        snapshots, _ = self._counters(monkeypatch)
        plane = _plane(log, tmp_path)
        try:
            plane.run(chunks)
            view = plane.cache.view
            assert view.body("fleet/cap")[0] == 200
            assert len(snapshots) == 1
            view.body("fleet/cap")
            view.body("fleet/savings")
            assert view.snap is view.snap
            assert len(snapshots) == 1
        finally:
            plane.close()

    def test_view_snapshot_equals_the_engine_snapshot(self, stream, tmp_path):
        log, chunks = stream
        plane = _plane(log, tmp_path)

        def check(view):
            want = plane.engine.snapshot(
                factors=plane.factors,
                campaign_energy_mwh=view.policy["campaign_energy_mwh"],
                max_slowdown_pct=view.policy["max_slowdown_pct"],
            )
            got = view.snap
            assert got.table5 is not None and got.table6 is not None
            assert cubes_equal(got.cube, want.cube)
            assert got.render() == want.render()
            assert got.recommendation == want.recommendation

        checked = 0
        try:
            for i, chunk in enumerate(chunks):
                # Mid-stream, right after a publishing ingest: the same
                # fold state and ingest stats as the view.
                if plane.ingest(chunk) and i >= len(chunks) // 2 and not checked:
                    check(plane.cache.view)
                    checked += 1
            plane.drain()
            check(plane.cache.view)
        finally:
            plane.close()
        assert checked == 1
