"""ControlPlane publication, policy mutation, and serving metrics."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import ControlPlane
from repro.serve.cache import render_body

from tests.serve.conftest import WINDOW_S, build_plane


class TestPublication:
    def test_versions_increase_by_one_per_publish(self, campaign, windows):
        log, _store = campaign
        plane = build_plane(log, windows)
        v0 = plane.cache.version
        for i in (1, 2, 3):
            view = plane.refresh()
            assert view.version == v0 + i
            assert plane.cache.version == v0 + i
            assert plane.cache.view is view

    def test_bodies_are_memoized_bytes(self, drained_plane):
        view = drained_plane.cache.view
        status1, body1 = view.body("fleet/cap")
        status2, body2 = view.body("fleet/cap")
        assert status1 == status2 == 200
        assert body1 is body2, "second read must hit the byte cache"
        assert body1 == render_body(json.loads(body1))

    def test_error_bodies_are_not_memoized(self, drained_plane):
        view = drained_plane.cache.view
        status, body = view.body("jobs/999999")
        assert status == 404
        assert "jobs/999999" not in view._bodies
        # Identical content on re-render, just not cached.
        assert view.body("jobs/999999") == (status, body)

    def test_routes_read_on_a_view_are_prerendered_on_the_next(
        self, campaign, windows
    ):
        log, _store = campaign
        plane = build_plane(log, windows)
        first = plane.refresh()
        assert first._bodies == {}, "a view nobody read holds no bodies"
        first.body("jobs?limit=20")
        first.body("jobs/999999")             # 404s are not remembered
        second = plane.refresh()
        assert set(second._bodies) == {"jobs?limit=20"}
        assert second.read_routes() == ()
        assert second.body("jobs?limit=20") == (
            200, render_body(second._build("jobs?limit=20")[1])
        )
        # Served from the pre-rendered cache, so it carries forward...
        assert set(plane.refresh()._bodies) == {"jobs?limit=20"}
        # ...until a publish nobody reads: the next one starts empty.
        assert plane.refresh()._bodies == {}

    def test_jobs_limit_clamps_listing(self, drained_plane):
        view = drained_plane.cache.view
        _status, full = view.body("jobs")
        _status, limited = view.body("jobs?limit=3")
        full_doc, limited_doc = json.loads(full), json.loads(limited)
        assert len(limited_doc["jobs"]) == min(3, full_doc["count"])
        assert limited_doc["count"] == full_doc["count"]
        # Listing is sorted by energy, descending.
        energies = [j["energy_j"] for j in full_doc["jobs"]]
        assert energies == sorted(energies, reverse=True)

    def test_rebuilt_plane_serves_identical_bytes(self, campaign, windows):
        """Same windows, same refresh count => byte-identical answers."""
        log, _store = campaign
        a = build_plane(log, windows)
        b = build_plane(log, windows)
        for route in ("fleet/cap", "fleet/savings", "jobs", "policy"):
            assert a.cache.view.body(route) == b.cache.view.body(route)


class TestPolicy:
    def test_set_policy_switches_objective_and_republishes(
        self, campaign, windows
    ):
        log, _store = campaign
        plane = build_plane(log, windows)
        old = plane.cache.view
        view = plane.set_policy(objective="edp", max_slowdown_pct=2.0)
        assert view.version == old.version + 1
        assert view.policy_version == old.policy_version + 1
        assert view.policy["objective"] == "edp"
        assert view.policy["max_slowdown_pct"] == 2.0
        assert view.decision.objective == "edp"
        # The old view stays frozen (pollers mid-request are safe).
        assert old.policy["objective"] == "slowdown"

    def test_bad_policy_rejected_without_side_effects(
        self, campaign, windows
    ):
        log, _store = campaign
        plane = build_plane(log, windows)
        before = plane.cache.version
        with pytest.raises(ServeError, match="unknown objective"):
            plane.set_policy(objective="nope")
        with pytest.raises(ServeError, match="bad slowdown budget"):
            plane.set_policy(max_slowdown_pct="lots")
        with pytest.raises(ServeError, match=">= 0"):
            plane.set_policy(max_slowdown_pct=-3)
        assert plane.policy.objective == "slowdown"
        assert plane.cache.version == before

    def test_constructor_validates_policy(self, campaign):
        log, _store = campaign
        with pytest.raises(ServeError):
            build_plane(log, [], objective="nope")
        with pytest.raises(ServeError):
            build_plane(log, [], max_slowdown_pct=-1.0)


class TestServeMetrics:
    def test_no_view_no_metrics(self, campaign):
        log, _store = campaign
        plane = build_plane(log, [])
        # build_plane drains, which publishes; a raw plane does not.
        raw = ControlPlane(log)
        assert raw.serve_metric_values() == {}
        assert plane.serve_metric_values()["serve_snapshot_version"] >= 1

    def test_snapshot_age_tracks_unpublished_windows(
        self, campaign, windows
    ):
        log, _store = campaign
        plane = ControlPlane(log, window_s=WINDOW_S)
        half = len(windows) // 2
        for window in windows[:half]:
            plane.ingest(window)
        plane.refresh()
        assert plane.serve_metric_values()["serve_snapshot_age_s"] == 0.0
        # Ingest behind the cache's back: sealed frontier advances but
        # nothing is published, so event-time staleness grows ...
        for window in windows[half:]:
            plane.engine.ingest(window)
        plane.engine.drain()
        stale = plane.serve_metric_values()["serve_snapshot_age_s"]
        assert stale > 0.0
        # ... and one refresh clears it.
        plane.refresh()
        assert plane.serve_metric_values()["serve_snapshot_age_s"] == 0.0

    def test_observe_request_meters_registry(self, campaign, windows):
        log, _store = campaign
        plane = build_plane(log, windows)
        view = plane.cache.view
        for _ in range(3):
            plane.count_request("/v1/fleet/cap", 200)
            plane.observe_request("/v1/fleet/cap", 200, 0.0004, view)
        plane.count_request("/v1/nope", 404)
        plane.observe_request("/v1/nope", 404, 0.0001, view)
        counter = plane.registry.counter(
            "serve_requests_total", endpoint="/v1/fleet/cap", status="200"
        )
        assert counter.value == 3.0
        hist = plane.registry.histogram(
            "serve_request_seconds", endpoint="/v1/fleet/cap"
        )
        assert hist.count == 3
        text = plane.registry.to_prometheus()
        assert "serve_requests_total" in text
        assert "serve_cache_age_s" in text
        assert 'endpoint="/v1/nope",status="404"' in text


class TestLifecycle:
    def test_run_respects_stop_request(self, campaign, windows):
        log, _store = campaign
        plane = ControlPlane(log)
        plane.request_stop()
        plane.run(iter(windows))
        assert plane.engine.stats.windows_folded == 0

    def test_run_max_chunks(self, campaign, windows):
        log, _store = campaign
        plane = ControlPlane(log, window_s=WINDOW_S)
        plane.run(iter(windows), max_chunks=3, drain=False)
        assert plane.engine.stats.chunks_in == 3

    def test_close_is_idempotent(self, campaign, windows):
        log, _store = campaign
        plane = build_plane(log, windows)
        plane.serve(port=0)
        plane.close()
        plane.close()
