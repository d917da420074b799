"""The route table: every endpoint answers and is metered from one entry.

Over a plane with every sink attached (health monitor, flight recorder,
history, event log), each entry of :data:`repro.serve.http.ROUTES` is
requested over HTTP: a ``GET /v1`` answer is byte-identical to the
published view's body for the route's canonical key, and every request
is metered under the entry's own label.  Requests no entry matches share
one label, however many distinct paths arrive; the health exporter
serves only the observability entries.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.health import HealthMonitor, HealthServer
from repro.obs.history import History
from repro.obs.httpd import UNMATCHED, fetch_url, post_url
from repro.obs.log import EventLog
from repro.serve.http import ROUTES, cache_key
from tests.serve.conftest import build_plane


def _series(plane, name: str) -> dict:
    """``{(endpoint, status): value or count}`` of one labelled family."""
    family = plane.registry.to_dict().get(name, {"series": []})
    return {
        (s["labels"]["endpoint"], s["labels"].get("status")):
            s.get("value", s.get("count"))
        for s in family["series"]
    }


def _grown(plane, name: str, before: dict) -> dict:
    """The series that grew since ``before``, and by how much.

    A body larger than the write buffer reaches the client before the
    request is metered, so this waits (briefly) for the meter.
    """
    deadline = time.monotonic() + 5.0
    while True:
        after = _series(plane, name)
        grown = {k: v - before.get(k, 0) for k, v in after.items()
                 if v != before.get(k, 0)}
        if grown or time.monotonic() > deadline:
            return grown
        time.sleep(0.005)


def _full_plane(campaign, windows):
    log, _store = campaign
    return build_plane(
        log, windows,
        monitor=HealthMonitor(drift=False),
        forensics=True,
        history=History(),
        event_log=EventLog(),
    )


@pytest.fixture(scope="module")
def served(campaign, windows):
    plane = _full_plane(campaign, windows)
    url = plane.serve(port=0).url
    yield plane, url
    plane.close()


@pytest.fixture
def served_alone(campaign, windows):
    """A plane no earlier test has sent requests to: a request is metered
    after its body reaches the client, so another test's last request
    may still be landing in the shared plane's registry."""
    plane = _full_plane(campaign, windows)
    url = plane.serve(port=0).url
    yield plane, url
    plane.close()


def _target(route, plane) -> str:
    """A concrete request path for a table entry."""
    view = plane.cache.view
    incidents = view.incidents.doc["incidents"]
    ids = {
        "/v1/jobs/": str(view.jobs.active_job_ids()[0]),
        "/v1/incidents/": incidents[0]["id"] if incidents else "none",
    }
    path = route.path
    for prefix, value in ids.items():
        if path.startswith(prefix):
            path = path.replace("{id}", value)
    return path


class TestEveryRoute:
    def test_get_bodies_and_labels_come_from_the_table(self, served):
        plane, url = served
        view_routes = [r for r in ROUTES.routes if r.build is not None]
        assert len(view_routes) == 12
        for route in view_routes:
            path = _target(route, plane)
            before = _series(plane, "serve_requests_total")
            status, body = fetch_url(url + path)
            match = ROUTES.match("GET", path)
            assert match.route is route, path
            expect = plane.cache.view.body(cache_key(match))
            assert (status, body.encode()) == expect, path
            assert _grown(plane, "serve_requests_total", before) == {
                (route.label, str(status)): 1.0
            }, path

    def test_every_other_route_is_metered_under_its_label(
        self, campaign, windows
    ):
        log, _store = campaign
        plane = build_plane(log, windows[:4])
        with plane:
            url = plane.serve(port=0).url
            others = [r for r in ROUTES.routes if r.build is None]
            # Shutdown last: the serve loop would stop after it.
            others.sort(key=lambda r: r.path == "/v1/admin/shutdown")
            for route in others:
                before = _series(plane, "serve_request_seconds")
                send = post_url if route.method == "POST" else fetch_url
                status, _body = send(url + route.path)
                assert status in (200, 503), route
                assert _grown(plane, "serve_request_seconds", before) == {
                    (route.label, None): 1
                }, route
            assert plane.stop_event.is_set()

    def test_the_index_lists_the_table(self, served):
        _plane, url = served
        status, text = fetch_url(url + "/")
        assert status == 200
        assert text == (
            "repro control plane\nendpoints: " + ROUTES.index + "\n"
        )
        for route in ROUTES.routes:
            assert route.path in text


class TestBoundedLabels:
    def test_distinct_unknown_paths_add_at_most_one_series_per_status(
        self, served_alone
    ):
        plane, url = served_alone
        before = _series(plane, "serve_requests_total")
        for i in range(50):
            assert fetch_url(url + f"/nope-{i}")[0] == 404
            assert fetch_url(url + f"/v1/jobs/1/x{i}")[0] == 404
            assert post_url(url + f"/nope-{i}")[0] == 405
        after = _series(plane, "serve_requests_total")
        new = set(after) - set(before)
        assert new <= {(UNMATCHED.label, "404"), (UNMATCHED.label, "405")}
        assert after[UNMATCHED.label, "404"] - \
            before.get((UNMATCHED.label, "404"), 0) == 100
        hist = _series(plane, "serve_request_seconds")
        assert not any(
            endpoint.startswith(("/nope", "/v1/jobs/1/x"))
            for endpoint, _ in hist
        )


class TestHealthExporter:
    def test_serves_only_the_observability_routes(self):
        with HealthServer(monitor=HealthMonitor(drift=False)) as server:
            for route in ROUTES.routes:
                path = route.path.replace("{id}", "1")
                status, _body = (
                    post_url if route.method == "POST" else fetch_url
                )(server.url + path)
                if path.startswith("/v1/"):
                    assert status == (
                        404 if route.method == "GET" else 405
                    ), path
                else:
                    assert status == 200, path
            assert fetch_url(server.url + "/v1/fleet/cap")[0] == 404
            # The exporter meters no requests.
            assert "serve_requests_total" not in \
                server.registry.to_prometheus()
