"""The ``/v1/logs`` route, route-key canonicalization, and the bitwise
invisibility contract: attaching an :class:`EventLog` to a plane must
not change a single byte of the decision-bearing routes.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.httpd import fetch_url
from repro.obs.log import EventLog
from tests.serve.conftest import build_plane, route_key

#: Decision-bearing routes whose bytes must not move when logging is on.
INVISIBLE_KEYS = ("fleet/cap", "fleet/savings", "policy", "jobs")


@pytest.fixture(scope="module")
def logged(campaign, windows):
    log, _store = campaign
    plane = build_plane(log, windows, event_log=EventLog(capacity=16_384))
    server = plane.serve(port=0)
    yield plane, server.url
    plane.close()


def get_doc(url: str):
    status, body = fetch_url(url)
    return status, json.loads(body)


class TestLogsRoute:
    def test_window_seals_and_decisions_are_served(self, logged):
        plane, url = logged
        status, doc = get_doc(url + "/v1/logs?limit=100000")
        assert status == 200
        assert doc["version"] == plane.cache.view.version
        events = {r["event"] for r in doc["logs"]}
        assert "stream.window_seal" in events
        assert "serve.decide_cap" in events
        assert "serve.publish" in events
        assert doc["count"] == len(doc["logs"])
        assert doc["summary"]["emitted"] >= doc["count"]
        # Seals are window-correlated with dense occurrence ids.
        seals = [r for r in doc["logs"]
                 if r["event"] == "stream.window_seal"]
        assert [r["window"] for r in seals] == list(range(len(seals)))
        assert seals[0]["id"] == "stream.window_seal:1"

    def test_filters_compose(self, logged):
        _plane, url = logged
        status, doc = get_doc(url + "/v1/logs?event=serve.&limit=100000")
        assert status == 200
        assert doc["count"] > 0
        assert all(r["event"].startswith("serve.") for r in doc["logs"])

        status, doc = get_doc(url + "/v1/logs?window=0")
        assert status == 200
        assert all(r["window"] == 0 for r in doc["logs"])

        status, doc = get_doc(url + "/v1/logs?limit=3")
        assert status == 200
        assert doc["count"] == 3

    def test_bad_parameters_answer_400(self, logged):
        _plane, url = logged
        assert fetch_url(url + "/v1/logs?severity=noisy")[0] == 400
        assert fetch_url(url + "/v1/logs?t0=yesterday")[0] == 400

    def test_repeated_requests_share_cached_bytes(self, logged):
        _plane, url = logged
        a = fetch_url(url + "/v1/logs?limit=10")
        b = fetch_url(url + "/v1/logs?limit=10")
        assert a == b and a[0] == 200

    def test_route_is_404_without_an_event_log(self, drained_plane):
        status, payload = drained_plane.cache.view.body("logs")
        assert status == 404
        assert b"logging disabled" in payload

    def test_request_exemplars_ride_the_scrape(self, logged):
        _plane, url = logged
        fetch_url(url + "/v1/logs")      # at least one observed request
        # Request metering lands just after the response is sent, so
        # give the handler thread a few scrapes to flush it.
        for _ in range(50):
            status, text = fetch_url(url + "/metrics")
            assert status == 200
            exemplar_lines = [
                line for line in text.splitlines()
                if "serve_request_seconds_bucket" in line
                and '# {trace_id="' in line
            ]
            if exemplar_lines:
                break
            time.sleep(0.02)
        assert exemplar_lines


class TestBitwiseInvisibility:
    def test_logging_never_moves_decision_bytes(self, logged,
                                                drained_plane):
        plane, _url = logged
        for key in INVISIBLE_KEYS:
            status_a, body_a = drained_plane.cache.view.body(key)
            status_b, body_b = plane.cache.view.body(key)
            assert status_a == status_b == 200
            assert body_a == body_b, f"route {key} bytes moved"


class TestLogsRouteKey:
    def test_equivalent_spellings_collapse(self):
        assert route_key("/v1/logs?t0=100&t1=200.0") == \
            route_key("/v1/logs?t0=100.0&t1=200")

    def test_bounded_key_space_for_hostile_values(self):
        assert route_key("/v1/logs?severity=zzz") == "logs?severity=bad"
        assert route_key("/v1/logs?event=a&event=../../etc") == \
            "logs?event=bad"
        assert route_key("/v1/logs?window=NaNs") == "logs?window=bad"
        assert route_key("/v1/logs?nonsense=1") == "logs"
        assert route_key("/v1/logs?limit=99999999") == "logs?limit=100000"

    def test_prefix_events_are_preserved(self):
        assert route_key("/v1/logs?event=serve.") == "logs?event=serve."
