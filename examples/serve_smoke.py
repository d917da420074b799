#!/usr/bin/env python3
"""CI smoke test: the control plane end to end, over real TCP.

Stands up a live :class:`repro.serve.ControlPlane`, streams a small
simulated campaign into it while polling the HTTP API, and verifies the
serving contract:

1. ``/v1/fleet/cap`` answers before ingest starts (initial snapshot)
   and its ``version`` advances as windows seal;
2. the cap decision matches the stream layer's Table V advisor
   (slowdown-objective parity) once the campaign is drained;
3. ``POST /v1/policy`` switches the objective live and bumps the
   policy version;
4. one ``/metrics`` scrape covers both sides: ``serve_requests_total``
   (serving) and ``stream_samples_in`` (ingest);
5. 50 distinct unknown paths add at most one ``serve_requests_total``
   series (one fixed label for every unmatched request);
6. ``POST /v1/admin/shutdown`` requests a graceful stop.

Run:  python examples/serve_smoke.py

Exits non-zero on the first violated expectation; CI runs this in the
serve-gate job.
"""

import json
import sys
import time
import urllib.request

from repro.obs.httpd import fetch_url, post_url
from repro.serve import ControlPlane
from repro.stream import simulated_fleet


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return json.loads(resp.read().decode())


def request_series(url: str) -> int:
    """How many ``serve_requests_total`` series one scrape shows."""
    _status, text = fetch_url(url + "/metrics")
    return sum(line.startswith("serve_requests_total{")
               for line in text.splitlines())


def main() -> int:
    log, source = simulated_fleet(fleet_nodes=16, days=0.25, seed=0)
    plane = ControlPlane(log)

    with plane:
        server = plane.serve(port=0)
        url = server.url
        print(f"control plane on {url}")

        first = get_json(url + "/v1/fleet/cap")
        if first["version"] != 1:
            return fail(f"initial snapshot version {first['version']}")

        deadline = time.monotonic() + 120
        fresh = first
        for i, chunk in enumerate(source):
            plane.ingest(chunk)
            if (i + 1) % 10 == 0:
                fresh = get_json(url + "/v1/fleet/cap")
            if time.monotonic() > deadline:
                return fail("ingest did not finish within the deadline")
        if fresh["version"] <= 1 or fresh["windows_folded"] == 0:
            return fail("snapshot never advanced during ingest")
        print(
            f"snapshot advanced to version {fresh['version']} "
            f"({fresh['windows_folded']} windows folded) mid-ingest"
        )
        plane.drain()

        final = get_json(url + "/v1/fleet/cap")
        decision, advisor = final["decision"], final["advisor"]
        if advisor is None:
            return fail("drained campaign produced no advisor")
        if decision["cap"] != advisor["cap"]:
            return fail(
                f"slowdown decision cap {decision['cap']} != Table V "
                f"advisor cap {advisor['cap']}"
            )
        print(
            f"decision parity: cap {decision['cap']} "
            f"({decision['savings_pct']:.2f} % saving) matches the "
            f"advisor"
        )

        status, body = post_url(
            url + "/v1/policy", {"objective": "edp"},
        )
        doc = json.loads(body)
        if status != 200 or doc["policy"]["objective"] != "edp":
            return fail(f"policy switch answered {status}: {body[:200]}")
        if doc["policy_version"] < 2:
            return fail(f"policy version stuck at {doc['policy_version']}")
        print(f"policy switched to edp (v{doc['policy_version']})")

        with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
            metrics = resp.read().decode()
        for needle in ("serve_requests_total", "stream_samples_in",
                       "serve_request_seconds"):
            if needle not in metrics:
                return fail(f"/metrics is missing {needle}")
        print("one /metrics scrape covers serving + ingest")

        before = request_series(url)
        for i in range(50):
            status, _body = fetch_url(url + f"/nope-{i}")
            if status != 404:
                return fail(f"unknown path answered {status}")
        grown = request_series(url) - before
        if grown > 1:
            return fail(
                f"50 unknown paths added {grown} serve_requests_total series"
            )
        print(f"50 unknown paths added {grown} request series")

        status, _body = post_url(url + "/v1/admin/shutdown")
        if status != 200 or not plane.stop_event.is_set():
            return fail("graceful shutdown was not requested")

    print("OK: control plane served, converged, switched policy, shut down")
    return 0


if __name__ == "__main__":
    sys.exit(main())
