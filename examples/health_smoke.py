#!/usr/bin/env python3
"""CI smoke test: the health layer end to end, over real TCP.

Streams a deliberately broken delivery — no lateness allowance and an
event-time window far below the delivery jitter, so a deterministic
share of samples arrives behind the sealed frontier and drops — with a
live health exporter attached, then verifies the whole alert path:

1. ``/metrics`` serves Prometheus text including the ``stream_*``
   ingest gauges and the alert-state mirrors;
2. the default ``stream_late_dropped_spike`` rate rule fires;
3. ``/health`` answers 503 (readiness probe semantics) while it does;
4. ``repro obs alerts --url ... --check`` exits non-zero.

Run:  python examples/health_smoke.py

Exits non-zero on the first violated expectation; CI runs this in the
bench-gate job.
"""

import json
import sys
import urllib.error
import urllib.request

from repro import constants, units
from repro.cli import main as cli_main
from repro.obs.health import HealthMonitor, HealthServer, render_events
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import StreamEngine, perturb
from repro.telemetry import FleetTelemetryGenerator


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    nodes, days = 16, 0.25
    jitter_s = 8 * constants.TELEMETRY_INTERVAL_S

    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=0)
    store = FleetTelemetryGenerator(log, mix, seed=1000).generate()

    monitor = HealthMonitor()
    engine = StreamEngine(
        log, window_s=jitter_s / 4, lateness_s=0.0
    ).attach(health=monitor)

    with HealthServer(monitor=monitor) as srv:
        print(f"health exporter on {srv.url}")
        engine.run(perturb(
            store, seed=2, lateness_s=jitter_s, rows_per_chunk=512,
        ))
        stats = engine.stats
        if stats.late_dropped == 0:
            return fail("broken delivery produced no late drops")

        with urllib.request.urlopen(srv.url + "/metrics", timeout=5) as r:
            if r.status != 200:
                return fail(f"/metrics answered {r.status}")
            metrics = r.read().decode()
        if "stream_late_dropped" not in metrics:
            return fail("/metrics is missing the stream ingest gauges")
        if 'health_rule_state{rule="stream_late_dropped_spike"} 2' \
                not in metrics:
            return fail(
                "stream_late_dropped_spike is not firing in /metrics"
            )

        try:
            urllib.request.urlopen(srv.url + "/health", timeout=5)
            return fail("/health answered 200 while alerts fire")
        except urllib.error.HTTPError as exc:
            if exc.code != 503:
                return fail(f"/health answered {exc.code}, expected 503")
            health = json.loads(exc.read().decode())
        firing = {
            r["name"] for r in health["rules"] if r["state"] == "firing"
        }
        if "stream_late_dropped_spike" not in firing:
            return fail(f"/health firing set is {sorted(firing)}")

        rc = cli_main(["obs", "alerts", "--url", srv.url, "--check"])
        if rc != 1:
            return fail(f"obs alerts --check exited {rc}, expected 1")

    print(render_events(monitor.events, title="alert timeline:"))
    print(
        f"OK: {stats.late_dropped} of {stats.samples_in} samples dropped "
        "late; stream_late_dropped_spike fired; /health answered 503; "
        "obs alerts --check exited 1"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
