"""Health monitoring: alert rules, drift detection, exporter, dashboard.

The closing of the observability loop (see :mod:`repro.obs`): PR 3's
metrics and traces record what a run *did*; this package watches what a
*live* run is doing and says so — in rule state machines
(:mod:`~repro.obs.health.rules`), a power-mode drift detector pinned to
Table IV (:mod:`~repro.obs.health.drift`), an HTTP exporter serving
``/metrics`` / ``/health`` / ``/alerts``
(:mod:`~repro.obs.health.server`), and an in-place terminal dashboard
(:mod:`~repro.obs.health.dashboard`).

Everything is clock-free by construction: evaluation is driven by the
stream's event-time watermark, so a replayed campaign yields the
identical alert timeline, and the whole layer is read-only with respect
to the pipeline — outputs stay bitwise identical with health monitoring
on (asserted in ``tests/obs/``).  Attached with the window sinks in one
``engine.attach(health=monitor, ...)`` call, the monitor's alert state
is stamped on every window record, and an attached event log hears its
alert transitions.

Usage::

    from repro.obs.health import HealthMonitor, HealthServer

    monitor = HealthMonitor()           # default ruleset + paper reference
    engine.attach(health=monitor)       # evaluated per drained window
    with HealthServer(monitor=monitor, port=9109) as srv:
        engine.run(source)              # scrape srv.url + "/metrics"
    print(monitor.to_health_dict()["status"])

or from the CLI: ``repro stream --watch --serve 9109``.
"""

from .dashboard import Dashboard, render_dashboard
from .drift import (
    DriftDetector,
    DriftReference,
    DriftReport,
    render_drift,
    tv_distance,
)
from .monitor import HealthMonitor
from .rules import (
    DEFAULT_RULES_PATH,
    AlertEngine,
    RuleSpec,
    default_rules,
    load_rules,
    parse_rules,
    render_events,
)
from .server import HealthServer, fetch_url

__all__ = [
    "Dashboard",
    "render_dashboard",
    "DriftDetector",
    "DriftReference",
    "DriftReport",
    "render_drift",
    "tv_distance",
    "HealthMonitor",
    "DEFAULT_RULES_PATH",
    "AlertEngine",
    "RuleSpec",
    "default_rules",
    "load_rules",
    "parse_rules",
    "render_events",
    "HealthServer",
    "fetch_url",
]
