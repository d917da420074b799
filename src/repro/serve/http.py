"""The control-plane HTTP API: one route table.

:data:`ROUTES` declares every endpoint once (documented in
``docs/serving.md``); the handler, ``ServeView._build`` and the ``/``
index all dispatch from it.  A ``GET /v1`` route answers from the
immutable published view (read-through byte cache), so request handling
never touches ingest state.  The observability routes are the health
exporter's :data:`~repro.obs.health.server.OBS_ROUTES`, so one scrape
covers ingest and serving.  Requests are metered into the plane's
registry under the route's path pattern:
``serve_requests_total{endpoint,status}``, a ``serve_request_seconds``
histogram with sub-millisecond buckets and the ``serve_cache_age_s``
gauge; an unmatched request is metered under ``*``.
"""

from __future__ import annotations

import re
import time
from typing import Dict

from ..errors import ServeError
from ..obs.health.server import OBS_ROUTES
from ..obs.history.query import QUERY_AGGS
from ..obs.httpd import HttpService, Match, Route, RouteTable, parse_query
from ..obs.log.events import SEVERITIES

#: Sub-millisecond-resolving latency buckets (seconds) for the
#: serve_request_seconds histogram; the SLO gate is p99 < 5 ms.
SERVE_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0,
)

_SERIES_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,79}$")

#: Event names are dotted identifiers (``serve.decide_cap``); a
#: trailing dot is a valid prefix filter (``serve.``).
_EVENT_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]{0,79}$")


# -- cache-key normalizers: parsed query -> canonical query -----------------------
#
# Floats via ``repr(float(...))``, names checked against closed sets or
# bounded patterns, unknown keys dropped, bad values mapped to ``bad``:
# equivalent requests share one body, hostile ones cannot grow the keys.

def _number(params: Dict[str, str], key: str, parse) -> list:
    """``[key=<canonical>]`` (``key=bad`` if unparsable), ``[]`` if absent."""
    if key not in params:
        return []
    try:
        return [f"{key}={parse(params[key])!r}"]
    except ValueError:
        return [f"{key}=bad"]


def _limit(value: str, default) -> int:
    try:
        limit = int(value)
    except ValueError:
        return default
    return max(0, min(limit, 100_000))


def _jobs_key(params: Dict[str, str]) -> str:
    limit = _limit(params.get("limit", ""), None)
    return "" if limit is None else f"limit={limit}"


def _query_key(params: Dict[str, str]) -> str:
    series = params.get("series", "")
    pieces = [f"series={series if _SERIES_NAME_RE.match(series) else ''}"]
    for key in ("t0", "t1", "step"):
        pieces += _number(params, key, float)
    if "agg" in params:
        agg = params["agg"]
        pieces.append(f"agg={agg if agg in QUERY_AGGS else 'bad'}")
    pieces += _number(params, "level", int)
    return "&".join(pieces)


def _logs_key(params: Dict[str, str]) -> str:
    pieces = _number(params, "t0", float) + _number(params, "t1", float)
    if "severity" in params:
        severity = params["severity"]
        pieces.append(
            f"severity={severity if severity in SEVERITIES else 'bad'}"
        )
    if "event" in params:
        event = params["event"]
        if not _EVENT_NAME_RE.match(event.rstrip(".")) or ".." in event:
            event = "bad"
        pieces.append(f"event={event}")
    pieces += _number(params, "window", int)
    if "limit" in params:
        pieces.append(f"limit={_limit(params['limit'], 200)}")
    return "&".join(pieces)


def cache_key(match: Match) -> str:
    """The view key of a ``GET /v1`` match: ``/v1/jobs?limit=5`` -> ``jobs?limit=5``."""
    route = match.route
    query = route.key(parse_query(match.query)) if route.key else ""
    rest = match.path[len("/v1/"):]
    return f"{rest}?{query}" if query else rest


# -- answers ------------------------------------------------------------------------

def _from_view(handler, service, match: Match) -> int:
    view = handler.view
    if view is None:
        return handler._send_json(
            503, {"error": "no snapshot published yet"}
        )
    status, payload = view.body(cache_key(match))
    return handler._send_bytes(status, "application/json", payload)


def _set_policy(handler, service, match: Match) -> int:
    doc = handler._read_json_body()
    view = service.plane.set_policy(
        objective=doc.get("objective"),
        max_slowdown_pct=doc.get("max_slowdown_pct"),
    )
    status, payload = view.body("policy")
    return handler._send_bytes(status, "application/json", payload)


def _shutdown(handler, service, match: Match) -> int:
    handler._send_json(200, {"status": "shutting down"})
    service.plane.request_stop()
    return 200


def _view_route(path: str, build: str, key=None) -> Route:
    return Route("GET", path, _from_view, key=key, build=build)


#: Every control-plane endpoint, in ``/`` index order.
ROUTES = RouteTable((
    _view_route("/v1/fleet/cap", "_fleet_cap_doc"),
    _view_route("/v1/fleet/savings", "_fleet_savings_doc"),
    _view_route("/v1/jobs", "_jobs_doc", key=_jobs_key),
    _view_route("/v1/jobs/{id}", "_job_doc"),
    _view_route("/v1/jobs/{id}/cap", "_job_cap_doc"),
    _view_route("/v1/jobs/{id}/savings", "_job_savings_doc"),
    _view_route("/v1/incidents", "_incidents_doc"),
    _view_route("/v1/incidents/{id}", "_incident_doc"),
    _view_route("/v1/series", "_series_doc"),
    _view_route("/v1/query", "_query_doc", key=_query_key),
    _view_route("/v1/logs", "_logs_doc", key=_logs_key),
    _view_route("/v1/policy", "_policy_doc"),
    Route("POST", "/v1/policy", _set_policy),
    Route("POST", "/v1/admin/shutdown", _shutdown),
) + OBS_ROUTES)


class ControlPlaneServer(HttpService):
    """Serve one :class:`~repro.serve.service.ControlPlane` over HTTP.

    Same contract as the health exporter: daemon serving thread,
    ``port=0`` ephemeral binding, idempotent :meth:`start`/:meth:`close`,
    context-manager form joins the thread and releases the socket.
    """

    error_class = ServeError
    service_name = "control plane"
    routes = ROUTES

    def __init__(self, plane, *, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host=host, port=port)
        self.plane = plane
        self.monitor = plane.monitor

    def answer(self, handler):
        """Answer from the view current at arrival, then time the request
        (its flush included)."""
        t0 = time.perf_counter()
        view = handler.view = self.plane.cache.view
        route, status = super().answer(handler)
        self.plane.observe_request(
            route.label, status, time.perf_counter() - t0, view
        )
        return route, status

    def on_answer(self, route, status: int) -> None:
        self.plane.count_request(route.label, status)

    def metrics_text(self) -> str:
        # With an event log attached, latency buckets carry OpenMetrics
        # exemplars (trace id of the slowest request).
        plane = self.plane
        with plane.metrics_lock:
            return plane.registry.to_prometheus(
                exemplars=plane.event_log is not None
            )

    def on_handler_error(self, exc: BaseException) -> None:
        plane = self.plane
        with plane.metrics_lock:
            plane.registry.counter(
                "serve_handler_errors_total",
                "unhandled handler exceptions answered with a 500",
            ).inc()
