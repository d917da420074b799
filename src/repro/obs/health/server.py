"""Zero-dependency HTTP exporter: ``/metrics``, ``/health``, ``/alerts``.

Three read-only views of the live observability state, plus ``/``
listing them:

* ``/metrics`` — Prometheus text exposition of the wrapped registry
  (scrape target);
* ``/health``  — JSON rule states; answers 200 while no rule fires and
  503 while one does, so it drops straight into a readiness probe;
* ``/alerts``  — the firing set plus the bounded transition-history
  ring (incident timeline).

These are :data:`OBS_ROUTES`.  The exporter is the table-driven
:class:`repro.obs.httpd.HttpService` with only these routes (anything
else is 404, and no request is metered); the control plane
(:mod:`repro.serve.http`) serves the same entries after its ``/v1``
routes, so one scrape covers ingest and serving.  Every request re-reads
the registry/monitor.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...errors import HealthError
from ..httpd import HttpService, Route, RouteTable
from ..httpd import fetch_url as _fetch_url
from ..metrics import MetricsRegistry
from .monitor import HealthMonitor


def _metrics(handler, service, match) -> int:
    return handler._send(
        200, "text/plain; version=0.0.4", service.metrics_text()
    )


def _health(handler, service, match) -> int:
    monitor = service.monitor
    if monitor is None:
        return handler._send_json(200, {"status": "ok", "rules": []})
    doc = monitor.to_health_dict()
    return handler._send_json(200 if doc["status"] == "ok" else 503, doc)


def _alerts(handler, service, match) -> int:
    monitor = service.monitor
    doc = (
        monitor.to_alerts_dict()
        if monitor is not None
        else {"firing": [], "history": []}
    )
    return handler._send_json(200, doc)


def _index(handler, service, match) -> int:
    return handler._send(
        200, "text/plain",
        f"repro {service.service_name}\nendpoints: {service.routes.index}\n",
    )


#: The observability endpoints.  A service serving them provides
#: ``metrics_text()`` and a ``monitor`` (``None`` answers an empty,
#: healthy rule set).
OBS_ROUTES = (
    Route("GET", "/metrics", _metrics),
    Route("GET", "/health", _health),
    Route("GET", "/alerts", _alerts),
    Route("GET", "/", _index),
)


class HealthServer(HttpService):
    """Serve a registry (and optionally a monitor) over local HTTP.

    ::

        with HealthServer(monitor=monitor, port=0) as srv:
            print(srv.url)          # http://127.0.0.1:<ephemeral>
            ...                     # scrape while streaming
        # socket closed, thread joined

    ``port=0`` binds an ephemeral port (tests, CI smoke); the bound port
    is available as :attr:`port` after :meth:`start`.
    """

    error_class = HealthError
    service_name = "health exporter"
    routes = RouteTable(OBS_ROUTES)

    def __init__(
        self,
        *,
        monitor: Optional[HealthMonitor] = None,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host=host, port=port)
        if registry is None:
            registry = (
                monitor.registry if monitor is not None else MetricsRegistry()
            )
        self.monitor = monitor
        self.registry = registry

    def metrics_text(self) -> str:
        return self.registry.to_prometheus()

    def on_handler_error(self, exc: BaseException) -> None:
        self.registry.counter(
            "http_handler_errors_total",
            "unhandled handler exceptions answered with a 500",
        ).inc()


def fetch_url(url: str, *, timeout_s: float = 5.0) -> Tuple[int, str]:
    """GET one endpoint; returns ``(status, body)`` without raising on 4xx/5xx."""
    return _fetch_url(url, timeout_s=timeout_s, error_class=HealthError)
