"""The control plane: ingest + analytics + policy + publication.

:class:`ControlPlane` wires the pieces into one long-running service:

* a :class:`~repro.stream.engine.StreamEngine` folds arrival chunks
  into the fleet cube, with the per-job
  :class:`~repro.serve.analytics.JobAccumulator` riding the engine's
  window-observer hook so both folds see the identical canonical
  window sequence (and share each window's derived rows);
* after every ingest that seals windows, :meth:`refresh` publishes a
  new immutable :class:`~repro.serve.cache.ServeView` (the fold frame:
  cube and Table IV, ingest stats, per-job stats, the cap decision
  under the active objective) into the
  :class:`~repro.serve.cache.SnapshotCache`; Tables V/VI and the fleet
  advice render on a view's first read;
* :meth:`serve` exposes the cache over HTTP
  (:class:`~repro.serve.http.ControlPlaneServer`); request metrics land
  in the same :class:`~repro.obs.metrics.MetricsRegistry` the ingest
  mirrors write to, so one ``/metrics`` scrape covers both;
* ``serve_snapshot_age_s`` — how far the engine's sealed frontier has
  run ahead of the published view, in event-time seconds — rides the
  engine's metric-source hook into health rule evaluation, so the
  shipped ``serve_snapshot_stale`` rule fires when publication stalls
  behind ingest.

The policy (objective + slowdown budget) is mutable at runtime via
:meth:`set_policy` (the ``POST /v1/policy`` endpoint); every change
republishes immediately.
"""

from __future__ import annotations

import math
import threading
import time
from functools import partial
from typing import Dict, Iterable, Optional


from .. import constants
from ..core.characterization import CapFactors, measured_factors
from ..errors import ServeError
from ..obs import runtime as _obs
from ..obs.metrics import MetricsRegistry
from ..scheduler.log import SchedulerLog
from ..stream.buffer import DEFAULT_WINDOW_S
from ..stream.engine import StreamEngine
from ..telemetry.schema import TelemetryChunk
from .analytics import JobAccumulator
from .cache import ServeView, SnapshotCache
from .http import SERVE_LATENCY_BUCKETS, ControlPlaneServer
from .jobs import JobStateIndex
from .objectives import decide_cap, get_objective


def _frontier_s(stats) -> Optional[float]:
    """Folded event-time frontier of one engine snapshot, if any.

    ``stats`` is an :class:`~repro.stream.engine.IngestStats` or the
    reorder buffer itself (both carry the two clocks).
    """
    for candidate in (stats.sealed_until_s, stats.max_event_time_s):
        if math.isfinite(candidate):
            return float(candidate)
    return None


def _published_decision(cache: SnapshotCache):
    """The decision every sealed window's record stamps.

    Reads the *published* view — the decision a live fleet was acting
    on while the window's samples were generated — not the decision the
    window itself will produce after the next refresh.
    """
    view = cache.view
    if view is None:
        return (None, None, None, None)
    decision = view.decision
    return (
        decision.cap if decision.capped else None,
        view.policy.get("objective"),
        view.version,
        _frontier_s(view.stats),
    )


def _serve_metric_values(cache: SnapshotCache, buffer) -> Dict[str, float]:
    """Serving gauges merged into the engine's metric stream.

    ``serve_snapshot_age_s`` is *event-time* staleness: how far the
    engine's sealed frontier has advanced past the published view's.
    It grows only when ingest seals windows the API has not been
    given — exactly the condition the ``serve_snapshot_stale`` health
    rule watches — and is immune to wall-clock idleness of a fully
    drained stream.
    """
    view = cache.view
    if view is None:
        return {}
    values = {"serve_snapshot_version": float(view.version)}
    # Sealed frontier of a live engine; a *drained* engine reports a
    # non-finite sentinel, so fall back to the last event time —
    # otherwise draining without republishing would make the metric
    # vanish and silently resolve the staleness alert.
    frontier = _frontier_s(buffer)
    published = _frontier_s(view.stats)
    if frontier is not None:
        values["serve_snapshot_age_s"] = max(
            0.0, frontier - (published if published is not None else 0.0)
        )
    return values


class PolicyState:
    """The mutable serving policy (objective + budget), version-stamped."""

    def __init__(
        self,
        *,
        objective: str = "slowdown",
        max_slowdown_pct: float = 5.0,
        knob: str = "frequency",
        campaign_energy_mwh: Optional[float] = None,
    ) -> None:
        get_objective(objective)
        if max_slowdown_pct < 0:
            raise ServeError("slowdown budget must be >= 0")
        self.objective = objective
        self.max_slowdown_pct = float(max_slowdown_pct)
        self.knob = knob
        self.campaign_energy_mwh = campaign_energy_mwh
        self.version = 1

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "max_slowdown_pct": self.max_slowdown_pct,
            "knob": self.knob,
            "campaign_energy_mwh": self.campaign_energy_mwh,
        }


class ControlPlane:
    """Live telemetry in, cached cap decisions out."""

    def __init__(
        self,
        log: SchedulerLog,
        *,
        factors: Optional[CapFactors] = None,
        objective: str = "slowdown",
        max_slowdown_pct: float = 5.0,
        campaign_energy_mwh: Optional[float] = None,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
        window_s: float = DEFAULT_WINDOW_S,
        lateness_s: float = 0.0,
        monitor=None,
        forensics=True,
        history=None,
        event_log=None,
    ) -> None:
        self.log = log
        self.factors = (
            factors if factors is not None else measured_factors("frequency")
        )
        self.policy = PolicyState(
            objective=objective,
            max_slowdown_pct=max_slowdown_pct,
            knob=self.factors.knob,
            campaign_energy_mwh=campaign_energy_mwh,
        )
        #: What ``/v1/jobs`` says about each job id.
        self.index = JobStateIndex(log)
        # The engine labels each sealed window once; the per-job fold
        # and incident attribution read those job ids off the window.
        self.engine = StreamEngine(
            log,
            interval_s=interval_s,
            window_s=window_s,
            lateness_s=lateness_s,
        )
        self.job_acc = JobAccumulator(log, interval_s=interval_s)
        self.engine.add_window_observer(self.job_acc.update)
        # The engine's hooks get partials over the cache and the buffer,
        # never bound methods of this plane: nothing the engine holds
        # points back here, so a dropped plane is freed on refcount.
        self.cache = SnapshotCache()
        self.engine.add_metric_source(
            partial(_serve_metric_values, self.cache, self.engine.buffer)
        )
        self.monitor = monitor
        if forensics is True:
            from ..obs.forensics import Forensics

            forensics = Forensics()
        self.forensics = forensics if forensics else None
        if self.forensics is not None:
            self.forensics.set_log(log)
        self.registry = monitor.registry if monitor is not None else MetricsRegistry()
        #: Guards metric writes vs /metrics renders (the registry's own
        #: lock only covers family creation, not series iteration).
        self.metrics_lock = threading.Lock()
        self.history = history if history else None
        if self.history is not None:
            self.history.set_registry(
                self.registry, lock=self.metrics_lock
            )
        # Serving-side events (decide_cap, publish, policy, shutdown)
        # are emitted by the methods below.
        self.event_log = event_log if event_log else None
        # The window sinks ride the engine *after* the per-job fold, so
        # each window's record stamps the decision that was in force
        # while its samples were charged (window observers run before
        # refresh() republishes).
        self.engine.decision_feed = partial(_published_decision, self.cache)
        self.engine.attach(
            health=monitor,
            forensics=self.forensics,
            history=self.history,
            event_log=self.event_log,
        )
        self._req_seq = 0
        #: Serializes folds (with their window observers) and publishes;
        #: reentrant because ingest and drain republish while holding it.
        self._refresh_lock = threading.RLock()
        self._policy_lock = threading.Lock()
        self.stop_event = threading.Event()
        self._server: Optional[ControlPlaneServer] = None

    # -- ingest -------------------------------------------------------------------

    def ingest(self, chunk: TelemetryChunk) -> int:
        """Absorb one arrival chunk; republish if windows sealed.

        The fold, its window observers and the republish hold the
        refresh lock, so a :meth:`set_policy` from the HTTP thread never
        snapshots the engine mid-fold or renders a flight-recorder ring
        an observer is appending to.
        """
        with self._refresh_lock:
            folded = self.engine.ingest(chunk)
            if folded:
                self.refresh()
        return folded

    def drain(self) -> int:
        """Seal and fold everything buffered, then republish."""
        with self._refresh_lock:
            folded = self.engine.drain()
            self.refresh()
        return folded

    def run(
        self,
        source: Iterable[TelemetryChunk],
        *,
        max_chunks: Optional[int] = None,
        drain: bool = True,
        chunk_delay_s: float = 0.0,
    ) -> "ControlPlane":
        """Consume a source until it ends, the cap, or a stop request.

        ``chunk_delay_s`` paces arrivals (a live-fleet simulation knob);
        the wait doubles as the stop-request poll, so shutdown stays
        prompt even mid-source.
        """
        for i, chunk in enumerate(source):
            if self.stop_event.is_set():
                return self
            if max_chunks is not None and i >= max_chunks:
                break
            self.ingest(chunk)
            if chunk_delay_s > 0 and self.stop_event.wait(chunk_delay_s):
                return self
        if drain:
            self.drain()
        return self

    # -- publication --------------------------------------------------------------

    def refresh(self) -> ServeView:
        """Publish a fresh immutable view of the current sealed state."""
        with self._refresh_lock:
            with _obs.span("serve.refresh"):
                with self._policy_lock:
                    policy = self.policy.to_dict()
                    policy_version = self.policy.version
                # Tables V/VI and the fleet advice wait for a reader
                # (ServeView.snap); the cap decision needs only the cube.
                frame = self.engine.frame()
                stats = self.engine.stats
                decision = decide_cap(
                    frame.cube.region_energy_j(),
                    self.factors,
                    objective=policy["objective"],
                    max_slowdown_pct=policy["max_slowdown_pct"],
                )
                incidents = None
                if self.forensics is not None:
                    with _obs.span("forensics.serve_doc"):
                        incidents = self.forensics.reader_view()
                history_view = (
                    self.history.reader_view()
                    if self.history is not None
                    else None
                )
                logs_view = (
                    self.event_log.reader_view()
                    if self.event_log is not None
                    else None
                )
                view = self.cache.publish(
                    lambda version: ServeView(
                        version=version,
                        policy=policy,
                        frame=frame,
                        stats=stats,
                        jobs=self.job_acc.snapshot(),
                        index=self.index,
                        factors=self.factors,
                        decision=decision,
                        policy_version=policy_version,
                        incidents=incidents,
                        history=history_view,
                        logs=logs_view,
                    )
                )
                if self.event_log is not None:
                    frontier = _frontier_s(stats)
                    t_s = frontier if frontier is not None else 0.0
                    self.event_log.emit(
                        "info", "serve.decide_cap",
                        (f"cap {decision.cap:g} W" if decision.capped
                         else "uncapped"),
                        t_s=t_s, cap_version=view.version,
                        objective=policy["objective"],
                        cap_w=(float(decision.cap)
                               if decision.capped else None),
                        savings_pct=float(decision.savings_pct),
                    )
                    self.event_log.emit(
                        "info", "serve.publish",
                        f"published view v{view.version}",
                        t_s=t_s, cap_version=view.version,
                        policy_version=policy_version,
                        windows=int(stats.windows_folded),
                    )
            with self.metrics_lock:
                self.engine.export_metrics(self.registry)
            return view

    def set_policy(
        self,
        *,
        objective: Optional[str] = None,
        max_slowdown_pct: Optional[float] = None,
    ) -> ServeView:
        """Change the serving objective and/or budget; republish now."""
        with self._policy_lock:
            if objective is not None:
                get_objective(str(objective))
                self.policy.objective = str(objective)
            if max_slowdown_pct is not None:
                try:
                    budget = float(max_slowdown_pct)
                except (TypeError, ValueError):
                    raise ServeError(
                        f"bad slowdown budget {max_slowdown_pct!r}"
                    ) from None
                if budget < 0:
                    raise ServeError("slowdown budget must be >= 0")
                self.policy.max_slowdown_pct = budget
            self.policy.version += 1
            if self.event_log is not None:
                self.event_log.emit(
                    "info", "serve.policy",
                    f"policy v{self.policy.version}: "
                    f"{self.policy.objective} within "
                    f"{self.policy.max_slowdown_pct:g}% slowdown",
                    policy_version=self.policy.version,
                    objective=self.policy.objective,
                    max_slowdown_pct=self.policy.max_slowdown_pct,
                )
        return self.refresh()

    # -- serving ------------------------------------------------------------------

    def serve(
        self, *, host: str = "127.0.0.1", port: int = 0
    ) -> ControlPlaneServer:
        """Start the HTTP API (publishing an initial view if needed)."""
        if self.cache.view is None:
            self.refresh()
        if self._server is None:
            self._server = ControlPlaneServer(
                self, host=host, port=port
            ).start()
        return self._server

    def request_stop(self) -> None:
        """Ask the serve/ingest loops to wind down (graceful shutdown)."""
        if self.event_log is not None and not self.stop_event.is_set():
            self.event_log.emit(
                "info", "serve.shutdown", "graceful stop requested"
            )
        self.stop_event.set()

    def wait_until_stopped(self, *, poll_s: float = 0.1) -> None:
        """Block until a stop is requested (the post-drain serve loop)."""
        while not self.stop_event.wait(poll_s):
            pass

    def close(self) -> None:
        """Stop the HTTP server (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()

    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- metrics ------------------------------------------------------------------

    def serve_metric_values(self) -> Dict[str, float]:
        """Serving gauges merged into the engine's metric stream."""
        return _serve_metric_values(self.cache, self.engine.buffer)

    def observe_request(
        self, endpoint: str, status: int, elapsed_s: float, view
    ) -> None:
        """Meter one HTTP request into the shared registry.

        With an event log attached, the latency observation carries an
        OpenMetrics exemplar — the trace id of the request (the active
        obs trace when tracing is on, else a per-plane request
        sequence) — so the slowest request in each histogram bucket
        stays findable from a ``to_prometheus(exemplars=True)`` render.
        A rate-limited ``serve.request`` debug record rides along.
        """
        exemplar = None
        if self.event_log is not None:
            st = _obs._STATE
            with self.metrics_lock:
                self._req_seq += 1
                trace_id = (
                    st.tracer.trace_id if st is not None
                    else f"req-{self._req_seq:x}"
                )
            exemplar = {"trace_id": trace_id}
            frontier = (
                _frontier_s(view.stats) if view is not None else None
            )
            self.event_log.emit(
                "debug", "serve.request", f"{endpoint} {status}",
                t_s=frontier if frontier is not None else 0.0,
                trace_id=trace_id,
                endpoint=endpoint, status=int(status),
                elapsed_s=float(elapsed_s),
            )
        with self.metrics_lock:
            self.registry.counter(
                "serve_requests_total",
                "control-plane HTTP requests served",
                endpoint=endpoint, status=str(status),
            ).inc()
            self.registry.histogram(
                "serve_request_seconds",
                "control-plane request latency",
                buckets=SERVE_LATENCY_BUCKETS,
                endpoint=endpoint,
            ).observe(elapsed_s, exemplar=exemplar)
            if view is not None:
                self.registry.gauge(
                    "serve_cache_age_s",
                    "wall-clock age of the served snapshot",
                ).set(max(0.0, time.time() - view.published_wall_s))
