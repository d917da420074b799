"""The health monitor: registry snapshots in, alert state out.

:class:`HealthMonitor` owns one :class:`~repro.obs.metrics.MetricsRegistry`,
an :class:`~repro.obs.health.rules.AlertEngine` and a
:class:`~repro.obs.health.drift.DriftDetector`, and advances all of them
from a single deterministic input: a flat metric snapshot plus an
event-time stamp.  Everything downstream — the ``/health`` and
``/alerts`` endpoints, the ``--watch`` dashboard, the ``ext_stream``
alert timeline — reads the monitor; nothing writes back into the
pipeline, which is what keeps health evaluation bitwise-invisible to
experiment outputs.

The streaming hook (:meth:`observe_engine`) is driven by the engine's
*watermark*, not the wall clock, so a replayed campaign produces the
identical alert timeline every run.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional

from .. import runtime as _obs
from ..metrics import MetricsRegistry
from .drift import DriftDetector, DriftReference
from .rules import AlertEngine, RuleSpec, default_rules


class HealthMonitor:
    """Rules + drift detection over periodic metric snapshots."""

    def __init__(
        self,
        rules: Optional[List[RuleSpec]] = None,
        *,
        reference: Optional[DriftReference] = None,
        drift: bool = True,
    ) -> None:
        self.registry = MetricsRegistry()
        self.alerts = AlertEngine(
            rules if rules is not None else default_rules()
        )
        self.drift: Optional[DriftDetector] = (
            DriftDetector(reference) if drift else None
        )
        self.events: List[dict] = []

    # -- evaluation ---------------------------------------------------------------

    def observe(self, values: Mapping[str, float],
                now_s: float) -> List[dict]:
        """One evaluation round: gauges, rules, exports.

        ``values`` is a flat unlabelled name → value snapshot (the shape
        of :meth:`MetricsRegistry.counter_values`); ``now_s`` is event
        time and must be non-decreasing across calls.  Returns the alert
        transitions this round produced.
        """
        for name, value in values.items():
            if math.isfinite(value):
                self.registry.gauge(name).set(float(value))
        events = self.alerts.evaluate(values, now_s)
        self.events.extend(events)
        self.alerts.export(self.registry)
        # Mirror health state into the global obs registry too, so run
        # manifests written with --obs carry the alert outcome.
        st = _obs.state()
        if st is not None and st.registry is not self.registry:
            self.alerts.export(st.registry)
        return events

    def observe_engine(self, engine) -> List[dict]:
        """Evaluate against a live :class:`~repro.stream.engine.StreamEngine`.

        Reads the engine's ingest counters and (when windows have been
        folded) the live Table IV decomposition of the engine's
        :meth:`~repro.stream.engine.StreamEngine.frame`, which a snapshot
        after the same ingest reuses; never mutates engine state.  The
        per-sink seconds go into :attr:`registry` as they do into any
        registry the engine exports to.
        """
        stats = engine.stats
        values = dict(engine.metric_values())
        engine.export_sink_seconds(self.registry)
        if self.drift is not None and stats.windows_folded > 0:
            table4 = engine.frame().table4
            if table4 is not None:
                report = self.drift.check(table4)
                values.update(report.gauges())
                self.drift.export(self.registry, report)
                st = _obs.state()
                if st is not None and st.registry is not self.registry:
                    self.drift.export(st.registry, report)
        now_s = _event_time(stats)
        return self.observe(values, now_s)

    # -- views --------------------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return self.alerts.healthy

    def to_health_dict(self) -> dict:
        doc = self.alerts.to_health_dict()
        if self.drift is not None:
            doc["drift"] = {
                "reference": self.drift.reference.to_dict(),
                "report": (
                    self.drift.last_report.to_dict()
                    if self.drift.last_report is not None
                    else None
                ),
            }
        return doc

    def to_alerts_dict(self) -> dict:
        return self.alerts.to_alerts_dict()


def _event_time(stats) -> float:
    """The deterministic evaluation clock for one engine snapshot.

    Prefers the watermark (the engine's own notion of settled event
    time); before any sample arrives both sentinels are non-finite and
    the clock pins to 0.
    """
    for candidate in (stats.watermark_s, stats.max_event_time_s):
        if math.isfinite(candidate):
            return float(candidate)
    return 0.0
