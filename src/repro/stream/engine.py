"""The streaming engine: live campaign analytics at bounded memory.

``StreamEngine`` ties the subsystem together: arrival chunks from any
source flow through the event-time :class:`~repro.stream.buffer.ReorderBuffer`,
and every sealed canonical window is folded into a
:class:`~repro.core.join.CampaignAccumulator` — the same vectorized fold
the batch pipeline uses, which is what makes the drained stream
bitwise-identical to :func:`repro.core.join_campaign` over the
canonical windows (see ``docs/streaming.md`` for the exact contract).

At any point, :meth:`StreamEngine.snapshot` reads out the live Table IV
modal decomposition, the Table V/VI savings projections, a fleet-wide
cap recommendation, and the ingest statistics — all from O(bins) state,
without touching the samples again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import constants, units
from ..core import report
from ..core.characterization import CapFactors, measured_factors
from ..core.heatmap import table6_selection
from ..core.join import CampaignAccumulator, CampaignCube
from ..core.modes import ModeTable, decompose_modes
from ..core.projection import ProjectionTable, project_savings
from ..errors import ObservabilityError, ProjectionError
from ..obs import runtime as _obs
from ..obs.forensics.recorder import make_record
from ..policy.live import FleetRecommendation, recommend_fleet_cap
from ..scheduler.log import SchedulerLog
from ..telemetry.schema import TelemetryChunk
from .buffer import DEFAULT_WINDOW_S, ReorderBuffer


def render_block(title: str, rows: Sequence[Tuple[str, str]]) -> str:
    """Aligned ``title:`` + indented label/value lines.

    The one formatting helper behind :meth:`IngestStats.render` and
    :meth:`StreamSnapshot.render` (and the ``--watch`` dashboard):
    labels left-justified to the widest label, values right-justified to
    the widest value, two-space indent.
    """
    label_w = max(len(label) for label, _ in rows)
    value_w = max(len(value) for _, value in rows)
    lines = [title]
    lines.extend(
        f"  {label:<{label_w}} {value:>{value_w + 3}}"
        for label, value in rows
    )
    return "\n".join(lines)


def _titled(title: str, body: str) -> str:
    """A section: its heading line directly above its body."""
    return f"{title}\n{body}"


@dataclass(frozen=True)
class IngestStats:
    """Operational counters of one engine (point-in-time)."""

    chunks_in: int
    samples_in: int
    duplicates: int
    late_dropped: int
    windows_folded: int
    samples_folded: int
    resident_samples: int
    peak_resident_samples: int
    max_event_time_s: float
    watermark_s: float
    sealed_until_s: float
    watermark_lag_s: float

    def render(self) -> str:
        lag = self.watermark_lag_s
        return render_block("ingest stats:", [
            ("chunks in", str(self.chunks_in)),
            ("samples in", str(self.samples_in)),
            ("duplicates dropped", str(self.duplicates)),
            ("late dropped", str(self.late_dropped)),
            ("windows folded", str(self.windows_folded)),
            ("samples folded", str(self.samples_folded)),
            ("resident samples", str(self.resident_samples)),
            ("peak resident", str(self.peak_resident_samples)),
            (
                "watermark lag",
                f"{lag:.0f} s ({units.fmt_duration(lag)})",
            ),
        ])


@dataclass(frozen=True)
class StreamSnapshot:
    """Live analytics as of the current watermark."""

    stats: IngestStats
    cube: CampaignCube
    table4: Optional[ModeTable]
    table5: Optional[ProjectionTable]
    table6: Optional[ProjectionTable]
    table6_domains: List[str]
    recommendation: Optional[FleetRecommendation]

    def render(self) -> str:
        """Plain-text report of the live Tables IV/V/VI + ingest state."""
        parts = []
        if self.table4 is not None:
            parts.append(_titled(
                "live Table IV (modal decomposition):",
                report.render_table4(self.table4),
            ))
        if self.table5 is not None:
            parts.append("")
            parts.append(_titled(
                "live Table V (savings projection):",
                report.render_table5(self.table5),
            ))
        if self.table6 is not None:
            parts.append("")
            parts.append(_titled(
                "live Table VI (selected domains "
                f"{', '.join(self.table6_domains)}; classes A-C):",
                report.render_table5(self.table6),
            ))
        if self.recommendation is not None:
            rec = self.recommendation
            if rec.capped:
                parts.append(
                    f"\nfleet advice: cap at {rec.cap:.0f} "
                    f"({rec.knob}) -> {rec.expected_saving_mwh:.0f} MWh "
                    f"({rec.savings_pct:.2f} %) at "
                    f"{rec.runtime_increase_pct:.2f} % runtime increase"
                )
            else:
                parts.append(
                    "\nfleet advice: leave uncapped (no projected "
                    "savings within the slowdown budget)"
                )
        if not parts:
            parts.append("no sealed windows yet — nothing to report")
        parts.append("")
        parts.append(self.stats.render())
        return "\n".join(parts)


class StreamEngine:
    """Incremental telemetry ingestion with live, queryable analytics."""

    def __init__(
        self,
        log: SchedulerLog,
        *,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
        window_s: float = DEFAULT_WINDOW_S,
        lateness_s: float = 0.0,
        aggregate: bool = False,
    ) -> None:
        self.log = log
        self.buffer = ReorderBuffer(
            interval_s=interval_s,
            window_s=window_s,
            lateness_s=lateness_s,
            aggregate=aggregate,
        )
        self.accumulator = CampaignAccumulator(log, interval_s=interval_s)
        self.chunks_in = 0
        #: Optional :class:`repro.obs.health.HealthMonitor`, evaluated
        #: after every ingest call that folded windows (and at drain).
        self.health = None
        #: Optional ``() -> (cap, objective, published_version,
        #: frontier_s)``: the decision in force, stamped on every
        #: window record (a control plane sets it).
        self.decision_feed = None
        self._window_observers: List = []
        self._metric_sources: List = []
        #: Window sinks attached via :meth:`attach`, in fold order.
        self._sinks: List = []
        self._sink_windows = 0
        self._sink_counters = (0, 0, 0, 0)

    def add_window_observer(self, fn) -> "StreamEngine":
        """Call ``fn(window)`` for every sealed window, in fold order.

        Observers run directly after the accumulator folds the window —
        during :meth:`ingest` and :meth:`drain` alike — so a side
        consumer (the control plane's per-job accumulator, the
        closed-loop cap applier) sees exactly the canonical window
        sequence the cube is built from, in the same deterministic
        order.  Observers must not mutate the window.
        """
        self._window_observers.append(fn)
        return self

    def add_metric_source(self, fn) -> "StreamEngine":
        """Merge ``fn() -> {name: value}`` into :meth:`metric_values`.

        Extra gauges ride the same export path as the built-in
        ``stream_*`` mirrors: into the metrics registry, the health
        monitor's rule evaluation, and checkpoint-free snapshots.
        Non-finite values are dropped like the built-ins.
        """
        self._metric_sources.append(fn)
        return self

    def attach(
        self, *, health=None, forensics=None, history=None, event_log=None
    ) -> "StreamEngine":
        """Attach a health monitor and the window sinks.

        The sinks — a flight recorder (:mod:`repro.obs.forensics`), a
        long-horizon history (:mod:`repro.obs.history`) and a structured
        event log (:mod:`repro.obs.log`) — see every sealed window in
        that fixed order, as ``sink.observe_window(window, record)``
        with one shared :class:`~repro.obs.forensics.WindowRecord`
        built once per window: its index counts windows since attach,
        its ingest deltas are taken against the buffer counters at
        attach time, its alert counts read :attr:`health`, and its
        decision comes from :attr:`decision_feed`.  The sinks ride one
        window observer queued behind any added before, their gauges
        ride the metric-source hook, and :meth:`drain` finalizes them in
        the same order.  The event log also hears the monitor's alert
        transitions and the recorder's findings and incidents.

        Every attachment only *reads* windows and engine state, so it
        leaves every analytic output bitwise unchanged (asserted in
        ``tests/obs/``).  Sinks attach once per engine.
        """
        if health is not None:
            self.health = health
        sinks = [s for s in (forensics, history, event_log) if s is not None]
        if not sinks:
            return self
        if self._sinks:
            raise ObservabilityError("window sinks are already attached")
        for sink in (forensics, history):
            if sink is not None:
                sink.bind_engine(self)
        if event_log is not None:
            if self.health is not None:
                self.health.alerts.add_listener(event_log.alert_transition)
            if forensics is not None:
                forensics.set_event_log(event_log)
        self._sinks = sinks
        self._sink_counters = self._counters()
        self.add_window_observer(self._observe_sinks)
        for sink in sinks:
            self.add_metric_source(sink.metric_values)
        return self

    def _counters(self) -> Tuple[int, int, int, int]:
        """Cumulative (samples in, late, duplicates, alert transitions)."""
        buf = self.buffer
        transitions = (
            0 if self.health is None else self.health.alerts.transitions
        )
        return (buf.samples_in, buf.late_dropped, buf.duplicates,
                transitions)

    def _observe_sinks(self, window) -> None:
        """Build the window's record once; hand it to every live sink.

        A disabled event log reads nothing, so a window whose only sink
        is one builds no record: attaching it stays near free (the
        disabled-path budget ``benchmarks/bench_logs.py`` gates).
        """
        counters = self._counters()
        samples_in, late, dup, transitions = (
            now - prev for now, prev in zip(counters, self._sink_counters)
        )
        self._sink_counters = counters
        index = self._sink_windows
        self._sink_windows += 1
        sinks = [s for s in self._sinks if getattr(s, "enabled", True)]
        if not sinks:
            return
        firing = 0
        if self.health is not None:
            firing = sum(
                1 for row in self.health.alerts.rule_states()
                if row["state"] == "firing"
            )
        cap = objective = version = frontier = None
        if self.decision_feed is not None:
            cap, objective, version, frontier = self.decision_feed()
        record = make_record(
            window,
            index=index,
            interval_s=self.buffer.interval_s,
            cap=cap,
            objective=objective,
            published_version=version,
            published_frontier_s=frontier,
            samples_in_delta=samples_in,
            late_dropped_delta=late,
            duplicates_delta=dup,
            alerts_firing=firing,
            alert_transitions_delta=transitions,
        )
        for sink in sinks:
            sink.observe_window(window, record)

    # -- ingestion ----------------------------------------------------------------

    def ingest(self, chunk: TelemetryChunk) -> int:
        """Absorb one arrival chunk; fold any windows it sealed.

        Returns the number of windows folded by this call.  With
        observability on, the call is traced (``stream.ingest``, one
        ``stream.fold_window`` child per sealed window — the unit the
        perf budgets meter) and the live ingest counters are mirrored
        into the metrics registry.
        """
        with _obs.span("stream.ingest"):
            self.chunks_in += 1
            windows = self.buffer.push(chunk)
            for window in windows:
                with _obs.span("stream.fold_window"):
                    self.accumulator.update(window)
                for observer in self._window_observers:
                    observer(window)
        st = _obs.state()
        if st is not None:
            self.export_metrics(st.registry)
        if self.health is not None and windows:
            self.health.observe_engine(self)
        return len(windows)

    def drain(self) -> int:
        """Seal and fold everything still buffered (end of stream)."""
        with _obs.span("stream.drain"):
            windows = self.buffer.flush()
            for window in windows:
                with _obs.span("stream.fold_window"):
                    self.accumulator.update(window)
                for observer in self._window_observers:
                    observer(window)
        for sink in self._sinks:
            sink.finalize()
        st = _obs.state()
        if st is not None:
            self.export_metrics(st.registry)
        if self.health is not None:
            self.health.observe_engine(self)
        return len(windows)

    def run(
        self,
        source: Iterable[TelemetryChunk],
        *,
        max_chunks: Optional[int] = None,
        drain: bool = True,
    ) -> "StreamEngine":
        """Consume a source to completion (or for ``max_chunks``)."""
        for i, chunk in enumerate(source):
            if max_chunks is not None and i >= max_chunks:
                break
            self.ingest(chunk)
        if drain:
            self.drain()
        return self

    # -- queries ------------------------------------------------------------------

    @property
    def stats(self) -> IngestStats:
        buf = self.buffer
        return IngestStats(
            chunks_in=self.chunks_in,
            samples_in=buf.samples_in,
            duplicates=buf.duplicates,
            late_dropped=buf.late_dropped,
            windows_folded=buf.windows_emitted,
            samples_folded=buf.samples_out,
            resident_samples=buf.resident_samples,
            peak_resident_samples=buf.peak_resident,
            max_event_time_s=buf.max_event_time_s,
            watermark_s=buf.watermark_s,
            sealed_until_s=buf.sealed_until_s,
            watermark_lag_s=buf.watermark_lag_s,
        )

    def cube(self, *, copy: bool = True) -> CampaignCube:
        """The campaign cube of all sealed windows so far."""
        return self.accumulator.cube(copy=copy)

    def metric_values(self) -> Dict[str, float]:
        """Finite ``stream_*`` gauge values of the current ingest state.

        The shared source for :meth:`export_metrics` and the health
        layer's rule evaluation: cumulative totals plus the point-in-
        time lag/residency gauges, with non-finite sentinels (the
        pre-first-sample watermark, the post-drain sealed frontier)
        dropped so exports stay strict-JSON clean.
        """
        stats = self.stats
        values = {
            "stream_chunks_in": stats.chunks_in,
            "stream_samples_in": stats.samples_in,
            "stream_duplicates_dropped": stats.duplicates,
            "stream_late_dropped": stats.late_dropped,
            "stream_windows_folded": stats.windows_folded,
            "stream_samples_folded": stats.samples_folded,
            "stream_resident_samples": stats.resident_samples,
            "stream_peak_resident_samples": stats.peak_resident_samples,
            "stream_watermark_lag_seconds": stats.watermark_lag_s,
            "stream_watermark_seconds": stats.watermark_s,
            "stream_sealed_until_seconds": stats.sealed_until_s,
            "stream_max_event_time_seconds": stats.max_event_time_s,
        }
        for source in self._metric_sources:
            values.update(source())
        return {
            name: float(value)
            for name, value in values.items()
            if np.isfinite(value)
        }

    def export_metrics(self, registry) -> None:
        """Mirror the ingest counters into a metrics registry.

        Counters are monotone mirrors of the buffer's cumulative totals
        (exported as gauges so re-export stays idempotent); the lag and
        residency gauges are point-in-time.
        """
        for name, value in self.metric_values().items():
            registry.gauge(name).set(value)

    def snapshot(
        self,
        *,
        factors: Optional[CapFactors] = None,
        campaign_energy_mwh: Optional[float] = None,
        max_slowdown_pct: float = 5.0,
    ) -> StreamSnapshot:
        """Live Tables IV/V/VI + fleet advice + ingest statistics.

        Derived entirely from the fold's O(bins) state; safe to call at
        any cadence.  Tables are ``None`` until the first window seals.
        """
        with _obs.span("stream.snapshot"):
            return self._snapshot(
                factors=factors,
                campaign_energy_mwh=campaign_energy_mwh,
                max_slowdown_pct=max_slowdown_pct,
            )

    def _snapshot(
        self,
        *,
        factors: Optional[CapFactors],
        campaign_energy_mwh: Optional[float],
        max_slowdown_pct: float,
    ) -> StreamSnapshot:
        return compute_snapshot(
            self.cube(copy=True),
            self.stats,
            factors=factors,
            campaign_energy_mwh=campaign_energy_mwh,
            max_slowdown_pct=max_slowdown_pct,
        )


def compute_snapshot(
    cube: CampaignCube,
    stats: IngestStats,
    *,
    factors: Optional[CapFactors] = None,
    campaign_energy_mwh: Optional[float] = None,
    max_slowdown_pct: float = 5.0,
) -> StreamSnapshot:
    """Derive a :class:`StreamSnapshot` from a cube + ingest stats.

    The shared analytics tail of :meth:`StreamEngine.snapshot` and the
    sharded campaign driver (:mod:`repro.stream.shard`): live Table
    IV/V/VI plus fleet cap advice, all from O(bins) cube state.
    """
    if cube.total_gpu_hours == 0 or cube.total_energy_j <= 0:
        return StreamSnapshot(
            stats=stats, cube=cube, table4=None, table5=None,
            table6=None, table6_domains=[], recommendation=None,
        )
    factors = (
        factors if factors is not None else measured_factors("frequency")
    )
    table4 = decompose_modes(cube)
    table5 = project_savings(
        cube, factors, campaign_energy_mwh=campaign_energy_mwh
    )
    table6 = None
    table6_domains: List[str] = []
    try:
        selected, table6_domains = table6_selection(cube, factors)
        table6 = project_savings(
            selected,
            factors,
            campaign_energy_mwh=campaign_energy_mwh,
            reference_cube=cube,
        )
    except ProjectionError:
        # A young stream may not show positive savings anywhere yet.
        table6_domains = []
    recommendation = recommend_fleet_cap(
        cube,
        factors,
        max_slowdown_pct=max_slowdown_pct,
        projection=table5,
    )
    return StreamSnapshot(
        stats=stats,
        cube=cube,
        table4=table4,
        table5=table5,
        table6=table6,
        table6_domains=table6_domains,
        recommendation=recommendation,
    )
