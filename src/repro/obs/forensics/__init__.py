"""Fleet flight recorder, anomaly detection, and incident forensics.

The forensic layer of the observability stack (metrics → traces →
profiles → health → **forensics**): it remembers what the fleet did
per sealed window, notices when a window misbehaves, and packages the
evidence.  :class:`Forensics` is the facade that ties the pieces to a
:class:`~repro.stream.engine.StreamEngine` via
``engine.attach(forensics=forensics)``, the first of the engine's
window sinks (forensics, history, log), which all share the one
:class:`~.recorder.WindowRecord` the engine builds per sealed window:

* :class:`~.recorder.FlightRecorder` — bounded ring of per-window
  :class:`~.recorder.WindowRecord` entries (fleet/per-node energy, cap
  decision in force, ingest + alert deltas);
* :mod:`~.detectors` — window-level anomaly detectors (stragglers, cap
  violations, mode-mix shifts, energy regressions, publication stalls);
* :class:`~.incidents.IncidentEngine` — merges firings into event-time
  incidents with top-k node/job/mode attribution;
* :mod:`~.bundle` — self-contained JSON forensic bundles + timeline.

Everything is a pure read of the window stream: attaching a recorder
changes no analytic output bit (asserted in ``tests/obs/``), and the
whole layer is deterministic — same campaign, same findings, same
incident ids, whatever the delivery order or chunking.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ... import constants
from .bundle import (
    build_bundle,
    forensics_doc,
    load_forensics,
    render_doc,
    write_forensics_artifacts,
)
from .detectors import (
    CapViolationDetector,
    Detector,
    EnergyRegressionDetector,
    Finding,
    ModeMixDetector,
    PublicationStallDetector,
    StragglerDetector,
    default_detectors,
)
from .incidents import Incident, IncidentEngine, render_timeline
from .recorder import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    WindowRecord,
    make_record,
)

__all__ = [
    "CapViolationDetector",
    "DEFAULT_CAPACITY",
    "Detector",
    "EnergyRegressionDetector",
    "Finding",
    "FlightRecorder",
    "Forensics",
    "Incident",
    "IncidentEngine",
    "ModeMixDetector",
    "PublicationStallDetector",
    "StragglerDetector",
    "WindowRecord",
    "build_bundle",
    "default_detectors",
    "forensics_doc",
    "load_forensics",
    "make_record",
    "render_doc",
    "render_timeline",
    "write_forensics_artifacts",
]

class Forensics:
    """Recorder + detectors + incident engine behind one observer.

    Attach to an engine with ``engine.attach(forensics=forensics)``;
    every sealed window then flows through :meth:`observe_window` in
    canonical fold order, with the engine's record of it (ingest and
    alert deltas, the decision in force).
    """

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        detectors: Optional[List[Detector]] = None,
        reference=None,
        tagger=None,
        merge_gap: int = 2,
        top_k: int = 5,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        self.recorder = FlightRecorder(capacity=capacity)
        self.detectors: List[Detector] = (
            detectors if detectors is not None
            else default_detectors(reference=reference)
        )
        self.incidents = IncidentEngine(
            merge_gap=merge_gap, top_k=top_k,
            tagger=tagger, interval_s=interval_s,
        )
        self.interval_s = float(interval_s)
        self.event_log = None

    # -- wiring -------------------------------------------------------------------

    def bind_engine(self, engine) -> "Forensics":
        """Adopt the engine's stream geometry (called by its attach)."""
        self.interval_s = float(engine.buffer.interval_s)
        self.incidents.interval_s = self.interval_s
        for detector in self.detectors:
            detector.bind(window_s=float(engine.buffer.window_s))
        return self

    def set_tagger(self, tagger) -> "Forensics":
        self.incidents.tagger = tagger
        return self

    def set_event_log(self, event_log) -> "Forensics":
        """Wire a structured event log (:mod:`repro.obs.log`).

        Detector findings and incident open/resolve transitions then
        emit window-correlated records.  All three streams occur once
        per window in fold order, so their event ids — and the log
        slice a forensic bundle embeds — are invariant under rerun and
        re-chunking (asserted by ``ext_incidents``).
        """
        self.event_log = event_log
        self.incidents.on_event = self._incident_event
        return self

    def _incident_event(self, transition, incident) -> None:
        if transition == "open":
            severity = (
                "error" if incident.severity in ("critical", "page")
                else "warning"
            )
            self.event_log.emit(
                severity, "incident.open",
                incident.peak_summary or incident.detector,
                t_s=incident.t_start_s,
                window=incident.first_window,
                incident=incident.id,
                detector=incident.detector,
            )
        else:
            self.event_log.emit(
                "info", "incident.resolve",
                f"{incident.detector} quiet since window "
                f"{incident.last_window}",
                t_s=incident.t_end_s,
                window=incident.last_window,
                incident=incident.id,
                detector=incident.detector,
            )

    # -- the window observer ------------------------------------------------------

    def observe_window(self, window, record=None) -> None:
        """Record one sealed window, run detectors, fold incidents.

        ``record`` is the engine's record of the window; without one
        (offline replay) it is built here with zero deltas and no
        decision.
        """
        if record is None:
            record = make_record(
                window,
                index=self.recorder.windows_seen,
                interval_s=self.interval_s,
            )
        self.recorder.append(record)
        findings: List[Finding] = []
        for detector in self.detectors:
            findings.extend(detector.observe(record, window))
        if self.event_log is not None:
            for f in findings:
                self.event_log.emit(
                    "warning", "forensics.finding", f.summary,
                    t_s=f.t_end_s, window=record.index,
                    node=(f.nodes[0] if f.nodes else None),
                    detector=f.detector, value=f.value,
                    threshold=f.threshold,
                )
        self.incidents.observe(record, findings, window=window)

    def finalize(self) -> "Forensics":
        """End of stream: resolve incidents that had gone quiet.

        Incidents still firing at the final window stay open (see
        :meth:`IncidentEngine.finalize`).
        """
        self.incidents.finalize(
            last_index=self.recorder.windows_seen - 1
        )
        return self

    # -- views --------------------------------------------------------------------

    def metric_values(self) -> Dict[str, float]:
        values = self.recorder.metric_values()
        values.update({
            "forensics_findings_total": float(
                self.incidents.findings_total
            ),
            "forensics_incidents_total": float(
                len(self.incidents.incidents)
            ),
            "forensics_incidents_open": float(self.incidents.open_count),
        })
        return values

    def summary(self) -> dict:
        return {
            "windows_recorded": self.recorder.windows_seen,
            "records_resident": len(self.recorder),
            "records_evicted": self.recorder.evicted,
            "findings_total": self.incidents.findings_total,
            "incidents_total": len(self.incidents.incidents),
            "incidents_open": self.incidents.open_count,
            "detectors": [d.name for d in self.detectors],
            "capacity": self.recorder.capacity,
        }

    def snapshot(self) -> dict:
        """Incidents + summary, JSON-ready (the ``/v1/incidents`` body)."""
        doc = self.incidents.snapshot()
        doc["summary"] = self.summary()
        return doc

    def serve_doc(self, *, pad: int = 1) -> dict:
        """The snapshot plus per-incident recorder slices.

        The shape the control plane freezes into a published
        :class:`~repro.serve.cache.ServeView`: the incident list for
        ``/v1/incidents`` and, per incident, the window records spanning
        its range (padded ``pad`` windows each side) so
        ``/v1/incidents/<id>`` serves a self-contained forensic slice.

        Built incrementally: resolved incidents and resident records are
        each rendered once and reused by every later publish, and each
        slice is cut from the ring by index arithmetic, so publishing
        does not slow down as the stream runs.
        """
        doc = self.snapshot()
        doc["records_by_id"] = {
            incident.id: self.recorder.record_docs(
                incident.first_window - pad, incident.last_window + pad,
            )
            for incident in self.incidents.incidents
        }
        return doc

    def timeline(self) -> str:
        return render_timeline(self.incidents.incidents)
