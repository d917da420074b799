"""The incident engine: detector firings merged into event-time incidents.

A detector fires per window; an operator thinks in *incidents* — one
contiguous event-time episode per root cause.  :class:`IncidentEngine`
folds the per-window :class:`~.detectors.Finding` stream into
:class:`Incident` objects:

* consecutive firings of the same detector merge while the gap between
  firing windows is at most ``merge_gap`` windows; a longer quiet
  stretch resolves the incident, and the next firing opens a new one;
* incident ids are sequential in fold order (``inc-001``, ``inc-002``,
  ...), so a replayed campaign reproduces the identical id sequence;
* every incident accumulates top-k attribution along three axes —
  nodes (energy of the implicated nodes), jobs (energy by job id via
  the scheduler join, when a scheduler log is set), and power modes
  (region energy) — plus a pointer into the flight recorder's window
  range (``first_window``/``last_window``) for bundle slicing.

Everything here is driven by fold order and event time; no wall clock,
no randomness.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ... import constants
from ...core.join import REGION_NAMES, DerivedWindow
from .detectors import Finding
from .recorder import WindowRecord

#: Default windows of quiet tolerated inside one incident.
DEFAULT_MERGE_GAP = 2

#: Kept verbatim per incident; later findings only update aggregates.
MAX_FINDINGS_KEPT = 64


class Incident:
    """One contiguous event-time episode of a single detector."""

    def __init__(self, *, id: str, detector: str, severity: str) -> None:
        self.id = id
        self.detector = detector
        self.severity = severity
        self.status = "open"
        self.first_window = -1
        self.last_window = -1
        self.t_start_s = float("inf")
        self.t_end_s = float("-inf")
        self.windows_firing = 0
        self.peak_value = float("-inf")
        self.threshold = 0.0
        self.peak_summary = ""
        self.findings: List[Finding] = []
        self._node_j: Dict[int, float] = {}
        self._job_j: Dict[int, float] = {}
        self._mode_j = np.zeros(4)

    # -- fold ---------------------------------------------------------------------

    def extend(self, record: WindowRecord,
               findings: Sequence[Finding]) -> None:
        if self.first_window < 0:
            self.first_window = record.index
            self.t_start_s = record.t_start_s
        self.last_window = record.index
        self.t_end_s = max(self.t_end_s, record.t_end_s)
        self.windows_firing += 1
        for f in findings:
            if len(self.findings) < MAX_FINDINGS_KEPT:
                self.findings.append(f)
            if abs(f.value) > abs(self.peak_value) or not self.peak_summary:
                self.peak_value = f.value
                self.threshold = f.threshold
                self.peak_summary = f.summary

    def attribute_nodes(self, nodes: Mapping[int, float]) -> None:
        for node, energy in nodes.items():
            self._node_j[int(node)] = (
                self._node_j.get(int(node), 0.0) + float(energy)
            )

    def attribute_jobs(self, jobs: Mapping[int, float]) -> None:
        for job, energy in jobs.items():
            self._job_j[int(job)] = (
                self._job_j.get(int(job), 0.0) + float(energy)
            )

    def attribute_modes(self, region_j: np.ndarray) -> None:
        self._mode_j += np.asarray(region_j, dtype=np.float64)

    def resolve(self) -> None:
        self.status = "resolved"

    def frozen(self) -> "Incident":
        """A copy later folds leave alone: the counters, the attribution
        dicts and the findings list as of now (findings are immutable)."""
        new = copy.copy(self)
        new.findings = list(self.findings)
        new._node_j = dict(self._node_j)
        new._job_j = dict(self._job_j)
        new._mode_j = self._mode_j.copy()
        return new

    # -- views --------------------------------------------------------------------

    @property
    def open(self) -> bool:
        return self.status == "open"

    def _top(self, table: Dict[int, float], k: int) -> List[dict]:
        order = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            {"id": key, "energy_j": energy} for key, energy in order[:k]
        ]

    def to_dict(self, *, top_k: int = 5) -> dict:
        total_mode = float(self._mode_j.sum())
        modes = [
            {
                "region": int(i) + 1,
                "name": REGION_NAMES[int(i)],
                "energy_j": float(self._mode_j[i]),
                "share_pct": (
                    100.0 * float(self._mode_j[i]) / total_mode
                    if total_mode > 0 else 0.0
                ),
            }
            for i in np.argsort(-self._mode_j, kind="stable")[:top_k]
        ]
        return {
            "id": self.id,
            "detector": self.detector,
            "severity": self.severity,
            "status": self.status,
            "first_window": self.first_window,
            "last_window": self.last_window,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "windows_firing": self.windows_firing,
            "peak_value": self.peak_value,
            "threshold": self.threshold,
            "summary": self.peak_summary,
            "top_nodes": self._top(self._node_j, top_k),
            "top_jobs": self._top(self._job_j, top_k),
            "top_modes": modes,
            "findings": [f.to_dict() for f in self.findings],
        }


class IncidentEngine:
    """Merge per-window findings into incidents, with attribution."""

    def __init__(
        self,
        *,
        merge_gap: int = DEFAULT_MERGE_GAP,
        top_k: int = 5,
        log=None,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        self.merge_gap = int(merge_gap)
        self.top_k = int(top_k)
        #: The scheduler log; job attribution is on when set.  It labels
        #: offline windows only: an engine's sealed window carries its
        #: own job ids.
        self.log = log
        self.interval_s = float(interval_s)
        self.incidents: List[Incident] = []
        self._open: Dict[str, Incident] = {}
        #: ``to_dict(top_k=self.top_k)`` of resolved incidents by id.
        #: Resolution is terminal (nothing extends a resolved incident),
        #: so each is rendered once however often it is snapshotted;
        #: every snapshot shares these dictionaries, read-only.
        self._resolved_docs: Dict[str, dict] = {}
        self.findings_total = 0
        #: Optional lifecycle callback ``fn(transition, incident)`` with
        #: ``transition`` in ``("open", "resolve")`` — called after the
        #: opening window is folded in (so ``first_window``/``t_start_s``
        #: are set) and on resolution.  Fold-order deterministic, which
        #: is what lets the structured event log stamp chunking-
        #: invariant ids on incident records.
        self.on_event = None

    # -- fold ---------------------------------------------------------------------

    def observe(self, record: WindowRecord,
                findings: Sequence[Finding], window=None) -> None:
        """Fold one window's findings; resolve incidents gone quiet."""
        by_detector: Dict[str, List[Finding]] = {}
        for f in findings:
            by_detector.setdefault(f.detector, []).append(f)
        self.findings_total += len(findings)

        for detector, fs in sorted(by_detector.items()):
            incident = self._open.get(detector)
            if (
                incident is not None
                and record.index - incident.last_window > self.merge_gap
            ):
                self._resolve(detector)
                incident = None
            opened = incident is None
            if opened:
                incident = Incident(
                    id=f"inc-{len(self.incidents) + 1:03d}",
                    detector=detector,
                    severity=fs[0].severity,
                )
                self.incidents.append(incident)
                self._open[detector] = incident
            incident.extend(record, fs)
            self._attribute(incident, record, fs, window)
            if opened and self.on_event is not None:
                self.on_event("open", incident)

        for detector in sorted(self._open):
            if detector in by_detector:
                continue
            if record.index - self._open[detector].last_window > self.merge_gap:
                self._resolve(detector)

    def finalize(self, *, last_index: Optional[int] = None) -> None:
        """End of stream: resolve incidents that had already gone quiet.

        An incident still firing within ``merge_gap`` windows of the
        final fold stays *open* — the fault was active when the stream
        ended, which is exactly what ``repro obs incidents --check``
        reports.  With no ``last_index`` everything resolves.
        """
        for detector in sorted(self._open):
            incident = self._open[detector]
            if (
                last_index is None
                or last_index - incident.last_window > self.merge_gap
            ):
                self._resolve(detector)

    def _resolve(self, detector: str) -> None:
        incident = self._open.pop(detector, None)
        if incident is not None:
            incident.resolve()
            if self.on_event is not None:
                self.on_event("resolve", incident)

    # -- attribution --------------------------------------------------------------

    def _attribute(self, incident: Incident, record: WindowRecord,
                   findings: Sequence[Finding], window) -> None:
        node_ids = record.node_ids
        # Node axis: implicated nodes' window energy; the whole fleet's
        # top sinks when the finding is fleet-wide (no node evidence).
        # The mask goes by position among the record's sorted node ids.
        implicated = np.array(
            sorted({node for f in findings for node in f.nodes}),
            dtype=np.int64,
        )
        if len(implicated):
            node_mask = np.zeros(len(node_ids), dtype=bool)
            if len(node_ids):
                pos = np.minimum(
                    np.searchsorted(node_ids, implicated), len(node_ids) - 1
                )
                node_mask[pos[node_ids[pos] == implicated]] = True
        else:
            node_mask = np.ones(len(node_ids), dtype=bool)
        idx = np.nonzero(node_mask)[0]
        order = idx[np.argsort(-record.node_energy_j[idx], kind="stable")]
        order = order[: self.top_k]
        incident.attribute_nodes({
            int(node_ids[i]): float(record.node_energy_j[i])
            for i in order
        })
        incident.attribute_modes(record.region_energy_j)
        if self.log is None or window is None or not len(window):
            return
        # The engine's sealed window carries its job ids, row energies
        # and node positions (the log is not consulted); an offline
        # window derives them here.
        rows = DerivedWindow.of(window, self.log, self.interval_s)
        # Row axis: each row's node position picks its node's mask bit.
        row_mask = node_mask[rows.nodes[1]]
        if not row_mask.any():
            return
        job_j = np.bincount(
            rows.job_ids[row_mask], weights=rows.row_energy_j[row_mask]
        )
        top = np.argsort(-job_j, kind="stable")[: self.top_k]
        incident.attribute_jobs({
            int(j): float(job_j[j]) for j in top if job_j[j] > 0
        })

    # -- views --------------------------------------------------------------------

    @property
    def open_incidents(self) -> List[Incident]:
        return [i for i in self.incidents if i.open]

    @property
    def open_count(self) -> int:
        """``len(open_incidents)`` without scanning every incident."""
        return len(self._open)

    def get(self, incident_id: str) -> Optional[Incident]:
        for incident in self.incidents:
            if incident.id == incident_id:
                return incident
        return None

    def freeze(self) -> Tuple[Incident, ...]:
        """The incident list as of now, for a later :meth:`render`.

        Resolved incidents go by reference (resolution is terminal);
        open ones, which later windows keep extending, as
        :meth:`Incident.frozen` copies.
        """
        return tuple(i.frozen() if i.open else i for i in self.incidents)

    def render(self, incidents: Sequence[Incident],
               findings_total: int) -> dict:
        """The ``/v1/incidents`` document of an incident list (live or
        frozen)."""
        return {
            "total": len(incidents),
            "open": sum(1 for i in incidents if i.open),
            "findings_total": findings_total,
            "incidents": [self._doc(i) for i in incidents],
        }

    def _doc(self, incident: Incident) -> dict:
        if incident.open:
            return incident.to_dict(top_k=self.top_k)
        doc = self._resolved_docs.get(incident.id)
        if doc is None:
            doc = self._resolved_docs[incident.id] = incident.to_dict(
                top_k=self.top_k
            )
        return doc


def render_timeline(incidents: Sequence, *,
                    title: str = "incident timeline:") -> str:
    """Human-readable event-time timeline of incident dictionaries.

    Accepts :class:`Incident` objects or their ``to_dict()`` form (the
    shape ``/v1/incidents`` serves), so the CLI renders live and
    exported incidents identically.
    """
    rows = [
        inc.to_dict() if isinstance(inc, Incident) else inc
        for inc in incidents
    ]
    lines = [title]
    if not rows:
        lines.append("  (no incidents)")
        return "\n".join(lines)
    for inc in rows:
        span = (
            f"[{inc['t_start_s']:>9,.0f} s .. {inc['t_end_s']:>9,.0f} s]"
        )
        lines.append(
            f"  {inc['id']}  {span} {inc['detector']:<18} "
            f"[{inc['severity']:<8}] {inc['status']:<8} "
            f"windows {inc['first_window']}..{inc['last_window']} "
            f"({inc['windows_firing']} firing)"
        )
        if inc.get("summary"):
            lines.append(f"        {inc['summary']}")
        tops = []
        if inc.get("top_nodes"):
            tops.append(
                "nodes " + ",".join(
                    str(t["id"]) for t in inc["top_nodes"][:3]
                )
            )
        if inc.get("top_jobs"):
            tops.append(
                "jobs " + ",".join(
                    str(t["id"]) for t in inc["top_jobs"][:3]
                )
            )
        if inc.get("top_modes"):
            tops.append(f"mode {inc['top_modes'][0]['name']}")
        if tops:
            lines.append("        attribution: " + "; ".join(tops))
    return "\n".join(lines)
