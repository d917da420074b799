"""The flight recorder: a bounded ring of per-window fleet records.

Every sealed canonical window that flows past
:meth:`repro.stream.engine.StreamEngine.add_window_observer` is
compacted into one :class:`WindowRecord` — fleet and per-node energy,
the region (power-mode) split, the cap decision *in force* while the
window's samples were charged, ingest-counter deltas, and alert-state
transition deltas — and appended to a :class:`FlightRecorder` ring.

The ring is the evidence store behind incident forensics
(:mod:`repro.obs.forensics.incidents`): detectors read the records (and
the transient raw window) as they are produced, and an exported
incident bundle carries the slice of records spanning the incident so a
bad cap decision can be explained after the fact without replaying the
campaign.  Records are pure *reads* of the window — building one never
mutates pipeline state, which is what keeps recorder-enabled analytic
outputs bitwise-identical to plain runs (asserted in ``tests/obs/``).

Determinism: a record is a function of ``(window, decision snapshot,
counter deltas)`` only — no wall clock, no randomness — so replaying
the same campaign with the same delivery yields byte-identical record
dictionaries, which is what makes incident bundles diffable artifacts.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ... import constants
from ...core.join import DerivedWindow
from ...errors import ForensicsError
from ...telemetry.schema import TelemetryChunk

#: Default ring capacity (windows).  At the 600 s windows the stream
#: experiments use, 512 records cover ~3.5 days of event time.
DEFAULT_CAPACITY = 512


@dataclass(frozen=True)
class WindowRecord:
    """One sealed window, compacted for the ring.

    Arrays are per-node, aligned with ``node_ids`` (sorted unique node
    ids present in the window).  ``region_energy_j`` follows the
    canonical mode order (idle, MI, CI, PV — ``REGION_NAMES``).
    """

    index: int                       # 0-based fold order
    t_start_s: float                 # min sample time in the window
    t_end_s: float                   # max sample time + interval
    samples: int                     # telemetry rows folded
    node_ids: np.ndarray             # (k,) sorted unique node ids
    node_energy_j: np.ndarray        # (k,) per-node GPU energy
    node_mean_power_w: np.ndarray    # (k,) per-node mean per-GPU power
    region_energy_j: np.ndarray      # (4,) per-mode GPU energy
    region_gpu_hours: np.ndarray     # (4,) per-mode GPU-hours
    energy_j: float                  # fleet GPU energy in the window
    gpu_hours: float
    mean_gpu_power_w: float
    max_gpu_power_w: float
    over_limit_samples: int          # GPU samples above power_limit_w
    power_limit_w: float
    # -- the decision in force while this window's samples were charged
    cap: Optional[float]
    objective: Optional[str]
    published_version: Optional[int]
    published_frontier_s: Optional[float]
    # -- ingest deltas (this window's fold vs the previous record)
    samples_in_delta: int
    late_dropped_delta: int
    duplicates_delta: int
    # -- alert-state deltas
    alerts_firing: int
    alert_transitions_delta: int

    def to_dict(self, *, top_nodes: int = 16) -> dict:
        """JSON-ready form; per-node arrays trimmed to the top sinks."""
        order = np.argsort(-self.node_energy_j, kind="stable")[:top_nodes]
        return {
            "index": self.index,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "samples": self.samples,
            "nodes": int(len(self.node_ids)),
            "energy_j": self.energy_j,
            "gpu_hours": self.gpu_hours,
            "mean_gpu_power_w": self.mean_gpu_power_w,
            "max_gpu_power_w": self.max_gpu_power_w,
            "over_limit_samples": self.over_limit_samples,
            "power_limit_w": self.power_limit_w,
            "region_energy_j": [float(x) for x in self.region_energy_j],
            "region_gpu_hours": [float(x) for x in self.region_gpu_hours],
            "top_nodes": [
                {
                    "node": int(self.node_ids[i]),
                    "energy_j": float(self.node_energy_j[i]),
                    "mean_power_w": float(self.node_mean_power_w[i]),
                }
                for i in order
            ],
            "cap": self.cap,
            "objective": self.objective,
            "published_version": self.published_version,
            "published_frontier_s": self.published_frontier_s,
            "samples_in_delta": self.samples_in_delta,
            "late_dropped_delta": self.late_dropped_delta,
            "duplicates_delta": self.duplicates_delta,
            "alerts_firing": self.alerts_firing,
            "alert_transitions_delta": self.alert_transitions_delta,
        }


def make_record(
    window: TelemetryChunk,
    *,
    index: int,
    interval_s: float = constants.TELEMETRY_INTERVAL_S,
    power_limit_w: float = constants.GCD_MAX_POWER_W,
    cap: Optional[float] = None,
    objective: Optional[str] = None,
    published_version: Optional[int] = None,
    published_frontier_s: Optional[float] = None,
    samples_in_delta: int = 0,
    late_dropped_delta: int = 0,
    duplicates_delta: int = 0,
    alerts_firing: int = 0,
    alert_transitions_delta: int = 0,
) -> WindowRecord:
    """Compact one sealed window into a :class:`WindowRecord`.

    An engine's sealed window (a :class:`~repro.core.join.DerivedWindow`)
    brings its float64 samples, region bins and node positions along;
    any other window derives them here.
    """
    n = len(window)
    if n == 0:
        t = 0.0
        return WindowRecord(
            index=index, t_start_s=t, t_end_s=t, samples=0,
            node_ids=np.empty(0, dtype=np.int64),
            node_energy_j=np.empty(0),
            node_mean_power_w=np.empty(0),
            region_energy_j=np.zeros(4),
            region_gpu_hours=np.zeros(4),
            energy_j=0.0, gpu_hours=0.0,
            mean_gpu_power_w=0.0, max_gpu_power_w=0.0,
            over_limit_samples=0, power_limit_w=float(power_limit_w),
            cap=cap, objective=objective,
            published_version=published_version,
            published_frontier_s=published_frontier_s,
            samples_in_delta=samples_in_delta,
            late_dropped_delta=late_dropped_delta,
            duplicates_delta=duplicates_delta,
            alerts_firing=alerts_firing,
            alert_transitions_delta=alert_transitions_delta,
        )
    rows = DerivedWindow.of(window, None, interval_s)
    power = window.gpu_power_w                       # (n, gpus)
    flat = rows.samples
    node_ids, inverse = rows.nodes
    per_node_j = np.bincount(
        np.repeat(inverse, power.shape[1]),
        weights=flat, minlength=len(node_ids),
    ) * interval_s
    per_node_rows = np.bincount(inverse, minlength=len(node_ids))
    per_node_mean_w = per_node_j / (
        np.maximum(per_node_rows, 1) * power.shape[1] * interval_s
    )
    reg = rows.regions.reshape(-1)
    region_j = np.bincount(reg, weights=flat, minlength=4) * interval_s
    region_hours = (
        np.bincount(reg, minlength=4).astype(np.float64)
        * interval_s / 3600.0
    )
    return WindowRecord(
        index=index,
        t_start_s=float(window.time_s.min()),
        t_end_s=float(window.time_s.max()) + interval_s,
        samples=n,
        node_ids=node_ids.astype(np.int64),
        node_energy_j=per_node_j,
        node_mean_power_w=per_node_mean_w,
        region_energy_j=region_j,
        region_gpu_hours=region_hours,
        energy_j=float(flat.sum() * interval_s),
        gpu_hours=n * power.shape[1] * interval_s / 3600.0,
        mean_gpu_power_w=float(flat.mean()),
        max_gpu_power_w=float(flat.max()),
        over_limit_samples=int((flat > power_limit_w).sum()),
        power_limit_w=float(power_limit_w),
        cap=cap,
        objective=objective,
        published_version=published_version,
        published_frontier_s=published_frontier_s,
        samples_in_delta=samples_in_delta,
        late_dropped_delta=late_dropped_delta,
        duplicates_delta=duplicates_delta,
        alerts_firing=alerts_firing,
        alert_transitions_delta=alert_transitions_delta,
    )


class FlightRecorder:
    """Bounded ring buffer of :class:`WindowRecord` entries.

    Appends are O(1) and must come in fold order (``record.index ==
    windows_seen``), so the ring always holds the contiguous indices
    ``windows_seen - len(ring)`` .. ``windows_seen - 1``.  Once
    ``capacity`` records are held the oldest is evicted (and counted in
    :attr:`evicted`), so memory stays bounded however long the stream
    runs.  :meth:`record_doc` renders each resident record's
    ``to_dict()`` once for the served form and ``incidents.json``, from
    whichever thread reads it first.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ForensicsError("recorder capacity must be positive")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.windows_seen = 0
        self.evicted = 0
        #: ``to_dict()`` of resident records by fold index; an entry
        #: leaves with its record, so it never outgrows the ring.  The
        #: lock orders eviction against a serving thread's insert.
        self._docs: Dict[int, dict] = {}
        self._docs_lock = threading.Lock()

    def append(self, record: WindowRecord) -> None:
        if record.index != self.windows_seen:
            raise ForensicsError(
                f"record index {record.index} out of fold order "
                f"(expected {self.windows_seen})"
            )
        with self._docs_lock:
            if len(self._ring) == self.capacity:
                self.evicted += 1
                self._docs.pop(self._ring[0].index, None)
            self._ring.append(record)
            self.windows_seen += 1

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def records(self) -> List[WindowRecord]:
        return list(self._ring)

    @property
    def last(self) -> Optional[WindowRecord]:
        return self._ring[-1] if self._ring else None

    def record_doc(self, record: WindowRecord) -> dict:
        """``record.to_dict()``, rendered once while the record is resident.

        Records are frozen and ``to_dict`` is pure, so the served slice
        of a long-lived incident reuses the dictionaries of earlier
        reads instead of re-rendering them.  A record already evicted
        renders without being memoized.
        """
        doc = self._docs.get(record.index)
        if doc is not None:
            return doc
        doc = record.to_dict()
        with self._docs_lock:
            if record.index >= self.windows_seen - len(self._ring):
                doc = self._docs.setdefault(record.index, doc)
        return doc

    def metric_values(self) -> Dict[str, float]:
        return {
            "forensics_windows_recorded": float(self.windows_seen),
            "forensics_records_resident": float(len(self._ring)),
            "forensics_records_evicted": float(self.evicted),
        }
