"""Window-level anomaly detectors over sealed stream windows.

Each detector consumes the compacted :class:`~.recorder.WindowRecord`
(plus, transiently, the raw sealed window for sample-level evidence)
and emits zero or more :class:`Finding` rows.  Detectors run *only* on
sealed canonical windows — the deterministic unit of the streaming
contract — so a replayed campaign produces the identical finding
sequence whatever the arrival order or chunking was, and anything
delivery-dependent (publication lag) is derived from recorded state,
never the wall clock.

The shipped set mirrors what a fleet operator would watch on Frontier:

* :class:`StragglerDetector` — per-node mean power robust z-scores
  (median + MAD); an outlier node is drawing far more (or less) power
  than its peers in the same window.
* :class:`CapViolationDetector` — GPU samples above the vendor power
  limit (the 560 W GCD cap in the paper's Table I): hardware that is
  not honoring the enforced cap.
* :class:`ModeMixDetector` — the window's power-mode GPU-hour mix vs
  the pinned Table IV reference (total-variation distance), the
  windowed sibling of the cumulative health-layer drift detector.
* :class:`EnergyRegressionDetector` — fleet mean power vs a baseline
  window range: the whole campaign drawing anomalously more/less.
* :class:`PublicationStallDetector` — the control plane's published
  frontier falling behind the sealed frontier (cap decisions going
  stale while ingest advances).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ... import constants
from ..health.drift import DriftReference, tv_distance
from .recorder import WindowRecord

#: Finding severities, in increasing order of operator urgency.
WARNING, CRITICAL = "warning", "critical"


@dataclass(frozen=True)
class Finding:
    """One detector firing on one sealed window."""

    detector: str
    severity: str
    window_index: int
    t_start_s: float
    t_end_s: float
    value: float            # the observed magnitude (z, fraction, ...)
    threshold: float
    summary: str
    nodes: Tuple[int, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "window_index": self.window_index,
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "value": self.value,
            "threshold": self.threshold,
            "summary": self.summary,
            "nodes": list(self.nodes),
        }


class Detector:
    """Base: a named check over ``(record, window)`` pairs."""

    name = "detector"
    severity = WARNING

    def bind(self, *, window_s: Optional[float] = None) -> None:
        """Hook for stream geometry (called when attached to an engine)."""

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        raise NotImplementedError

    def _finding(self, record: WindowRecord, *, value: float,
                 threshold: float, summary: str,
                 nodes: Tuple[int, ...] = ()) -> Finding:
        return Finding(
            detector=self.name,
            severity=self.severity,
            window_index=record.index,
            t_start_s=record.t_start_s,
            t_end_s=record.t_end_s,
            value=float(value),
            threshold=float(threshold),
            summary=summary,
            nodes=tuple(int(n) for n in nodes),
        )


class StragglerDetector(Detector):
    """Outlier nodes by robust per-node mean-power z-score.

    The scale is the median absolute deviation (scaled to sigma under
    normality); a relative floor keeps a near-degenerate fleet (every
    node drawing the same power) from turning rounding noise into
    infinite z-scores.
    """

    name = "straggler"
    severity = WARNING

    def __init__(self, *, z_threshold: float = 4.0,
                 min_nodes: int = 4, top_k: int = 8) -> None:
        self.z_threshold = float(z_threshold)
        self.min_nodes = int(min_nodes)
        self.top_k = int(top_k)

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        power = record.node_mean_power_w
        if len(power) < self.min_nodes:
            return []
        median = float(np.median(power))
        mad = float(np.median(np.abs(power - median)))
        scale = max(1.4826 * mad, 0.01 * abs(median), 1e-9)
        z = (power - median) / scale
        hot = np.abs(z) >= self.z_threshold
        if not hot.any():
            return []
        order = np.argsort(-np.abs(z), kind="stable")
        picked = [int(i) for i in order if hot[i]][: self.top_k]
        worst = picked[0]
        return [self._finding(
            record,
            value=float(np.abs(z[worst])),
            threshold=self.z_threshold,
            summary=(
                f"node {int(record.node_ids[worst])} mean power "
                f"{power[worst]:.0f} W vs fleet median {median:.0f} W "
                f"(|z|={abs(z[worst]):.1f}, {int(hot.sum())} outlier "
                f"node(s))"
            ),
            nodes=tuple(int(record.node_ids[i]) for i in picked),
        )]


class CapViolationDetector(Detector):
    """GPU samples above the vendor power limit (cap not honored)."""

    name = "cap_violation"
    severity = CRITICAL

    def __init__(self, *, min_samples: int = 1, top_k: int = 8) -> None:
        self.min_samples = int(min_samples)
        self.top_k = int(top_k)

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        if record.over_limit_samples < self.min_samples:
            return []
        nodes: Tuple[int, ...] = ()
        if window is not None and len(window):
            over = (window.gpu_power_w > record.power_limit_w).any(axis=1)
            ids, counts = np.unique(
                window.node_id[over], return_counts=True
            )
            order = np.argsort(-counts, kind="stable")[: self.top_k]
            nodes = tuple(int(ids[i]) for i in order)
        total = record.samples * constants.GPUS_PER_NODE
        frac = record.over_limit_samples / max(total, 1)
        return [self._finding(
            record,
            value=frac,
            threshold=0.0,
            summary=(
                f"{record.over_limit_samples} GPU sample(s) above "
                f"{record.power_limit_w:.0f} W "
                f"(peak {record.max_gpu_power_w:.0f} W, "
                f"{100.0 * frac:.2f} % of window)"
            ),
            nodes=nodes,
        )]


class ModeMixDetector(Detector):
    """Window mode mix vs the pinned Table IV reference (TV distance)."""

    name = "mode_mix"
    severity = WARNING

    def __init__(self, reference: Optional[DriftReference] = None, *,
                 tv_threshold: float = 0.25) -> None:
        self.reference = (
            reference if reference is not None else DriftReference.paper()
        )
        self.tv_threshold = float(tv_threshold)

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        hours = record.region_gpu_hours
        if hours.sum() <= 0:
            return []
        tv = tv_distance(hours, self.reference.gpu_hours_pct)
        if tv <= self.tv_threshold:
            return []
        shares = 100.0 * hours / hours.sum()
        return [self._finding(
            record,
            value=tv,
            threshold=self.tv_threshold,
            summary=(
                f"mode mix {'/'.join(f'{s:.0f}' for s in shares)} % vs "
                f"{self.reference.label}: TV distance {tv:.2f}"
            ),
        )]


class EnergyRegressionDetector(Detector):
    """Fleet mean power vs the median of a baseline window range.

    The first ``baseline_windows`` sealed windows pin the baseline;
    later windows deviating more than ``deviation_pct`` (either way)
    fire.  Baseline state is in *fold order*, so it is identical across
    deliveries of the same campaign.
    """

    name = "energy_regression"
    severity = WARNING

    def __init__(self, *, baseline_windows: int = 8,
                 deviation_pct: float = 25.0) -> None:
        self.baseline_windows = int(baseline_windows)
        self.deviation_pct = float(deviation_pct)
        self._baseline: List[float] = []
        self._base: Optional[float] = None   # median of the full baseline

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        mean_w = record.mean_gpu_power_w
        if record.samples == 0 or mean_w <= 0:
            return []
        if len(self._baseline) < self.baseline_windows:
            self._baseline.append(mean_w)
            return []
        if self._base is None:
            self._base = float(np.median(self._baseline))
        base = self._base
        if base <= 0:
            return []
        deviation = 100.0 * (mean_w - base) / base
        if abs(deviation) <= self.deviation_pct:
            return []
        return [self._finding(
            record,
            value=deviation,
            threshold=self.deviation_pct,
            summary=(
                f"fleet mean GPU power {mean_w:.0f} W is "
                f"{deviation:+.1f} % vs the baseline {base:.0f} W "
                f"(first {self.baseline_windows} windows)"
            ),
        )]


class PublicationStallDetector(Detector):
    """The published cap decision lagging the sealed frontier.

    Only active when the record carries a publication feed (a control
    plane is attached); the lag is event time of the sealed window vs
    the event-time frontier of the *published* view, so it measures
    exactly what a polling power agent experiences: decisions computed
    from data ``lag`` seconds behind what the fleet already did.
    """

    name = "publication_stall"
    severity = CRITICAL

    def __init__(self, *, max_lag_windows: float = 3.0) -> None:
        self.max_lag_windows = float(max_lag_windows)
        self._window_s: Optional[float] = None

    def bind(self, *, window_s: Optional[float] = None) -> None:
        self._window_s = window_s

    def observe(self, record: WindowRecord, window) -> List[Finding]:
        if record.published_version is None:
            return []
        frontier = record.published_frontier_s
        lag = record.t_end_s - (frontier if frontier is not None else 0.0)
        window_s = self._window_s or max(
            record.t_end_s - record.t_start_s, 1.0
        )
        limit = self.max_lag_windows * window_s
        if lag <= limit:
            return []
        return [self._finding(
            record,
            value=lag,
            threshold=limit,
            summary=(
                f"published view v{record.published_version} is "
                f"{lag:.0f} s behind the sealed frontier "
                f"(> {self.max_lag_windows:g} windows of {window_s:.0f} s)"
            ),
        )]


def default_detectors(
    *,
    reference: Optional[DriftReference] = None,
    z_threshold: float = 4.0,
    tv_threshold: float = 0.25,
    deviation_pct: float = 25.0,
    max_lag_windows: float = 3.0,
) -> List[Detector]:
    """The shipped detector set, in deterministic evaluation order."""
    return [
        StragglerDetector(z_threshold=z_threshold),
        CapViolationDetector(),
        ModeMixDetector(reference, tv_threshold=tv_threshold),
        EnergyRegressionDetector(deviation_pct=deviation_pct),
        PublicationStallDetector(max_lag_windows=max_lag_windows),
    ]
