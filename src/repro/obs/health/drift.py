"""Power-mode distribution drift vs a pinned reference (Table IV).

The paper's fleet-wide projection (Tables V/VI) is only as good as the
stability of the power-mode distribution it was derived from: Table IV's
GPU-hour shares are the weights that turn per-mode savings factors into
campaign MWh.  If the live distribution walks away from the reference
the projection was pinned to, the recommended caps are stale.

:class:`DriftDetector` quantifies that walk with two complementary
signals:

* **total-variation distance** between the live and reference GPU-hour
  share vectors — ``TV(p, q) = 0.5 * sum |p_i - q_i|`` over the four
  modes, the standard bound on how much any event probability (here: any
  union of modes) can differ;
* **per-mode relative error** — catches a single mode drifting while
  the aggregate TV stays small (region 4 holds ~1 % of hours, so its
  collapse barely moves TV but invalidates the boost analysis).

The detector only computes numbers and gauges (``mode_drift_*``);
turning them into alerts is the rule engine's job
(:mod:`repro.obs.health.rules`, see ``mode_drift`` in the default
ruleset).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ... import constants
from ...core.modes import ModeTable
from ...errors import HealthError

#: Below this reference share (percentage points) a mode's relative
#: error is measured against the floor, not the share itself — region 4
#: holds ~1 % of GPU hours and a ratio against that is timer noise.
REL_ERR_FLOOR_PCT = 1.0


def tv_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two share vectors.

    Inputs may be percentages or fractions; each side is normalized to a
    probability vector first.  Returns a value in [0, 1].
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise HealthError(
            f"share vectors differ in shape: {p.shape} vs {q.shape}"
        )
    ps, qs = p.sum(), q.sum()
    if ps <= 0 or qs <= 0:
        raise HealthError("share vectors must have positive mass")
    return float(0.5 * np.abs(p / ps - q / qs).sum())


@dataclass(frozen=True)
class DriftReference:
    """A pinned power-mode distribution to compare live streams against."""

    gpu_hours_pct: Tuple[float, ...]
    label: str = "reference"

    def __post_init__(self) -> None:
        if len(self.gpu_hours_pct) != 4:
            raise HealthError("drift reference needs four mode shares")
        if any(s < 0 for s in self.gpu_hours_pct):
            raise HealthError("mode shares must be >= 0")
        if sum(self.gpu_hours_pct) <= 0:
            raise HealthError("mode shares must have positive mass")

    @classmethod
    def paper(cls) -> "DriftReference":
        """The paper's Table IV GPU-hour shares (the seed reference)."""
        return cls(
            gpu_hours_pct=tuple(constants.PAPER_REGION_GPU_HOURS_PCT),
            label="paper Table IV",
        )

    @classmethod
    def from_table(cls, table: ModeTable,
                   label: str = "pinned Table IV") -> "DriftReference":
        """Pin the reference to a computed modal decomposition."""
        return cls(
            gpu_hours_pct=tuple(float(x) for x in table.gpu_hours_pct),
            label=label,
        )

    @classmethod
    def from_file(cls, path) -> "DriftReference":
        """Load ``{"gpu_hours_pct": [...], "label": ...}`` from JSON."""
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise HealthError(
                f"cannot read drift reference {path}: {exc}"
            ) from exc
        if not isinstance(doc, dict) or "gpu_hours_pct" not in doc:
            raise HealthError(f"{path} is not a drift reference")
        shares = doc["gpu_hours_pct"]
        if not isinstance(shares, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x)
            for x in shares
        ):
            raise HealthError(
                f"{path}: gpu_hours_pct must be a list of finite numbers"
            )
        return cls(
            gpu_hours_pct=tuple(float(x) for x in shares),
            label=str(doc.get("label", path.name)),
        )

    def to_dict(self) -> dict:
        return {
            "gpu_hours_pct": list(self.gpu_hours_pct),
            "label": self.label,
        }


@dataclass(frozen=True)
class DriftReport:
    """One comparison of a live decomposition against the reference."""

    tv: float
    live_pct: Tuple[float, ...]
    reference_pct: Tuple[float, ...]
    rel_err: Tuple[float, ...]     # per mode, against the floored reference

    @property
    def max_rel_err(self) -> float:
        return max(self.rel_err)

    def gauges(self) -> dict:
        """Unlabelled gauge values for the rule engine's flat snapshot."""
        return {
            "mode_drift_tv": self.tv,
            "mode_drift_max_rel_err": self.max_rel_err,
        }

    def to_dict(self) -> dict:
        return {
            "tv": self.tv,
            "max_rel_err": self.max_rel_err,
            "live_pct": list(self.live_pct),
            "reference_pct": list(self.reference_pct),
            "rel_err": list(self.rel_err),
        }


class DriftDetector:
    """Compare live mode tables against a :class:`DriftReference`."""

    def __init__(self, reference: Optional[DriftReference] = None) -> None:
        self.reference = (
            reference if reference is not None else DriftReference.paper()
        )
        self.last_report: Optional[DriftReport] = None

    def check(self, table: ModeTable) -> DriftReport:
        """Drift of one live decomposition; remembers the report."""
        live = np.asarray(table.gpu_hours_pct, dtype=float)
        ref = np.asarray(self.reference.gpu_hours_pct, dtype=float)
        live_n = 100.0 * live / live.sum()
        ref_n = 100.0 * ref / ref.sum()
        floored = np.maximum(ref_n, REL_ERR_FLOOR_PCT)
        rel_err = np.abs(live_n - ref_n) / floored
        report = DriftReport(
            tv=tv_distance(live_n, ref_n),
            live_pct=tuple(float(x) for x in live_n),
            reference_pct=tuple(float(x) for x in ref_n),
            rel_err=tuple(float(x) for x in rel_err),
        )
        self.last_report = report
        return report

    def export(self, registry, report: Optional[DriftReport] = None) -> None:
        """Mirror a drift report into a metrics registry."""
        report = report if report is not None else self.last_report
        if report is None:
            return
        registry.gauge(
            "mode_drift_tv",
            "total-variation distance of live mode shares vs reference",
        ).set(report.tv)
        registry.gauge(
            "mode_drift_max_rel_err",
            "largest per-mode relative error vs the (floored) reference",
        ).set(report.max_rel_err)
        for i, (live, ref, err) in enumerate(zip(
            report.live_pct, report.reference_pct, report.rel_err
        )):
            region = str(i + 1)
            registry.gauge(
                "mode_share_pct", "live GPU-hour share per mode",
                region=region,
            ).set(live)
            registry.gauge(
                "mode_share_ref_pct", "reference GPU-hour share per mode",
                region=region,
            ).set(ref)
            registry.gauge(
                "mode_drift_rel_err", "per-mode relative error vs reference",
                region=region,
            ).set(err)


def render_drift(report: DriftReport, reference: DriftReference,
                 region_names: Sequence[str]) -> List[str]:
    """Plain-text mode-share comparison (dashboard / experiment output)."""
    name_w = max(len(name) for name in region_names)
    lines = [
        f"mode shares vs {reference.label} "
        f"(TV {report.tv:.3f}, max rel err {report.max_rel_err:.2f}):",
        f"  {'region':<{name_w + 3}} {'live %':>8} {'ref %':>8} {'rel err':>8}",
    ]
    for i, name in enumerate(region_names):
        lines.append(
            f"  {i + 1}: {name:<{name_w}} {report.live_pct[i]:>8.1f} "
            f"{report.reference_pct[i]:>8.1f} {report.rel_err[i]:>8.2f}"
        )
    return lines
