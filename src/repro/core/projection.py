"""System-scale energy-savings projection (Tables V and VI).

The projection multiplies each projectable region's campaign energy by
the benchmark-measured energy factor for a cap setting:

* region 3 (compute intensive, 420-560 W) scales by the VAI (CI) factor,
* region 2 (memory intensive, 200-420 W) scales by the MB (MI) factor,
* regions 1 and 4 are excluded — the benchmarks showed no savings for
  latency-bound work, and the boost region was not characterized.

This mirrors Section V-C: the result is an *upper bound* for best-case
savings, not a deployment prediction.  The runtime-increase column is the
energy-weighted mean of the per-region runtime factors (GPU-hour
weighting is available as an ablation knob), and the "no-slowdown"
column counts only regions whose characterized runtime is unchanged —
which is how the paper's ΔT=0 column equals its MI column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .. import units
from ..errors import ProjectionError
from ..obs import runtime as _obs
from .characterization import CapFactors
from .join import CampaignCube

#: Runtime factors within this tolerance of 1.0 count as "no slowdown".
NO_SLOWDOWN_TOL = 0.005


@dataclass(frozen=True)
class ProjectionRow:
    """One cap setting of Table V / VI."""

    cap: float
    ci_mwh: float               # savings from the compute-intensive region
    mi_mwh: float               # savings from the memory-intensive region
    total_mwh: float
    savings_pct: float
    runtime_increase_pct: float
    savings_no_slowdown_pct: float


@dataclass(frozen=True)
class ProjectionTable:
    """A full projection over one knob's cap grid."""

    knob: str
    total_energy_mwh: float
    rows: List[ProjectionRow]

    def row_at(self, cap: float) -> ProjectionRow:
        for r in self.rows:
            if r.cap == cap:
                return r
        raise ProjectionError(f"no projection row at cap {cap}")

    @property
    def best_row(self) -> ProjectionRow:
        """The cap with the highest total savings."""
        return max(self.rows, key=lambda r: r.total_mwh)

    @property
    def best_no_slowdown_row(self) -> ProjectionRow:
        """The cap with the highest savings at zero runtime cost."""
        return max(self.rows, key=lambda r: r.savings_no_slowdown_pct)


def project_savings(
    cube: CampaignCube,
    factors: CapFactors,
    *,
    campaign_energy_mwh: Optional[float] = None,
    reference_cube: Optional[CampaignCube] = None,
    dt_weighting: str = "energy",
) -> ProjectionTable:
    """Project savings for every characterized cap over a campaign.

    ``campaign_energy_mwh`` rescales the reference total energy to a
    target campaign size (the paper's 16 820 MWh three-month total) so
    scaled fleets report full-scale megawatt-hours; percentages are
    unaffected.  ``reference_cube`` sets the denominator: Table VI
    projects a *selected* cube (a few domains, classes A-C) while
    reporting percentages of the full campaign, so the full cube is
    passed as the reference.  ``dt_weighting`` selects how per-region
    runtime increases combine ("energy" or "gpu_hours").
    """
    if dt_weighting not in ("energy", "gpu_hours"):
        raise ProjectionError(f"unknown dt_weighting {dt_weighting!r}")
    with _obs.span("projection.project", knob=factors.knob):
        return _project(
            cube,
            factors,
            campaign_energy_mwh=campaign_energy_mwh,
            reference_cube=reference_cube,
            dt_weighting=dt_weighting,
        )


def _project(
    cube: CampaignCube,
    factors: CapFactors,
    *,
    campaign_energy_mwh: Optional[float],
    reference_cube: Optional[CampaignCube],
    dt_weighting: str,
) -> ProjectionTable:
    ref = reference_cube if reference_cube is not None else cube
    region_energy = cube.region_energy_j()
    total_j = ref.total_energy_j
    if total_j <= 0 or cube.total_energy_j <= 0:
        raise ProjectionError("campaign has no energy")
    scale = 1.0
    if campaign_energy_mwh is not None:
        if campaign_energy_mwh <= 0:
            raise ProjectionError("campaign energy must be positive")
        scale = units.mwh(campaign_energy_mwh) / total_j

    energy = region_energy * scale
    e_total = total_j * scale
    if dt_weighting == "energy":
        hours, w_total = None, e_total
    else:
        hours, w_total = cube.region_gpu_hours(), cube.total_gpu_hours

    rows = []
    for cap in factors.caps():
        mi_save, ci_save, delay = factors.effect(cap, energy)
        if hours is not None:
            _, _, delay = factors.effect(cap, hours)
        total_save = ci_save + mi_save
        dt = 100.0 * delay / w_total
        rt_ci, rt_mi = factors.runtime_at(cap)
        no_slowdown = 0.0
        if rt_mi <= 1.0 + NO_SLOWDOWN_TOL:
            no_slowdown += mi_save
        if rt_ci <= 1.0 + NO_SLOWDOWN_TOL:
            no_slowdown += ci_save
        rows.append(
            ProjectionRow(
                cap=cap,
                ci_mwh=units.to_mwh(ci_save),
                mi_mwh=units.to_mwh(mi_save),
                total_mwh=units.to_mwh(total_save),
                savings_pct=100.0 * total_save / e_total,
                runtime_increase_pct=dt,
                savings_no_slowdown_pct=100.0 * no_slowdown / e_total,
            )
        )
    return ProjectionTable(
        knob=factors.knob,
        total_energy_mwh=units.to_mwh(e_total),
        rows=rows,
    )
