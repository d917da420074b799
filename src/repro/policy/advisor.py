"""Per-job cap recommendation.

The advisor turns the benchmark characterization (Table III) into a
sensitivity model: for a job with fingerprinted region energies, a cap
``c`` is expected to save

    E2 * (1 - f_MI(c)) + E3 * (1 - f_CI(c))

at an energy-weighted slowdown of

    [E2 * (rt_MI(c) - 1) + E3 * (rt_CI(c) - 1)] / E_total.

The recommendation maximizes expected savings subject to a per-job
slowdown budget — jobs whose energy sits in the latency-bound region get
no cap (the paper found no savings there), memory-heavy jobs get deep
caps, compute-heavy jobs get mild or no caps depending on the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ProjectionError
from ..core.characterization import CapFactors
from .fingerprint import JobFingerprint


@dataclass(frozen=True)
class Recommendation:
    """The advisor's verdict for one job."""

    job_id: int
    cap: Optional[float]          # None = leave uncapped
    expected_saving_j: float
    expected_slowdown_pct: float

    @property
    def capped(self) -> bool:
        return self.cap is not None


class CapAdvisor:
    """Recommend per-job caps under a slowdown budget."""

    def __init__(
        self,
        factors: CapFactors,
        *,
        max_slowdown_pct: float = 5.0,
        min_saving_fraction: float = 0.005,
    ) -> None:
        if max_slowdown_pct < 0:
            raise ProjectionError("slowdown budget must be >= 0")
        if not (0 <= min_saving_fraction < 1):
            raise ProjectionError("min_saving_fraction must be in [0, 1)")
        self.factors = factors
        self.max_slowdown_pct = max_slowdown_pct
        self.min_saving_fraction = min_saving_fraction

    def expected_outcome(
        self, fp: JobFingerprint, cap: float
    ) -> tuple:
        """(expected saving J, expected slowdown %) for one cap."""
        mi_save, ci_save, delay = self.factors.effect(
            cap, fp.region_energy_j
        )
        saving = mi_save + ci_save
        slowdown = (
            100.0 * delay / fp.energy_j if fp.energy_j > 0 else 0.0
        )
        return saving, slowdown

    def recommend(self, fp: JobFingerprint) -> Recommendation:
        """Pick the cap with the best expected saving within budget."""
        best = Recommendation(
            job_id=fp.job_id, cap=None,
            expected_saving_j=0.0, expected_slowdown_pct=0.0,
        )
        floor = self.min_saving_fraction * fp.energy_j
        for cap in self.factors.caps():
            saving, slowdown = self.expected_outcome(fp, cap)
            if slowdown > self.max_slowdown_pct:
                continue
            if saving <= max(best.expected_saving_j, floor):
                continue
            best = Recommendation(
                job_id=fp.job_id, cap=cap,
                expected_saving_j=saving,
                expected_slowdown_pct=slowdown,
            )
        return best

    def recommend_all(
        self, fingerprints: Dict[int, JobFingerprint]
    ) -> Dict[int, Recommendation]:
        return {jid: self.recommend(fp) for jid, fp in fingerprints.items()}
