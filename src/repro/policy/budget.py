"""Fleet power-budget planning.

The paper's framing is a power-constrained era: centers must "optimize
the power-performance trade-off within constrained power budgets".  This
module answers the operational form of that question: given the jobs
running right now and a fleet GPU power budget, which jobs should be
capped how, so the budget holds with the least slowdown?

The planner is greedy on marginal efficiency: each candidate move (job j
from its current cap to the next deeper cap) is scored by watts shed per
unit of slowdown-energy incurred, and moves are applied best-first until
the fleet fits the budget.  Memory-bound jobs are therefore capped first
(they shed power for free), and compute-bound jobs only when the budget
forces it — the same ordering the paper's region analysis implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..constants import GPUS_PER_NODE
from ..errors import ProjectionError
from ..core.characterization import CapFactors
from .fingerprint import JobFingerprint


def _power_factors(factors: CapFactors, cap: float) -> tuple:
    """(CI, MI) *power* factors: energy factor / runtime factor."""
    e_ci, e_mi = factors.energy_at(cap)
    rt_ci, rt_mi = factors.runtime_at(cap)
    return e_ci / rt_ci, e_mi / rt_mi


def capped_mean_power_w(
    fp: JobFingerprint, factors: CapFactors, cap: Optional[float]
) -> float:
    """A job's expected mean power per GPU module under a cap."""
    if fp.gpu_hours <= 0:
        raise ProjectionError(f"job {fp.job_id} has no GPU hours")
    base = fp.region_energy_j
    if cap is not None:
        p_ci, p_mi = _power_factors(factors, cap)
        base = base.copy()
        base[1] *= p_mi
        base[2] *= p_ci
    return float(base.sum() / (fp.gpu_hours * 3600.0))


def capped_job_power_w(
    fp: JobFingerprint, factors: CapFactors, cap: Optional[float]
) -> float:
    """A job's expected *total* GPU power under a cap.

    Per-GPU mean scaled by the job's GPU count: what the job contributes
    to the fleet's instantaneous power draw.
    """
    return capped_mean_power_w(fp, factors, cap) * fp.num_nodes * GPUS_PER_NODE


def job_slowdown_pct(
    fp: JobFingerprint, factors: CapFactors, cap: Optional[float]
) -> float:
    """Energy-weighted slowdown of a job under a cap (percent)."""
    if cap is None:
        return 0.0
    e = fp.region_energy_j
    total = float(e.sum())
    if total <= 0:
        return 0.0
    _, _, delay = factors.effect(cap, e)
    return 100.0 * delay / total


@dataclass(frozen=True)
class BudgetPlan:
    """The planner's output for one snapshot of running jobs."""

    budget_w: float
    baseline_power_w: float
    planned_power_w: float
    caps: Dict[int, Optional[float]]
    feasible: bool

    @property
    def shed_w(self) -> float:
        return self.baseline_power_w - self.planned_power_w

    def mean_slowdown_pct(
        self, fingerprints: Dict[int, JobFingerprint], factors: CapFactors
    ) -> float:
        """Energy-weighted mean slowdown across the snapshot."""
        total = sum(fp.energy_j for fp in fingerprints.values())
        if total <= 0:
            return 0.0
        acc = 0.0
        for jid, fp in fingerprints.items():
            acc += fp.energy_j * job_slowdown_pct(
                fp, factors, self.caps.get(jid)
            )
        return acc / total


class PowerBudgetPlanner:
    """Greedy marginal-efficiency cap assignment under a fleet budget."""

    def __init__(self, factors: CapFactors) -> None:
        self.factors = factors
        # Deeper caps last; the uncapped state is represented by None.
        self._ladder: List[Optional[float]] = [None] + [
            float(c) for c in self.factors.caps()
        ]

    def plan(
        self,
        fingerprints: Dict[int, JobFingerprint],
        budget_w: float,
    ) -> BudgetPlan:
        """Assign caps so the snapshot's GPU power fits ``budget_w``."""
        if budget_w <= 0:
            raise ProjectionError("budget must be positive")
        if not fingerprints:
            raise ProjectionError("no running jobs to plan")

        state = {jid: 0 for jid in fingerprints}  # ladder index per job
        power = {
            jid: capped_job_power_w(fp, self.factors, None)
            for jid, fp in fingerprints.items()
        }
        baseline = sum(power.values())
        total = baseline

        while total > budget_w:
            best_jid = None
            best_score = 0.0
            for jid, fp in fingerprints.items():
                idx = state[jid]
                if idx + 1 >= len(self._ladder):
                    continue
                cur_cap = self._ladder[idx]
                nxt_cap = self._ladder[idx + 1]
                p_next = capped_job_power_w(fp, self.factors, nxt_cap)
                delta_p = max(power[jid] - p_next, 0.0)
                delta_slow = job_slowdown_pct(
                    fp, self.factors, nxt_cap
                ) - job_slowdown_pct(fp, self.factors, cur_cap)
                score = delta_p / (abs(delta_slow) + 1e-6)
                if best_jid is None or score > best_score:
                    best_jid = jid
                    best_score = score
            if best_jid is None:
                break  # every job at the deepest cap: infeasible
            state[best_jid] += 1
            power[best_jid] = capped_job_power_w(
                fingerprints[best_jid],
                self.factors,
                self._ladder[state[best_jid]],
            )
            total = sum(power.values())

        caps = {
            jid: self._ladder[idx] for jid, idx in state.items()
        }
        return BudgetPlan(
            budget_w=budget_w,
            baseline_power_w=baseline,
            planned_power_w=total,
            caps=caps,
            feasible=total <= budget_w,
        )
