"""Pluggable cap-decision objectives: energy, EDP, ED²P, slowdown budget.

Table V picks one fixed fleet cap by maximum projected savings under a
slowdown budget.  The power-capping-metric literature (see PAPERS.md)
shows the *metric* matters as much as the knob: minimizing energy,
energy-delay product (EDP), or ED²P yields different caps for the same
workload.  This module scores every characterized cap of a
:class:`~repro.core.characterization.CapFactors` against a pluggable
objective over a region-energy vector — the same (latency, MI, CI,
boost) split the projection uses, so region 2 scales by the MI energy
factor and region 3 by the CI factor, and the runtime increase is the
energy-weighted mean of the per-region runtime factors, exactly
mirroring :func:`repro.core.projection.project_savings`.

Because the arithmetic mirrors the projection term-for-term, a
``slowdown`` decision over a fleet cube's region energies lands on the
same cap as :func:`repro.policy.live.recommend_fleet_cap` — asserted in
``tests/serve/`` — while ``energy``/``edp``/``ed2p`` extend the menu.

New objectives plug in via :func:`register_objective`::

    register_objective(Objective(
        "edp_sq", "example", lambda e, dt, budget: e * (1 + dt / 100.0),
    ))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..core.characterization import CapFactors
from ..errors import ServeError

#: Score signature: (projected_energy_j, runtime_increase_pct,
#: max_slowdown_pct) -> score.  Lower wins; +inf = infeasible.
ScoreFn = Callable[[float, float, float], float]


@dataclass(frozen=True)
class Objective:
    """One pluggable cap-scoring rule (lower score wins)."""

    name: str
    description: str
    score: ScoreFn


@dataclass(frozen=True)
class CapDecision:
    """The objective's verdict for one region-energy vector."""

    objective: str
    knob: str
    cap: Optional[float]            # None = leave uncapped
    baseline_energy_j: float
    projected_energy_j: float
    saving_j: float
    savings_pct: float
    runtime_increase_pct: float

    @property
    def capped(self) -> bool:
        return self.cap is not None

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "knob": self.knob,
            "cap": self.cap,
            "baseline_energy_j": self.baseline_energy_j,
            "projected_energy_j": self.projected_energy_j,
            "saving_j": self.saving_j,
            "savings_pct": self.savings_pct,
            "runtime_increase_pct": self.runtime_increase_pct,
        }


def _score_energy(energy_j: float, dt_pct: float, budget_pct: float) -> float:
    return energy_j


def _score_edp(energy_j: float, dt_pct: float, budget_pct: float) -> float:
    return energy_j * (1.0 + dt_pct / 100.0)


def _score_ed2p(energy_j: float, dt_pct: float, budget_pct: float) -> float:
    return energy_j * (1.0 + dt_pct / 100.0) ** 2


def _score_slowdown(
    energy_j: float, dt_pct: float, budget_pct: float
) -> float:
    return energy_j if dt_pct <= budget_pct else math.inf


#: The shipped objectives; extend via :func:`register_objective`.
OBJECTIVES: Dict[str, Objective] = {}


def register_objective(objective: Objective) -> Objective:
    """Add (or replace) an objective in the registry."""
    if not objective.name:
        raise ServeError("objective needs a name")
    if not callable(objective.score):
        raise ServeError(f"objective {objective.name!r}: score not callable")
    OBJECTIVES[objective.name] = objective
    return objective


register_objective(Objective(
    "energy",
    "minimize projected energy, slowdown ignored",
    _score_energy,
))
register_objective(Objective(
    "edp",
    "minimize energy x delay (EDP)",
    _score_edp,
))
register_objective(Objective(
    "ed2p",
    "minimize energy x delay^2 (ED2P, performance-leaning)",
    _score_ed2p,
))
register_objective(Objective(
    "slowdown",
    "minimize energy subject to the slowdown budget (the paper's rule)",
    _score_slowdown,
))


def objective_names() -> List[str]:
    return sorted(OBJECTIVES)


def get_objective(name: str) -> Objective:
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ServeError(
            f"unknown objective {name!r}; known: "
            f"{', '.join(objective_names())}"
        ) from None


def decide_cap(
    region_energy_j: np.ndarray,
    factors: CapFactors,
    *,
    objective: str = "slowdown",
    max_slowdown_pct: float = 5.0,
) -> CapDecision:
    """Best cap for one region-energy vector under an objective.

    ``region_energy_j`` is the (4,) operating-region energy split of a
    fleet cube (:meth:`~repro.core.join.CampaignCube.region_energy_j`)
    or of one job's accumulated samples.  Candidates are the uncapped
    baseline plus every characterized cap, scored lower-is-better; ties
    keep the earlier candidate (uncapped first, then caps descending),
    so the decision is deterministic and never caps without strict
    improvement.
    """
    if max_slowdown_pct < 0:
        raise ServeError("slowdown budget must be >= 0")
    obj = get_objective(objective)
    region_energy_j = np.asarray(region_energy_j, dtype=np.float64)
    if region_energy_j.shape != (4,):
        raise ServeError(
            f"region energy must have shape (4,), got "
            f"{region_energy_j.shape}"
        )
    base_j = float(region_energy_j.sum())

    def uncapped() -> CapDecision:
        return CapDecision(
            objective=obj.name, knob=factors.knob, cap=None,
            baseline_energy_j=base_j, projected_energy_j=base_j,
            saving_j=0.0, savings_pct=0.0, runtime_increase_pct=0.0,
        )

    if base_j <= 0:
        return uncapped()

    best = uncapped()
    best_score = obj.score(base_j, 0.0, max_slowdown_pct)
    for cap in factors.caps():
        mi_save, ci_save, delay = factors.effect(cap, region_energy_j)
        saving = float(ci_save + mi_save)
        projected = base_j - saving
        dt = 100.0 * float(delay) / base_j
        score = obj.score(projected, dt, max_slowdown_pct)
        if score < best_score:
            best_score = score
            best = CapDecision(
                objective=obj.name, knob=factors.knob, cap=float(cap),
                baseline_energy_j=base_j, projected_energy_j=projected,
                saving_j=saving,
                savings_pct=100.0 * saving / base_j,
                runtime_increase_pct=dt,
            )
    return best
