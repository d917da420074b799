"""Domain x size-class heatmaps (Fig 10) and the Table VI selection.

Fig 10(a) maps total GPU energy over (science domain, job size class);
Fig 10(b) maps the projected savings under an 1100 MHz frequency cap.
Table VI then restricts the projection to the domains holding at least
one "red" (high-savings) heatmap cell and to the large job classes A-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .. import units
from ..errors import ProjectionError
from .characterization import CapFactors
from .join import CampaignCube

#: Size classes Table VI keeps ("significantly large jobs").
LARGE_CLASSES = ("A", "B", "C")


@dataclass(frozen=True)
class HeatmapPair:
    """Fig 10: energy and projected-savings heatmaps."""

    domains: List[str]
    classes: List[str]
    energy_mwh: np.ndarray     # (n_domains, n_classes)
    savings_mwh: np.ndarray    # same shape
    cap: float

    def savings_threshold(self, quantile: float = 0.85) -> float:
        """The 'red cell' threshold: top-quantile of positive savings."""
        positive = self.savings_mwh[self.savings_mwh > 0]
        if len(positive) == 0:
            return float("inf")
        return float(np.quantile(positive, quantile))


def compute_heatmaps(
    cube: CampaignCube,
    factors: CapFactors,
    *,
    cap: float = 1100.0,
    campaign_energy_mwh: float | None = None,
) -> HeatmapPair:
    """Compute the Fig 10 heatmaps at one cap setting."""
    busy = cube.busy_view()
    scale = 1.0
    if campaign_energy_mwh is not None:
        if campaign_energy_mwh <= 0:
            raise ProjectionError("campaign energy must be positive")
        scale = units.mwh(campaign_energy_mwh) / cube.total_energy_j

    energy = busy.energy_j * scale                      # (d, c, region)
    total = energy.sum(axis=2)
    mi_save, ci_save, _ = factors.effect(cap, energy)
    savings = ci_save + mi_save
    return HeatmapPair(
        domains=busy.domains,
        classes=busy.classes,
        energy_mwh=units.to_mwh(total),
        savings_mwh=units.to_mwh(savings),
        cap=cap,
    )


def select_red_domains(
    heatmaps: HeatmapPair,
    *,
    n_domains: int = 6,
) -> List[str]:
    """Domains with at least one red (top-savings) cell, as in Table VI.

    The paper selects six domains; ``n_domains`` keeps the strongest
    ``n`` by their maximum cell savings.
    """
    if n_domains <= 0:
        raise ProjectionError("n_domains must be positive")
    best_cell = heatmaps.savings_mwh.max(axis=1)
    order = np.argsort(best_cell)[::-1]
    picked = [heatmaps.domains[i] for i in order[:n_domains] if best_cell[i] > 0]
    return picked


def table6_selection(
    cube: CampaignCube,
    factors: CapFactors,
    *,
    cap: float = 1100.0,
    n_domains: int = 6,
) -> Tuple[CampaignCube, List[str]]:
    """The Table VI sub-campaign: red-cell domains x classes A-C."""
    heatmaps = compute_heatmaps(cube, factors, cap=cap)
    domains = select_red_domains(heatmaps, n_domains=n_domains)
    if not domains:
        raise ProjectionError("no domain shows any projected savings")
    selected = cube.select(domains, LARGE_CLASSES)
    return selected, domains
