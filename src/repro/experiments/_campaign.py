"""Shared campaign construction for the telemetry-driven experiments.

Fig 8/9/10 and Tables IV/V/VI all consume the same joined campaign; this
module builds it once per configuration and caches it for the process
lifetime, so ``repro run all`` does not regenerate the fleet per artifact.
"""

from __future__ import annotations

from functools import lru_cache

from .. import units
from ..core import CampaignCube, join_campaign
from ..obs import runtime as _obs
from ..scheduler import SlurmSimulator, default_mix
from ..scheduler.log import SchedulerLog
from ..telemetry import FleetTelemetryGenerator


def _freeze_cube(cube: CampaignCube) -> CampaignCube:
    """Make the cube's arrays read-only.

    The cube is shared by every experiment in the process via the
    ``build_campaign`` cache; an in-place edit by one would silently
    corrupt all the others.  Read-only arrays turn that aliasing bug
    into an immediate ``ValueError`` at the write site.
    """
    cube.energy_j.setflags(write=False)
    cube.gpu_hours.setflags(write=False)
    for hist in [cube.histogram, *cube.domain_histograms.values()]:
        hist.counts.setflags(write=False)
        hist.weight_sums.setflags(write=False)
    return cube


def fold_campaign(
    fleet_nodes: int, days: float, seed: int
) -> tuple:
    """(SchedulerLog, CampaignCube) for one configuration, uncached.

    For callers that sweep many configurations once each (going
    through :func:`build_campaign` would evict the shared campaign);
    the cube is the caller's own and stays writable.
    """
    with _obs.span(
        "campaign.build", fleet_nodes=fleet_nodes, days=days, seed=seed
    ):
        mix = default_mix(fleet_nodes=fleet_nodes)
        with _obs.span("campaign.simulate"):
            log = SlurmSimulator(mix).run(units.days(days), rng=seed)
        gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
        # Stream in node blocks: memory stays bounded at any fleet size.
        return log, join_campaign(gen.chunks(nodes_per_chunk=16), log)


@lru_cache(maxsize=4)
def build_campaign(
    fleet_nodes: int, days: float, seed: int
) -> tuple:
    """(SchedulerLog, CampaignCube) for one configuration (cached).

    The returned cube's arrays are frozen (``writeable=False``): every
    caller aliases the same cached object, so consumers must copy
    before mutating.
    """
    log, cube = fold_campaign(fleet_nodes, days, seed)
    return log, _freeze_cube(cube)


def campaign_cube(config) -> CampaignCube:
    """The joined campaign for an :class:`ExperimentConfig`."""
    _log, cube = build_campaign(config.fleet_nodes, config.days, config.seed)
    return cube


def campaign_log(config) -> SchedulerLog:
    log, _cube = build_campaign(config.fleet_nodes, config.days, config.seed)
    return log
