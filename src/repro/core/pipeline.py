"""Campaign-cube merging and the streaming memory budget.

Every campaign fold here is by node range: the batch builder streams
node blocks through one :func:`~repro.core.join.join_campaign`, and the
sharded engine (:mod:`repro.stream.shard`) folds fixed fold units in
worker processes and left-folds their cubes with :func:`merge_cubes`.
:func:`memory_footprint_estimate` is why the fold streams at all.
"""

from __future__ import annotations

from .. import units
from ..errors import JoinError
from ..obs import runtime as _obs
from .join import CampaignCube


def merge_cubes(a: CampaignCube, b: CampaignCube) -> CampaignCube:
    """Merge two partial cubes from the same campaign.

    The merge is non-aliasing: the returned cube owns fresh histogram
    and array state, and neither input is mutated — merging the same
    partials twice (a traced re-run, a retried block) can never
    double-count.
    """
    if a.domains != b.domains or a.classes != b.classes:
        raise JoinError("cannot merge cubes with different axes")
    if a.interval_s != b.interval_s:
        raise JoinError("cannot merge cubes with different cadences")
    with _obs.span("pipeline.merge"):
        histogram = a.histogram.copy()
        histogram.merge(b.histogram)
        domain_histograms = {}
        for name in a.domain_histograms:
            merged = a.domain_histograms[name].copy()
            merged.merge(b.domain_histograms[name])
            domain_histograms[name] = merged
        return CampaignCube(
            domains=list(a.domains),
            classes=list(a.classes),
            energy_j=a.energy_j + b.energy_j,
            gpu_hours=a.gpu_hours + b.gpu_hours,
            histogram=histogram,
            domain_histograms=domain_histograms,
            interval_s=a.interval_s,
            cpu_energy_j=a.cpu_energy_j + b.cpu_energy_j,
        )


def memory_footprint_estimate(
    fleet_nodes: int, days: float, nodes_per_block: int = 16
) -> dict:
    """Bytes needed to materialize vs to stream a campaign.

    The ratio is the point of the streaming design: a full Frontier
    campaign (9408 nodes x 91 days, ~2 x 10^10 GPU samples) would need
    ~150 GB materialized in this row layout but streams through ~270 MB.
    """
    samples_per_node = int(units.days(days) / 15.0)
    bytes_per_row = 8 + 4 + 4 * 4 + 4   # time + node + 4 gpu + cpu
    materialized = fleet_nodes * samples_per_node * bytes_per_row
    streamed = min(fleet_nodes, nodes_per_block) * samples_per_node * (
        bytes_per_row
    )
    return {
        "materialized_bytes": materialized,
        "streamed_bytes": streamed,
        "ratio": materialized / max(streamed, 1),
        "samples": fleet_nodes * samples_per_node * 4,
    }
