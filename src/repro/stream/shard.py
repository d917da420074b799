"""Sharded campaign engine: fleet-scale ingest across worker processes.

The paper's subject is 9,408 nodes observed for three months; a single
process folding one :class:`~repro.stream.engine.StreamEngine` cannot
reach that scale in tolerable wall-clock time.  This module shards the
whole pipeline — telemetry *generation*, event-time reordering, and the
campaign fold — by node range across worker processes, and merges the
shard results into one campaign cube that is **bitwise identical** to
the single-process fold.

Invariance contract
-------------------

Floating-point addition is not associative, so "same cube at any shard
count" has to pin a reduction tree that does not depend on how the work
was distributed.  The canonical fold is defined over fixed-size **fold
units** (``unit_nodes`` consecutive nodes, default 8):

1. every unit renders its nodes' telemetry (per-node RNG substreams via
   :func:`repro.rng.derive_seed`, so the samples are identical whether
   generated in 1 process or 16),
2. the unit's rows replay in event-time order through a private
   :class:`~repro.stream.buffer.ReorderBuffer` into a private
   :class:`~repro.core.join.CampaignAccumulator` (the same fold the
   batch join and the stream engine use), and
3. the driver merges the unit cubes **left-to-right in unit order**
   with :func:`repro.core.pipeline.merge_cubes`.

Shards are contiguous runs of units and workers only decide *where* a
unit cube is computed — never the unit boundaries nor the merge order —
so the campaign cube is invariant to both the shard count and the
worker count, bit for bit.  ``tests/stream/test_shard.py`` asserts this
at shard counts 1/2/4/8, for uneven shards, 1-node shards, and across
checkpoint/resume.

Checkpoints
-----------

With a checkpoint directory, each shard persists its completed unit
states to ``shard_<i>.npz`` every ``checkpoint_every`` units.  A rerun
with ``resume=True`` loads the completed prefix (validated against the
shard plan, the config, and the seeds) and continues with the next
unit; the resumed campaign cube is bitwise identical to an
uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import constants, units
from ..core.join import CampaignAccumulator, CampaignCube
from ..core.pipeline import merge_cubes
from ..durable import load_versioned_npz, save_versioned_npz
from ..errors import TelemetryError
from ..obs import runtime as _obs
from ..parallel import chunked_map, partition
from ..rng import derive_seed
from ..scheduler import SlurmSimulator, default_mix
from ..scheduler.log import SchedulerLog
from ..telemetry import FleetTelemetryGenerator
from .buffer import DEFAULT_WINDOW_S, ReorderBuffer
from .engine import IngestStats, StreamSnapshot, compute_snapshot
from .sources import DEFAULT_CHUNK_TICKS, perturb, replay_store

#: Format version written into every per-shard checkpoint.
SHARD_CHECKPOINT_VERSION = 1

#: Nodes per fold unit.  Part of the invariance contract: the unit
#: grid — not the shard count — fixes the merge tree, so changing this
#: value changes the (float-rounding-level) grouping of the fold.
DEFAULT_UNIT_NODES = 8


@dataclass(frozen=True)
class ShardConfig:
    """Stream/fold parameters shared by every shard of one campaign.

    ``shuffle_s``/``dup_fraction`` re-deliver every unit's stream
    through :func:`repro.stream.sources.perturb` (adversarial arrival
    order / duplicate records).  The perturbation seed derives from the
    *unit* — not the shard — so delivery chaos is part of the invariant
    fold, and duplicates of boundary nodes dedup identically at every
    shard count.  Set ``lateness_s >= shuffle_s`` so nothing is
    dropped as late.
    """

    interval_s: float = constants.TELEMETRY_INTERVAL_S
    window_s: float = DEFAULT_WINDOW_S
    lateness_s: float = 0.0
    chunk_ticks: int = DEFAULT_CHUNK_TICKS
    unit_nodes: int = DEFAULT_UNIT_NODES
    checkpoint_every: int = 1
    shuffle_s: float = 0.0
    dup_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.unit_nodes <= 0:
            raise TelemetryError("unit_nodes must be positive")
        if self.checkpoint_every <= 0:
            raise TelemetryError("checkpoint_every must be positive")

    def to_array(self) -> np.ndarray:
        return np.array(
            [
                self.interval_s,
                self.window_s,
                self.lateness_s,
                float(self.chunk_ticks),
                float(self.unit_nodes),
                self.shuffle_s,
                self.dup_fraction,
            ]
        )


def plan_units(n_nodes: int, unit_nodes: int) -> List[Tuple[int, int]]:
    """The canonical fold-unit grid: fixed-size contiguous node ranges.

    Depends only on the fleet size and the unit size — never on the
    shard or worker count — because the unit grid *is* the reduction
    tree of the campaign merge.
    """
    if n_nodes <= 0:
        raise TelemetryError("fleet must have at least one node")
    if unit_nodes <= 0:
        raise TelemetryError("unit_nodes must be positive")
    return [
        (lo, min(lo + unit_nodes, n_nodes))
        for lo in range(0, n_nodes, unit_nodes)
    ]


def plan_shards(
    n_units: int, n_shards: int
) -> List[Tuple[int, int]]:
    """Assign contiguous unit ranges to shards (balanced, never empty).

    Requesting more shards than units clamps to one unit per shard, so
    a 4-unit fleet sharded 16 ways runs 4 shards — the spare shard
    slots simply do not exist rather than running empty.
    """
    if n_shards <= 0:
        raise TelemetryError("shards must be >= 1")
    return partition(n_units, n_shards)


# -- per-unit fold (runs inside worker processes) ----------------------------------

#: Order of the per-unit ingest counters persisted next to each unit
#: cube (float64 so one array carries counts and the event-time clock).
_COUNTER_FIELDS = (
    "chunks_in",
    "samples_in",
    "duplicates",
    "late_dropped",
    "windows_folded",
    "samples_folded",
    "peak_resident",
    "max_event_time_s",
)


def _fold_unit(
    gen: FleetTelemetryGenerator,
    template: CampaignAccumulator,
    lo: int,
    hi: int,
    cfg: ShardConfig,
) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
    """Generate + reorder + fold one fold unit; return its cube state."""
    buf = ReorderBuffer(
        interval_s=cfg.interval_s,
        window_s=cfg.window_s,
        lateness_s=cfg.lateness_s,
    )
    acc = template.clone_empty()
    store = gen.generate(node_ids=range(lo, hi))
    source = replay_store(store, chunk_ticks=cfg.chunk_ticks)
    if cfg.shuffle_s > 0 or cfg.dup_fraction > 0:
        # Unit-derived seed: delivery chaos is identical at every
        # shard count because the unit grid is.
        source = perturb(
            source,
            seed=derive_seed(gen.seed, "shard-delivery", lo),
            lateness_s=cfg.shuffle_s,
            dup_fraction=cfg.dup_fraction,
        )
    chunks_in = 0
    for chunk in source:
        chunks_in += 1
        for window in buf.push(chunk):
            acc.update(window)
    for window in buf.flush():
        acc.update(window)
    counters = np.array(
        [
            float(chunks_in),
            float(buf.samples_in),
            float(buf.duplicates),
            float(buf.late_dropped),
            float(buf.windows_emitted),
            float(buf.samples_out),
            float(buf.peak_resident),
            buf.max_event_time_s,
        ]
    )
    return acc.state_arrays(), counters


def _save_shard_checkpoint(
    path,
    *,
    units: Sequence[Tuple[int, int]],
    cfg: ShardConfig,
    fleet_nodes: int,
    seed: int,
    states: List[Dict[str, np.ndarray]],
    counters: List[np.ndarray],
) -> None:
    """Persist a shard's completed unit states (crash-safe replace)."""
    arrays: Dict[str, np.ndarray] = {
        "shard_units": np.array(units, dtype=np.int64),
        "shard_config": cfg.to_array(),
        "shard_identity": np.array([fleet_nodes, seed], dtype=np.int64),
        "n_done": np.array([len(states)], dtype=np.int64),
    }
    for j, (state, cnt) in enumerate(zip(states, counters)):
        for key, value in state.items():
            arrays[f"u{j}_{key}"] = value
        arrays[f"u{j}_counters"] = cnt
    save_versioned_npz(path, SHARD_CHECKPOINT_VERSION, arrays)


def _load_shard_checkpoint(
    path,
    *,
    units: Sequence[Tuple[int, int]],
    cfg: ShardConfig,
    fleet_nodes: int,
    seed: int,
) -> Tuple[List[Dict[str, np.ndarray]], List[np.ndarray]]:
    """Load a shard checkpoint, validating it belongs to this plan."""
    arrays = load_versioned_npz(
        path, SHARD_CHECKPOINT_VERSION, "shard checkpoint"
    )
    saved_units = [tuple(int(x) for x in row) for row in arrays["shard_units"]]
    expected = [tuple(int(x) for x in row) for row in np.array(units)]
    if saved_units[: len(expected)] != expected[: len(saved_units)]:
        raise TelemetryError(
            f"shard checkpoint {path} was written for different fold "
            f"units — refusing to resume"
        )
    if not np.array_equal(arrays["shard_config"], cfg.to_array()):
        raise TelemetryError(
            f"shard checkpoint {path} was written with a different "
            f"stream config — refusing to resume"
        )
    if not np.array_equal(
        arrays["shard_identity"],
        np.array([fleet_nodes, seed], dtype=np.int64),
    ):
        raise TelemetryError(
            f"shard checkpoint {path} belongs to a different campaign "
            f"(fleet/seed mismatch) — refusing to resume"
        )
    n_done = min(int(arrays["n_done"][0]), len(expected))
    states: List[Dict[str, np.ndarray]] = []
    counters: List[np.ndarray] = []
    for j in range(n_done):
        prefix = f"u{j}_"
        state = {
            key[len(prefix):]: value
            for key, value in arrays.items()
            if key.startswith(prefix) and key != f"{prefix}counters"
        }
        states.append(state)
        counters.append(np.asarray(arrays[f"{prefix}counters"]))
    return states, counters


def _shard_task(
    log_arrays: dict,
    fleet_nodes: int,
    seed: int,
    units: Sequence[Tuple[int, int]],
    cfg: ShardConfig,
    checkpoint_path: Optional[str],
    resume: bool,
    max_units: Optional[int],
) -> Tuple[List[Dict[str, np.ndarray]], List[np.ndarray]]:
    """One shard: fold its units in order (runs inside a worker process).

    Returns the per-unit accumulator states *unmerged* — the driver owns
    the canonical left-to-right merge over the global unit order, which
    is what makes the campaign cube shard-count invariant.
    """
    log = SchedulerLog.from_arrays(log_arrays)
    mix = default_mix(fleet_nodes=fleet_nodes)
    gen = FleetTelemetryGenerator(
        log, mix, seed=seed, interval_s=cfg.interval_s
    )
    template = CampaignAccumulator(log, interval_s=cfg.interval_s)
    states: List[Dict[str, np.ndarray]] = []
    counters: List[np.ndarray] = []
    if resume and checkpoint_path and Path(checkpoint_path).exists():
        states, counters = _load_shard_checkpoint(
            checkpoint_path,
            units=units,
            cfg=cfg,
            fleet_nodes=fleet_nodes,
            seed=seed,
        )
    start = len(states)
    stop = len(units) if max_units is None else min(len(units), max_units)
    dirty = 0
    for j in range(start, stop):
        lo, hi = units[j]
        with _obs.span("shard.unit", node_lo=lo, node_hi=hi):
            state, cnt = _fold_unit(gen, template, lo, hi, cfg)
        states.append(state)
        counters.append(cnt)
        _obs.counter_inc("shard_units_total")
        dirty += 1
        if checkpoint_path and (
            dirty >= cfg.checkpoint_every or j + 1 == stop
        ):
            _save_shard_checkpoint(
                checkpoint_path,
                units=units,
                cfg=cfg,
                fleet_nodes=fleet_nodes,
                seed=seed,
                states=states,
                counters=counters,
            )
            dirty = 0
    return states, counters


# -- the driver --------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedCampaign:
    """The result of one sharded campaign run."""

    log: SchedulerLog
    cube: CampaignCube
    stats: IngestStats
    shards: int
    workers: int
    n_units: int
    units_done: int
    unit_nodes: int
    complete: bool
    wall_s: float

    @property
    def samples_per_s(self) -> float:
        """End-to-end generate+reorder+fold throughput (GPU samples)."""
        gpu_samples = self.stats.samples_folded * constants.GPUS_PER_NODE
        return gpu_samples / self.wall_s if self.wall_s > 0 else 0.0

    def snapshot(self, **kwargs) -> StreamSnapshot:
        """Table IV/V/VI + fleet advice from the merged cube."""
        return compute_snapshot(self.cube, self.stats, **kwargs)


def _merged_stats(
    counters: List[np.ndarray], *, lateness_s: float, complete: bool
) -> IngestStats:
    """Fleet-wide ingest statistics from the per-unit counter arrays.

    Counts sum across units; ``peak_resident_samples`` is the maximum
    *per-unit* peak (each worker folds one unit's buffer at a time, so
    a worker's residency never exceeds its largest unit's peak).
    """
    stacked = (
        np.stack(counters) if counters else np.zeros((0, len(_COUNTER_FIELDS)))
    )
    total = {
        name: stacked[:, i].sum() if len(stacked) else 0.0
        for i, name in enumerate(_COUNTER_FIELDS)
    }
    max_event = (
        float(stacked[:, 7].max()) if len(stacked) else float("-inf")
    )
    peak = int(stacked[:, 6].max()) if len(stacked) else 0
    sealed = float("inf") if complete else max_event
    return IngestStats(
        chunks_in=int(total["chunks_in"]),
        samples_in=int(total["samples_in"]),
        duplicates=int(total["duplicates"]),
        late_dropped=int(total["late_dropped"]),
        windows_folded=int(total["windows_folded"]),
        samples_folded=int(total["samples_folded"]),
        resident_samples=0,
        peak_resident_samples=peak,
        max_event_time_s=max_event,
        watermark_s=(
            max_event - lateness_s
            if np.isfinite(max_event)
            else float("-inf")
        ),
        sealed_until_s=sealed,
        watermark_lag_s=0.0,
    )


def merge_unit_states(
    log: SchedulerLog,
    states: Sequence[Dict[str, np.ndarray]],
    *,
    interval_s: float = constants.TELEMETRY_INTERVAL_S,
) -> CampaignCube:
    """Left-fold per-unit accumulator states into one campaign cube.

    The states must be in canonical unit order; the fold is the exact
    addition sequence ``((u0 + u1) + u2) + ...``, so any prefix of it is
    also a valid (resumable) partial campaign.
    """
    if not states:
        raise TelemetryError("no unit states to merge")
    loader = CampaignAccumulator(log, interval_s=interval_s)
    cubes: List[CampaignCube] = []
    for state in states:
        loader.load_state_arrays(state)
        cubes.append(loader.cube(copy=False))
    cube = cubes[0]
    for other in cubes[1:]:
        cube = merge_cubes(cube, other)
    return cube


def run_sharded_campaign(
    *,
    fleet_nodes: int = 96,
    days: float = 4.0,
    seed: int = 0,
    shards: int = 1,
    workers: int = 0,
    cfg: Optional[ShardConfig] = None,
    checkpoint_dir=None,
    resume: bool = False,
    max_units_per_shard: Optional[int] = None,
    log: Optional[SchedulerLog] = None,
) -> ShardedCampaign:
    """Run one campaign sharded by node range across worker processes.

    ``shards`` fixes the work partition (contiguous runs of fold
    units); ``workers`` only sets the process-pool width (``<= 1`` runs
    the shards serially in-process).  The merged cube is bitwise
    identical for every ``(shards, workers)`` combination — see the
    module docstring for the contract.

    With ``checkpoint_dir``, each shard persists completed units to
    ``shard_<i>.npz``; ``resume=True`` continues from those files.
    ``max_units_per_shard`` stops every shard after that many units
    (a bounded partial run: the returned campaign has
    ``complete=False`` and folds only the finished units — rerun with
    ``resume=True`` to finish).
    """
    cfg = cfg if cfg is not None else ShardConfig()
    wall0 = time.perf_counter()
    with _obs.span(
        "shard.campaign", fleet_nodes=fleet_nodes, shards=shards,
        workers=workers,
    ):
        if log is None:
            mix = default_mix(fleet_nodes=fleet_nodes)
            with _obs.span("shard.simulate"):
                log = SlurmSimulator(mix).run(units.days(days), rng=seed)
        telemetry_seed = seed + 1000
        log_arrays = log.to_arrays()

        unit_grid = plan_units(log.n_nodes, cfg.unit_nodes)
        shard_ranges = plan_shards(len(unit_grid), shards)
        paths: List[Optional[str]] = [None] * len(shard_ranges)
        if checkpoint_dir is not None:
            ckpt = Path(checkpoint_dir)
            ckpt.mkdir(parents=True, exist_ok=True)
            paths = [
                str(ckpt / f"shard_{i:03d}.npz")
                for i in range(len(shard_ranges))
            ]
        tasks = [
            (
                log_arrays,
                log.n_nodes,
                telemetry_seed,
                unit_grid[lo:hi],
                cfg,
                paths[i],
                resume,
                max_units_per_shard,
            )
            for i, (lo, hi) in enumerate(shard_ranges)
        ]
        outs = chunked_map(_shard_task, tasks, workers=workers)

        states: List[Dict[str, np.ndarray]] = []
        counters: List[np.ndarray] = []
        for shard_states, shard_counters in outs:
            states.extend(shard_states)
            counters.extend(shard_counters)
        complete = len(states) == len(unit_grid)
        with _obs.span("shard.merge", n_units=len(states)):
            cube = merge_unit_states(
                log, states, interval_s=cfg.interval_s
            )
    wall_s = time.perf_counter() - wall0
    return ShardedCampaign(
        log=log,
        cube=cube,
        stats=_merged_stats(
            counters, lateness_s=cfg.lateness_s, complete=complete
        ),
        shards=len(shard_ranges),
        workers=workers,
        n_units=len(unit_grid),
        units_done=len(states),
        unit_nodes=cfg.unit_nodes,
        complete=complete,
        wall_s=wall_s,
    )
