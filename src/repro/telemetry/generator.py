"""Fleet telemetry generation.

Renders a scheduler log into out-of-band power telemetry: for every node
and every 15-second sample, the four GPU module powers (driven by the
running job's domain profile, or idle power when unallocated) and the CPU
package power.

Phase dwell times (minutes) are long against the 15 s cadence, so the
generator samples profiles directly at the aggregated cadence and scales
the sensor noise by ``1/sqrt(samples per window)`` — numerically identical
to generating 2 s raw data and mean-aggregating it, at 7.5x less work.
The raw-cadence path still exists (:mod:`repro.telemetry.sampler`) and is
exercised by the Fig 2(a) comparison.

Generation is deterministic per (job, node): every stream gets its own
seed derived from ids, so chunked, parallel, and serial generation all
produce identical data (the mpi4py rank-decomposition idiom).

The time-major replay (:meth:`FleetTelemetryGenerator.time_chunks`)
renders whole chunks a block at a time, within a fixed row budget (one
chunk when a chunk alone is larger), so its memory is bounded by one
block and the allocations live in it, not by the horizon.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .. import constants
from ..errors import TelemetryError
from ..gpu.specs import NodeSpec
from ..obs import runtime as _obs
from ..parallel import partition
from ..rng import substream
from ..scheduler.log import SchedulerLog
from ..scheduler.workload import WorkloadMix
from .profiles import PROFILES, PowerProfile
from .schema import TelemetryChunk
from .store import TelemetryStore

#: Raw sensor samples folded into one aggregated record (15 s / 2 s).
_SAMPLES_PER_WINDOW = (
    constants.TELEMETRY_INTERVAL_S / constants.SENSOR_INTERVAL_S
)

#: Idle-noise ticks drawn per node at a time by :class:`_Renderer`.
_IDLE_BLOCK_TICKS = 1024

#: Row budget of one :meth:`FleetTelemetryGenerator.time_chunks` render
#: (whole chunks; one chunk when a chunk alone is larger).
_BLOCK_ROWS = 16384


class FleetTelemetryGenerator:
    """Generate telemetry for a scheduled campaign."""

    def __init__(
        self,
        log: SchedulerLog,
        mix: WorkloadMix,
        *,
        node_spec: Optional[NodeSpec] = None,
        seed: int = 0,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise TelemetryError("interval must be positive")
        self.log = log
        self.node_spec = node_spec if node_spec is not None else NodeSpec()
        self.seed = seed
        self.interval_s = interval_s
        self._jobs = log.job_by_id()
        self._node_allocs = log.allocations_by_node()
        domains = mix.by_name()
        self._profiles: Dict[str, PowerProfile] = {}
        for job in log.jobs:
            if job.domain not in self._profiles:
                domain = domains.get(job.domain)
                if domain is None:
                    raise TelemetryError(
                        f"job {job.job_id} references unknown domain "
                        f"{job.domain!r}"
                    )
                if domain.profile not in PROFILES:
                    raise TelemetryError(
                        f"domain {domain.name} references unknown profile "
                        f"{domain.profile!r}"
                    )
                self._profiles[job.domain] = PROFILES[domain.profile]

    # -- per-node rendering --------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.log.horizon_s / self.interval_s))

    def _sample_times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.interval_s

    def node_chunk(self, node_id: int) -> TelemetryChunk:
        """Render the full-horizon telemetry of one node."""
        n = self.n_samples
        gpu, cpu = _Renderer(self, [node_id]).render(0, n)
        return TelemetryChunk(
            time_s=self._sample_times(),
            node_id=np.full(n, node_id, dtype=np.int32),
            gpu_power_w=gpu.reshape(n, constants.GPUS_PER_NODE),
            cpu_power_w=cpu.reshape(n),
        )

    def time_chunks(self, chunk_ticks: int) -> Iterator[TelemetryChunk]:
        """Yield the fleet time-major, ``chunk_ticks`` ticks per chunk.

        Rows come in ``(time, node)`` order and equal :meth:`generate`'s
        bitwise.  Each allocation is rendered once, when its first tick
        comes up, and dropped after its last.  Whole chunks are rendered
        and validated a block at a time, as many as fit in
        :data:`_BLOCK_ROWS` rows (at least one), and yielded as read-only
        row slices of that block: memory is bounded by one block and the
        allocations live in it, not by the horizon.
        """
        if chunk_ticks <= 0:
            raise TelemetryError("chunk_ticks must be positive")
        n = self.n_samples
        n_nodes = self.log.n_nodes
        renderer = _Renderer(self, range(n_nodes))
        times = self._sample_times()
        chunk_rows = chunk_ticks * n_nodes
        block_ticks = chunk_ticks * max(1, _BLOCK_ROWS // chunk_rows)
        # One read-only node column, sliced by every block.
        node_col = np.tile(
            np.arange(n_nodes, dtype=np.int32), min(block_ticks, n)
        )
        node_col.flags.writeable = False
        for t_lo in range(0, n, block_ticks):
            t_hi = min(t_lo + block_ticks, n)
            gpu, cpu = renderer.render(t_lo, t_hi)
            rows = (t_hi - t_lo) * n_nodes
            block = TelemetryChunk(
                time_s=np.repeat(times[t_lo:t_hi], n_nodes),
                node_id=node_col[:rows],
                gpu_power_w=gpu.reshape(rows, constants.GPUS_PER_NODE),
                cpu_power_w=cpu.reshape(rows),
            )
            cols = (
                block.time_s, block.node_id, block.gpu_power_w,
                block.cpu_power_w,
            )
            for col in cols:
                col.flags.writeable = False
            for lo in range(0, rows, chunk_rows):
                yield TelemetryChunk.from_validated(
                    *(col[lo : lo + chunk_rows] for col in cols)
                )

    # -- fleet-scale iteration -------------------------------------------------------

    def chunks(
        self, *, nodes_per_chunk: int = 16
    ) -> Iterator[TelemetryChunk]:
        """Yield telemetry in node blocks (streaming mode).

        Memory is bounded by one block regardless of fleet size, which is
        how full-scale (9408-node) statistics are accumulated without
        materializing the campaign.
        """
        if nodes_per_chunk <= 0:
            raise TelemetryError("nodes_per_chunk must be positive")
        for lo, hi in partition(
            self.log.n_nodes,
            max(1, -(-self.log.n_nodes // nodes_per_chunk)),
        ):
            yield TelemetryChunk.concatenate(
                [self.node_chunk(nid) for nid in range(lo, hi)]
            )

    def generate(
        self, node_ids: Optional[Sequence[int]] = None
    ) -> TelemetryStore:
        """Materialize telemetry for selected nodes (default: all)."""
        ids: List[int] = (
            list(node_ids)
            if node_ids is not None
            else list(range(self.log.n_nodes))
        )
        chunk = TelemetryChunk.concatenate(
            [self.node_chunk(nid) for nid in ids]
        )
        return TelemetryStore(chunk, interval_s=self.interval_s)


class _Renderer:
    """Render a set of nodes over consecutive tick ranges, time-major.

    Every random stream is drawn exactly as one full-horizon render of
    each node draws it, so any split of ``[0, n_samples)`` into
    consecutive ranges yields the same samples bitwise:

    * a node's idle noise is the next rows of one persistent
      ``substream(seed, "idle", node)`` — ``Generator.normal`` consumes
      its bit stream element by element, so consecutive draws continue
      the single full-horizon draw (pulled in blocks of
      :data:`_IDLE_BLOCK_TICKS` to amortize the per-call cost);
    * an allocation's trace comes from its own
      ``substream(seed, "job", id, "node", id)`` and is rendered whole
      the first time a range reaches it, then held until its last tick;
    * within a range, live allocations are written in each node's
      start-time order, so a later allocation still overwrites an
      earlier one on a shared tick.
    """

    def __init__(
        self, gen: FleetTelemetryGenerator, node_ids: Sequence[int]
    ) -> None:
        self._gen = gen
        self._n = gen.n_samples
        self._noise = gen.node_spec.gpu.sensor_noise_w / np.sqrt(
            _SAMPLES_PER_WINDOW
        )
        # Per-node substream: the same (seed, node) path yields the
        # same samples in any process, which is what keeps sharded
        # generation bitwise identical to single-process generation.
        self._node_ids = list(node_ids)
        self._idle_rngs = [
            substream(gen.seed, "idle", nid) for nid in self._node_ids
        ]
        self._idle = np.empty((0, len(self._node_ids), constants.GPUS_PER_NODE))
        self._idle_lo = 0
        # Allocations with at least one tick, in the order their first
        # tick comes up; the stable sort keeps each node's start-time
        # order on ties.
        interval = gen.interval_s
        pending = []
        for j, nid in enumerate(self._node_ids):
            for alloc in gen._node_allocs[nid]:
                lo = int(np.ceil(alloc.start_time_s / interval))
                hi = min(int(np.ceil(alloc.end_time_s / interval)), self._n)
                if hi > lo:
                    pending.append((lo, j, hi, alloc))
        pending.sort(key=lambda p: p[0])
        self._pending = pending
        self._next = 0
        #: (lo, hi, column, float32 GPU trace (hi - lo, 4), CPU load) per
        #: live allocation.
        self._live: List[tuple] = []

    def _idle_rows(self, t_lo: int, t_hi: int) -> np.ndarray:
        """Idle GPU power of ticks ``[t_lo, t_hi)``, ``(ticks, nodes, 4)``."""
        have = self._idle_lo + len(self._idle)
        if t_hi > have:
            stop = min(self._n, max(t_hi, have + _IDLE_BLOCK_TICKS))
            fresh = np.empty((stop - have,) + self._idle.shape[1:])
            idle_w = self._gen.node_spec.gpu.idle_w
            for j, rng in enumerate(self._idle_rngs):
                noise = rng.normal(
                    0.0, self._noise, size=(stop - have, constants.GPUS_PER_NODE)
                )
                np.add(noise, idle_w, out=fresh[:, j])
            kept = self._idle[t_lo - self._idle_lo :]
            self._idle = np.concatenate([kept, fresh]) if len(kept) else fresh
            self._idle_lo = t_lo
        return self._idle[t_lo - self._idle_lo : t_hi - self._idle_lo]

    def _activate(self, lo: int, j: int, hi: int, alloc) -> tuple:
        gen = self._gen
        node_id = self._node_ids[j]
        profile = gen._profiles[gen._jobs[alloc.job_id].domain]
        rng = substream(gen.seed, "job", alloc.job_id, "node", node_id)
        trace = profile.sample_trace(
            hi - lo,
            gen.interval_s,
            rng=rng,
            n_streams=constants.GPUS_PER_NODE,
        )
        trace += rng.normal(0.0, self._noise, size=trace.shape)
        np.maximum(trace, 0.0, out=trace)
        # Cast once, here: every chunk's write is then a same-dtype copy
        # of contiguous rows, and each sample rounds exactly as before.
        trace32 = np.ascontiguousarray(trace.T, dtype=np.float32)
        return lo, hi, j, trace32, rng.uniform(0.2, 0.55)

    def render(self, t_lo: int, t_hi: int):
        """``(gpu, cpu)`` float32 power of ticks ``[t_lo, t_hi)``.

        ``gpu`` is ``(ticks, nodes, 4)`` and ``cpu`` is
        ``(ticks, nodes)``.  Call with consecutive ranges from 0.
        """
        with _obs.span(
            "telemetry.render", nodes=len(self._node_ids), ticks=t_hi - t_lo
        ):
            gpu = self._idle_rows(t_lo, t_hi).astype(np.float32)
            cpu_load = np.full(gpu.shape[:2], 0.05)
            first = self._next
            pending = self._pending
            while self._next < len(pending) and pending[self._next][0] < t_hi:
                self._next += 1
            # Render new allocations one at a time, so one that ends in
            # this range is freed before the next is rendered.
            started = (self._activate(*p) for p in pending[first : self._next])
            live = []
            for entry in itertools.chain(self._live, started):
                lo, hi, j, trace, load = entry
                a, b = max(lo, t_lo), min(hi, t_hi)
                gpu[a - t_lo : b - t_lo, j] = trace[a - lo : b - lo]
                cpu_load[a - t_lo : b - t_lo, j] = load
                if hi > t_hi:
                    live.append(entry)
            self._live = live
            spec = self._gen.node_spec
            cpu = spec.cpu_idle_w + (spec.cpu_max_w - spec.cpu_idle_w) * cpu_load
            return gpu, cpu.astype(np.float32)
