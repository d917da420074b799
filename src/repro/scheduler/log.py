"""Scheduler log tables (Table II rows b and c).

:class:`SchedulerLog` holds the per-job table and the per-node-per-job
allocation table and offers the lookups the telemetry join needs:
which job (if any) ran on a node at a given time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ScheduleError
from .jobs import Job


@dataclass(frozen=True)
class NodeAllocation:
    """One node's participation in one job (per-node scheduler data)."""

    node_id: int
    job_id: int
    start_time_s: float
    end_time_s: float

    def __post_init__(self) -> None:
        if self.start_time_s >= self.end_time_s:
            raise ScheduleError(
                f"allocation on node {self.node_id}: empty interval"
            )


@dataclass(frozen=True)
class SchedulerLog:
    """The full scheduler output for one simulated campaign."""

    jobs: List[Job]
    allocations: List[NodeAllocation]
    n_nodes: int
    horizon_s: float

    def job_by_id(self) -> Dict[int, Job]:
        return {j.job_id: j for j in self.jobs}

    def allocations_for_node(self, node_id: int) -> List[NodeAllocation]:
        """Allocations of one node, sorted by start time."""
        out = [a for a in self.allocations if a.node_id == node_id]
        out.sort(key=lambda a: a.start_time_s)
        return out

    def allocations_by_node(self) -> List[List[NodeAllocation]]:
        """:meth:`allocations_for_node` of every node, in one pass."""
        out: List[List[NodeAllocation]] = [[] for _ in range(self.n_nodes)]
        for a in self.allocations:
            out[a.node_id].append(a)
        for allocs in out:
            allocs.sort(key=lambda a: a.start_time_s)
        return out

    def utilization(self) -> float:
        """Realized node-seconds allocated / available."""
        busy = sum(
            a.end_time_s - a.start_time_s for a in self.allocations
        )
        return busy / (self.n_nodes * self.horizon_s)

    def validate_no_overlap(self) -> None:
        """Assert no node runs two jobs at once (scheduler invariant)."""
        per_node: Dict[int, List[NodeAllocation]] = {}
        for a in self.allocations:
            per_node.setdefault(a.node_id, []).append(a)
        for node_id, allocs in per_node.items():
            allocs.sort(key=lambda a: a.start_time_s)
            for prev, nxt in zip(allocs, allocs[1:]):
                if nxt.start_time_s < prev.end_time_s - 1e-9:
                    raise ScheduleError(
                        f"node {node_id}: jobs {prev.job_id} and "
                        f"{nxt.job_id} overlap"
                    )

    def job_id_grid(self, times_s: np.ndarray, node_id: int) -> np.ndarray:
        """Job id active on ``node_id`` at each time (0 = idle).

        Vectorized interval lookup used by both the telemetry generator
        and the join.
        """
        times_s = np.asarray(times_s)
        allocs = self.allocations_for_node(node_id)
        out = np.zeros(len(times_s), dtype=np.int64)
        if not allocs:
            return out
        starts = np.array([a.start_time_s for a in allocs])
        ends = np.array([a.end_time_s for a in allocs])
        ids = np.array([a.job_id for a in allocs])
        idx = np.searchsorted(starts, times_s, side="right") - 1
        valid = (idx >= 0) & (times_s < ends[np.clip(idx, 0, None)])
        out[valid] = ids[idx[valid]]
        return out

    @cached_property
    def _sorted_alloc_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Allocation columns sorted by ``(node, start)``, built once.

        The log is frozen after a run, but :meth:`job_id_table` runs per
        chunk in the join (:attr:`repro.core.join.DerivedWindow.job_ids`)
        — rebuilding these arrays from the Python allocation list each
        call dominated its cost.
        """
        a_node = np.array([a.node_id for a in self.allocations], dtype=np.int64)
        a_start = np.array([a.start_time_s for a in self.allocations])
        a_end = np.array([a.end_time_s for a in self.allocations])
        a_jid = np.array([a.job_id for a in self.allocations], dtype=np.int64)
        order = np.lexsort((a_start, a_node))
        return (
            a_node[order], a_start[order], a_end[order], a_jid[order]
        )

    def job_id_table(
        self, times_s: np.ndarray, node_ids: np.ndarray
    ) -> np.ndarray:
        """Job id active at each ``(time, node)`` pair (0 = idle).

        The whole-table analogue of :meth:`job_id_grid`: one composite-key
        ``searchsorted`` over allocations sorted by ``(node, start)``
        labels every row of a telemetry chunk at once, replacing the
        per-node lookup loop in the join.  Matches
        ``[job_id_grid(t, n) ...]`` exactly.
        """
        times_s = np.asarray(times_s, dtype=np.float64)
        node_ids = np.asarray(node_ids, dtype=np.int64)
        out = np.zeros(len(times_s), dtype=np.int64)
        if not self.allocations or not len(times_s):
            return out
        a_node, a_start, a_end, a_jid = self._sorted_alloc_arrays

        # Composite key: node major, start/time minor.  K exceeds every
        # time coordinate so keys from different nodes never interleave.
        k = float(max(self.horizon_s, a_end.max(), times_s.max())) + 1.0
        key_alloc = a_node * k + a_start
        key_row = node_ids * k + times_s
        idx = np.searchsorted(key_alloc, key_row, side="right") - 1
        # Float rounding of the composite sum can tie a time just below a
        # start with that start's key; step back one allocation there so
        # the raw-coordinate window test below sees the right candidate.
        over = (idx >= 0) & (a_node[idx] == node_ids) & (
            times_s < a_start[idx]
        )
        idx = np.where(over, idx - 1, idx)
        valid = (
            (idx >= 0)
            & (a_node[idx] == node_ids)
            & (times_s >= a_start[idx])
            & (times_s < a_end[idx])
        )
        out[valid] = a_jid[idx[valid]]
        return out

    # -- persistence -------------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar form for npz persistence."""
        return {
            "job_id": np.array([j.job_id for j in self.jobs]),
            "project_id": np.array([j.project_id for j in self.jobs]),
            "domain": np.array([j.domain for j in self.jobs]),
            "num_nodes": np.array([j.num_nodes for j in self.jobs]),
            "submit": np.array([j.submit_time_s for j in self.jobs]),
            "start": np.array([j.start_time_s for j in self.jobs]),
            "end": np.array([j.end_time_s for j in self.jobs]),
            "size_class": np.array([j.size_class for j in self.jobs]),
            "alloc_node": np.array([a.node_id for a in self.allocations]),
            "alloc_job": np.array([a.job_id for a in self.allocations]),
            "alloc_start": np.array(
                [a.start_time_s for a in self.allocations]
            ),
            "alloc_end": np.array([a.end_time_s for a in self.allocations]),
            "meta": np.array([self.n_nodes, self.horizon_s]),
        }

    @staticmethod
    def from_arrays(arrays: Dict[str, np.ndarray]) -> "SchedulerLog":
        """Inverse of :meth:`to_arrays`."""
        jobs = [
            Job(
                job_id=int(arrays["job_id"][i]),
                project_id=str(arrays["project_id"][i]),
                domain=str(arrays["domain"][i]),
                num_nodes=int(arrays["num_nodes"][i]),
                submit_time_s=float(arrays["submit"][i]),
                start_time_s=float(arrays["start"][i]),
                end_time_s=float(arrays["end"][i]),
                size_class=str(arrays["size_class"][i]),
            )
            for i in range(len(arrays["job_id"]))
        ]
        allocations = [
            NodeAllocation(
                node_id=int(arrays["alloc_node"][i]),
                job_id=int(arrays["alloc_job"][i]),
                start_time_s=float(arrays["alloc_start"][i]),
                end_time_s=float(arrays["alloc_end"][i]),
            )
            for i in range(len(arrays["alloc_node"]))
        ]
        n_nodes, horizon = arrays["meta"]
        return SchedulerLog(
            jobs=jobs,
            allocations=allocations,
            n_nodes=int(n_nodes),
            horizon_s=float(horizon),
        )

    def save(self, path) -> None:
        np.savez_compressed(path, **self.to_arrays())

    @staticmethod
    def load(path) -> "SchedulerLog":
        with np.load(path, allow_pickle=False) as data:
            return SchedulerLog.from_arrays(dict(data))
