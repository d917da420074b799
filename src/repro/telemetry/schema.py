"""Telemetry sample schema.

The out-of-band pipeline produces per-node records at the aggregated
15-second cadence: a timestamp, the node id, the four GPU module powers,
and the CPU package power.  Chunks are columnar (struct-of-arrays) so the
whole pipeline stays vectorized; :class:`TelemetryChunk` is the unit the
generator yields and the store concatenates.

Deliberately absent: job ids, project ids, user ids — telemetry alone
"lacks metadata information on workloads" (paper Section III-A); the join
in :mod:`repro.core.join` reconstructs it from the scheduler log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .. import constants
from ..errors import TelemetryError

#: Field registry: name -> (dtype, description).
FIELDS: Dict[str, tuple] = {
    "time_s": (np.float64, "sample timestamp, seconds since campaign start"),
    "node_id": (np.int32, "compute node index"),
    "gpu_power_w": (np.float32, "per-GPU module power, shape (n, 4)"),
    "cpu_power_w": (np.float32, "CPU package power"),
}


@dataclass(frozen=True)
class TelemetryChunk:
    """A columnar block of aggregated telemetry samples."""

    time_s: np.ndarray       # (n,)
    node_id: np.ndarray      # (n,)
    gpu_power_w: np.ndarray  # (n, gpus_per_node)
    cpu_power_w: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        n = len(self.time_s)
        if len(self.node_id) != n or len(self.cpu_power_w) != n:
            raise TelemetryError("chunk columns must have equal length")
        if self.gpu_power_w.shape != (n, constants.GPUS_PER_NODE):
            raise TelemetryError(
                f"gpu_power_w must be (n, {constants.GPUS_PER_NODE}), "
                f"got {self.gpu_power_w.shape}"
            )
        if n:
            if not np.isfinite(self.gpu_power_w).all():
                raise TelemetryError("non-finite GPU power sample")
            if (self.gpu_power_w < 0).any():
                raise TelemetryError("negative GPU power sample")
            if not np.isfinite(self.cpu_power_w).all():
                raise TelemetryError("non-finite CPU power sample")
            if (self.cpu_power_w < 0).any():
                raise TelemetryError("negative CPU power sample")
            if not np.isfinite(self.time_s).all():
                raise TelemetryError("non-finite timestamp")
            # An id beyond the fleet is legal: the join books it as idle.
            if (self.node_id < 0).any():
                raise TelemetryError("negative node id")

    @classmethod
    def from_validated(
        cls,
        time_s: np.ndarray,
        node_id: np.ndarray,
        gpu_power_w: np.ndarray,
        cpu_power_w: np.ndarray,
    ) -> "TelemetryChunk":
        """A chunk over columns already checked by an earlier chunk.

        Skips the shape and finiteness checks: the caller vouches that
        the columns are (row subsets of) validated chunk columns.  The
        columns are shared, not copied.
        """
        chunk = object.__new__(cls)
        chunk.__dict__.update(
            time_s=time_s,
            node_id=node_id,
            gpu_power_w=gpu_power_w,
            cpu_power_w=cpu_power_w,
        )
        return chunk

    def __len__(self) -> int:
        return len(self.time_s)

    @property
    def node_power_w(self) -> np.ndarray:
        """Approximate node input power (GPUs + CPU)."""
        return self.gpu_power_w.sum(axis=1) + self.cpu_power_w

    @property
    def gpu_hours(self) -> float:
        """GPU-hours covered by this chunk."""
        return (
            len(self)
            * constants.GPUS_PER_NODE
            * constants.TELEMETRY_INTERVAL_S
            / 3600.0
        )

    @staticmethod
    def concatenate(chunks) -> "TelemetryChunk":
        chunks = list(chunks)
        if not chunks:
            raise TelemetryError("cannot concatenate zero chunks")
        return TelemetryChunk(
            time_s=np.concatenate([c.time_s for c in chunks]),
            node_id=np.concatenate([c.node_id for c in chunks]),
            gpu_power_w=np.concatenate([c.gpu_power_w for c in chunks]),
            cpu_power_w=np.concatenate([c.cpu_power_w for c in chunks]),
        )
