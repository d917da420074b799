"""Columnar telemetry store.

Wraps one (possibly very large) :class:`TelemetryChunk` with the query
operations the analysis layer needs — time/node filtering, flattened
per-GPU views, energy integration — plus persistence as a single
compressed ``.npz`` archive (:meth:`TelemetryStore.save`/:meth:`load`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .. import constants, units
from ..errors import TelemetryError
from .schema import TelemetryChunk


class TelemetryStore:
    """Materialized telemetry with vectorized query helpers."""

    def __init__(
        self,
        chunk: TelemetryChunk,
        *,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise TelemetryError("interval must be positive")
        self.chunk = chunk
        self.interval_s = interval_s

    def __len__(self) -> int:
        return len(self.chunk)

    # -- views ---------------------------------------------------------------------

    @property
    def gpu_power_flat(self) -> np.ndarray:
        """All GPU power samples as one 1-D array (the Fig 8 population)."""
        return self.chunk.gpu_power_w.reshape(-1)

    @property
    def nodes(self) -> np.ndarray:
        return np.unique(self.chunk.node_id)

    def filter_time(self, t0_s: float, t1_s: float) -> "TelemetryStore":
        """Samples with t0 <= time < t1 (zero-width ranges are legal)."""
        if t1_s < t0_s:
            raise TelemetryError(
                f"negative time range [{t0_s}, {t1_s})"
            )
        mask = (self.chunk.time_s >= t0_s) & (self.chunk.time_s < t1_s)
        return self._masked(mask)

    def filter_nodes(self, node_ids: Iterable[int]) -> "TelemetryStore":
        mask = np.isin(self.chunk.node_id, np.fromiter(node_ids, dtype=np.int64))
        return self._masked(mask)

    def _masked(self, mask: np.ndarray) -> "TelemetryStore":
        c = self.chunk
        return TelemetryStore(
            TelemetryChunk(
                time_s=c.time_s[mask],
                node_id=c.node_id[mask],
                gpu_power_w=c.gpu_power_w[mask],
                cpu_power_w=c.cpu_power_w[mask],
            ),
            interval_s=self.interval_s,
        )

    # -- aggregates ------------------------------------------------------------------

    @property
    def gpu_hours(self) -> float:
        return len(self) * constants.GPUS_PER_NODE * self.interval_s / 3600.0

    def gpu_energy_j(self) -> float:
        """Total GPU energy represented by the samples."""
        return float(self.chunk.gpu_power_w.sum(dtype=np.float64)) * self.interval_s

    def gpu_energy_mwh(self) -> float:
        return units.to_mwh(self.gpu_energy_j())

    def cpu_energy_j(self) -> float:
        return float(self.chunk.cpu_power_w.sum(dtype=np.float64)) * self.interval_s

    def mean_gpu_power_w(self) -> float:
        return float(self.gpu_power_flat.mean())

    # -- persistence -------------------------------------------------------------------

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            time_s=self.chunk.time_s,
            node_id=self.chunk.node_id,
            gpu_power_w=self.chunk.gpu_power_w,
            cpu_power_w=self.chunk.cpu_power_w,
            interval_s=np.array([self.interval_s]),
        )

    @staticmethod
    def load(path) -> "TelemetryStore":
        """Open a store saved by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            chunk = TelemetryChunk(
                time_s=data["time_s"],
                node_id=data["node_id"],
                gpu_power_w=data["gpu_power_w"],
                cpu_power_w=data["cpu_power_w"],
            )
            return TelemetryStore(chunk, interval_s=float(data["interval_s"][0]))
