"""Streaming weighted histograms and modal peak finding.

Full-scale Frontier telemetry (~4 x 10^10 samples) cannot be materialized;
every Fig 8/9 distribution and every Table IV/V aggregate in this package
is therefore accumulated through :class:`StreamingHistogram`, which holds
O(bins) state and can absorb chunks of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy import signal

from ..errors import TelemetryError


class StreamingHistogram:
    """Fixed-bin histogram that accumulates counts and a weight column.

    ``add(values, weights)`` is the only hot call; everything else reads
    the accumulated state.  Counts track sample populations (GPU-hours);
    weights track an additive quantity per sample (energy).
    """

    def __init__(
        self,
        lo: float = 0.0,
        hi: float = 650.0,
        bin_width: float = 2.0,
    ) -> None:
        if hi <= lo or bin_width <= 0:
            raise TelemetryError("invalid histogram range")
        self.lo = lo
        self.hi = hi
        self.bin_width = bin_width
        self.n_bins = int(np.ceil((hi - lo) / bin_width))
        self.counts = np.zeros(self.n_bins, dtype=np.float64)
        self.weight_sums = np.zeros(self.n_bins, dtype=np.float64)
        self.n_clipped = 0

    @property
    def edges(self) -> np.ndarray:
        return self.lo + np.arange(self.n_bins + 1) * self.bin_width

    @property
    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n_bins) + 0.5) * self.bin_width

    @property
    def total_count(self) -> float:
        return float(self.counts.sum())

    @property
    def total_weight(self) -> float:
        return float(self.weight_sums.sum())

    def bin_index(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(bins, clipped)`` of ``values``, binned in float64.

        ``bins`` is each value's bin, clamped into range; ``clipped``
        flags the values that fell outside it.  The one bin formula of
        :meth:`add`; a caller that folds the same values into several
        histograms computes it once and passes it as ``bins=``.
        """
        scaled = np.subtract(values, self.lo, dtype=np.float64)
        scaled /= self.bin_width
        idx = scaled.astype(np.int64)
        # As unsigned, a negative index is huge: one compare flags both
        # idx < 0 and idx >= n_bins.
        clipped = idx.view(np.uint64) >= self.n_bins
        if clipped.any():
            np.clip(idx, 0, self.n_bins - 1, out=idx)
        return idx, clipped

    def add(
        self,
        values: np.ndarray,
        weights: Optional[np.ndarray] = None,
        *,
        bins: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Accumulate a chunk of samples (out-of-range values clip).

        ``bins`` is :meth:`bin_index` of ``values``, if already known.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        idx, clipped = self.bin_index(values) if bins is None else bins
        self.n_clipped += int(np.count_nonzero(clipped))
        self.counts += np.bincount(idx, minlength=self.n_bins)
        if weights is None:
            self.weight_sums += np.bincount(
                idx, weights=values, minlength=self.n_bins
            )
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape != values.shape:
                raise TelemetryError("weights must match values")
            self.weight_sums += np.bincount(
                idx, weights=weights, minlength=self.n_bins
            )

    def copy(self) -> "StreamingHistogram":
        """An independent clone (own arrays; safe to mutate or merge)."""
        out = StreamingHistogram(self.lo, self.hi, self.bin_width)
        out.counts = self.counts.copy()
        out.weight_sums = self.weight_sums.copy()
        out.n_clipped = self.n_clipped
        return out

    def merge(self, other: "StreamingHistogram") -> None:
        """Absorb another histogram with identical binning."""
        if (
            other.lo != self.lo
            or other.hi != self.hi
            or other.bin_width != self.bin_width
        ):
            raise TelemetryError("cannot merge histograms with unlike bins")
        self.counts += other.counts
        self.weight_sums += other.weight_sums
        self.n_clipped += other.n_clipped

    def density(self) -> np.ndarray:
        """Probability density over bin centers."""
        total = self.total_count
        if total == 0:
            raise TelemetryError("empty histogram has no density")
        return self.counts / (total * self.bin_width)

    def range_fraction(self, lo: float, hi: float) -> float:
        """Fraction of samples with lo <= value < hi (bin-resolution)."""
        mask = (self.centers >= lo) & (self.centers < hi)
        total = self.total_count
        return float(self.counts[mask].sum() / total) if total else 0.0

    def range_weight(self, lo: float, hi: float) -> float:
        """Summed weights for samples with lo <= value < hi."""
        mask = (self.centers >= lo) & (self.centers < hi)
        return float(self.weight_sums[mask].sum())

    def smoothed_density(self, sigma_bins: float = 3.0) -> np.ndarray:
        """Gaussian-smoothed density (the Fig 8/9 curves)."""
        dens = self.density()
        radius = int(np.ceil(4 * sigma_bins))
        x = np.arange(-radius, radius + 1)
        kernel = np.exp(-0.5 * (x / sigma_bins) ** 2)
        kernel /= kernel.sum()
        return np.convolve(dens, kernel, mode="same")


@dataclass(frozen=True)
class PowerMode:
    """One local maximum of the power distribution."""

    power_w: float
    density: float
    prominence: float


def find_power_modes(
    hist: StreamingHistogram,
    *,
    sigma_bins: float = 3.0,
    min_prominence_frac: float = 0.05,
) -> List[PowerMode]:
    """Locate the modes (local maxima) of a power distribution.

    The paper reads these peaks off the Fig 8/9 distributions to identify
    the prevalent zones of operation.
    """
    dens = hist.smoothed_density(sigma_bins=sigma_bins)
    prominence = min_prominence_frac * dens.max()
    peaks, props = signal.find_peaks(dens, prominence=prominence)
    centers = hist.centers
    return [
        PowerMode(
            power_w=float(centers[p]),
            density=float(dens[p]),
            prominence=float(props["prominences"][i]),
        )
        for i, p in enumerate(peaks)
    ]
