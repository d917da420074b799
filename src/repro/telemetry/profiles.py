"""Per-domain modal GPU power profiles.

Each science domain's applications dwell in a small set of operating
modes (Fig 9): a profile is a semi-Markov mixture of phases, each with a
mean module power, a sample-to-sample spread, a stationary weight, and a
mean dwell time.  Phase means are anchored to the benchmark
characterization of Section IV: latency-bound phases sit below 200 W,
memory-intensive phases in 200-420 W, compute-intensive phases in
420-560 W, and boost excursions just above 560 W (Table IV regions).

The stationary weights, combined with the workload mix shares in
:mod:`repro.scheduler.workload`, are calibrated so the fleet-wide
GPU-hour distribution reproduces Table IV (29.8 / 49.5 / 19.5 / 1.1 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

import numpy as np

from ..errors import TelemetryError
from ..rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ProfilePhase:
    """One operating mode of an application profile."""

    mean_w: float
    std_w: float
    weight: float
    dwell_mean_s: float = 900.0

    def __post_init__(self) -> None:
        if self.mean_w <= 0 or self.std_w < 0:
            raise TelemetryError("phase power must be positive")
        if self.weight <= 0:
            raise TelemetryError("phase weight must be positive")
        if self.dwell_mean_s <= 0:
            raise TelemetryError("phase dwell must be positive")


@dataclass(frozen=True)
class PowerProfile:
    """A named mixture of phases."""

    name: str
    phases: Tuple[ProfilePhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise TelemetryError(f"profile {self.name} has no phases")

    @property
    def weights(self) -> np.ndarray:
        w = np.array([p.weight for p in self.phases])
        return w / w.sum()

    @property
    def mean_power_w(self) -> float:
        """Stationary mean power of the profile."""
        means = np.array([p.mean_w for p in self.phases])
        return float(np.dot(self.weights, means))

    @cached_property
    def _walk(self) -> tuple:
        """``(cdf, mean_dwell, dwell_means, means, stds)`` of the walk.

        ``weight`` is the stationary *time* share; with unequal dwell
        times the draw frequency must be weight / dwell (a short-dwell
        phase needs more visits to hold the same time share).  ``cdf``
        is that draw distribution's CDF, computed as
        ``Generator.choice(p=draw_p)`` computes it.
        """
        dwell_means = np.array([p.dwell_mean_s for p in self.phases])
        draw_p = self.weights / dwell_means
        draw_p = draw_p / draw_p.sum()
        mean_dwell = float(np.dot(draw_p, dwell_means))
        cdf = draw_p.cumsum()
        cdf /= cdf[-1]
        means = np.array([p.mean_w for p in self.phases])
        stds = np.array([p.std_w for p in self.phases])
        return cdf, mean_dwell, dwell_means, means, stds

    def sample_trace(
        self,
        n_samples: int,
        interval_s: float,
        rng: RngLike = None,
        n_streams: int = 1,
    ) -> np.ndarray:
        """Generate ``(n_streams, n_samples)`` of per-interval power.

        Each stream is an independent semi-Markov phase walk: phase
        indices are drawn by stationary weight, dwell times are
        exponential, and samples take the active phase's mean plus
        Gaussian spread.  Fully vectorized: the per-segment mean and
        spread are expanded by run length (:func:`dwell_runs`).
        """
        if n_samples <= 0 or n_streams <= 0:
            raise TelemetryError("need positive n_samples and n_streams")
        gen = ensure_rng(rng)
        cdf, mean_dwell, dwell_means, means, stds = self._walk
        total_t = n_samples * interval_s
        # Enough dwell draws to cover the horizon with margin.
        n_draws = max(4, int(np.ceil(total_t / mean_dwell * 2.5)) + 8)
        # ``choice(p=)`` and ``exponential(scale)`` take these very steps
        # on the same bit stream, after argument checks that cost more
        # than the draws at this size.
        shape = (n_streams, n_draws)
        phase_idx = cdf.searchsorted(gen.random(shape), side="right")
        dwells = dwell_means[phase_idx] * gen.standard_exponential(shape)
        edges = np.cumsum(dwells, axis=1)
        # Guarantee coverage of the full horizon.
        edges[:, -1] = np.maximum(edges[:, -1], total_t + interval_s)

        t = (np.arange(n_samples) + 0.5) * interval_s
        runs = dwell_runs(edges, t).reshape(-1)
        active = phase_idx.reshape(-1)
        out = gen.normal(0.0, 1.0, size=(n_streams, n_samples))
        out *= np.repeat(stds[active], runs).reshape(out.shape)
        out += np.repeat(means[active], runs).reshape(out.shape)
        return np.maximum(out, 0.0, out=out)


def dwell_runs(edges: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ticks spent in each dwell segment, shaped like ``edges``.

    ``edges`` holds each stream's (row's) ascending segment end times,
    the last one past ``t[-1]``; ``t`` holds the ascending tick times.
    Tick ``i`` lies in segment ``#{k : edges[k] <= t[i]}``, which is
    ``#{k : below[k] <= i}`` with ``below[k]`` the number of ticks
    before ``edges[k]``.  So segment ``k`` covers ticks
    ``below[k-1] <= i < below[k]``, and each row sums to ``len(t)``:
    one search per edge instead of one per tick.
    """
    runs = np.searchsorted(t, edges, side="left")
    runs[:, 1:] -= runs[:, :-1].copy()
    return runs


def _profile(name: str, *rows: Tuple[float, float, float, float]) -> PowerProfile:
    return PowerProfile(
        name=name,
        phases=tuple(ProfilePhase(m, s, w, d) for (m, s, w, d) in rows),
    )


#: The profile library.  Rows are (mean W, std W, weight, dwell s).
PROFILES: Dict[str, PowerProfile] = {
    p.name: p
    for p in [
        # Fig 9 (a)-(b): compute-intensive domains, near-roofline power
        # with short boost excursions.
        _profile(
            "compute_heavy",
            (130.0, 12.0, 0.07, 500.0),
            (340.0, 20.0, 0.25, 700.0),
            (505.0, 18.0, 0.50, 1600.0),
            (540.0, 10.0, 0.135, 900.0),
            (572.0, 6.0, 0.045, 180.0),
        ),
        _profile(
            "compute_heavy_alt",
            (150.0, 15.0, 0.08, 500.0),
            (360.0, 25.0, 0.28, 800.0),
            (470.0, 15.0, 0.38, 1600.0),
            (525.0, 12.0, 0.23, 1000.0),
            (566.0, 5.0, 0.03, 180.0),
        ),
        # Fig 9 (c)-(d): latency / network / IO bound domains.
        _profile(
            "latency_bound",
            (105.0, 6.0, 0.32, 1200.0),
            (135.0, 10.0, 0.30, 900.0),
            (175.0, 12.0, 0.14, 700.0),
            (265.0, 20.0, 0.22, 500.0),
            (430.0, 20.0, 0.02, 300.0),
        ),
        _profile(
            "latency_bound_alt",
            (98.0, 5.0, 0.24, 1200.0),
            (150.0, 10.0, 0.34, 900.0),
            (190.0, 12.0, 0.12, 700.0),
            (300.0, 25.0, 0.28, 500.0),
            (440.0, 20.0, 0.02, 300.0),
        ),
        # Fig 9 (e)-(f): memory-intensive domains.
        _profile(
            "memory_bound",
            (160.0, 12.0, 0.07, 700.0),
            (290.0, 18.0, 0.47, 1400.0),
            (375.0, 16.0, 0.38, 1400.0),
            (455.0, 15.0, 0.08, 600.0),
        ),
        _profile(
            "memory_bound_alt",
            (170.0, 12.0, 0.06, 700.0),
            (255.0, 15.0, 0.30, 1400.0),
            (330.0, 18.0, 0.44, 1400.0),
            (400.0, 15.0, 0.14, 900.0),
            (465.0, 15.0, 0.06, 600.0),
        ),
        # Fig 9 (g)-(h): multi-zone domains spanning all regions.
        _profile(
            "multi_zone",
            (140.0, 12.0, 0.18, 800.0),
            (310.0, 22.0, 0.47, 1000.0),
            (490.0, 18.0, 0.29, 1000.0),
            (565.0, 6.0, 0.02, 180.0),
            (92.0, 4.0, 0.04, 400.0),
        ),
        _profile(
            "multi_zone_alt",
            (155.0, 12.0, 0.22, 800.0),
            (350.0, 25.0, 0.50, 1000.0),
            (510.0, 15.0, 0.22, 1000.0),
            (568.0, 6.0, 0.01, 180.0),
            (92.0, 4.0, 0.05, 400.0),
        ),
        # Mixed low-utilization work (pre/post-processing heavy).
        _profile(
            "mixed_low",
            (110.0, 8.0, 0.26, 900.0),
            (190.0, 15.0, 0.24, 900.0),
            (295.0, 20.0, 0.36, 900.0),
            (430.0, 20.0, 0.14, 600.0),
        ),
    ]
}


def region_shares(profile: PowerProfile, boundaries=(200.0, 420.0, 560.0)) -> np.ndarray:
    """Stationary probability mass of a profile in each Table IV region."""
    means = np.array([p.mean_w for p in profile.phases])
    idx = np.searchsorted(np.asarray(boundaries), means, side="left")
    return np.bincount(idx, weights=profile.weights, minlength=4)
