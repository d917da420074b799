"""Per-job energy analytics, folded live from sealed stream windows.

:class:`JobAccumulator` is the job-axis sibling of the campaign cube's
:class:`~repro.core.join.CampaignAccumulator`: the same row join
(:attr:`~repro.core.join.DerivedWindow.job_ids`), the same region
split (:func:`~repro.core.join.region_index`), the same one-``bincount``
fold — but keyed by ``job_id`` instead of
``(domain, class)``.  Feeding it the engine's sealed windows (via
:meth:`StreamEngine.add_window_observer`; each arrives as a
:class:`~repro.core.join.DerivedWindow` carrying what the campaign join
derived) in canonical order makes the
served per-job numbers bitwise-equal to an offline fold of
:func:`~repro.stream.sources.canonical_windows` over the same data —
the serving side of the streaming-vs-batch equivalence contract.
:func:`repro.policy.fingerprint_jobs` (``repro advise``) folds through
this class too, so the advisor and ``/v1/jobs`` agree bitwise.

State is O(jobs x 4): a (max_job_id + 1, 4) energy/GPU-hour matrix plus
per-job sample counts and first/last-seen event times.  Row 0 is the
idle pseudo-job (samples with no allocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .. import constants
from ..core.join import DerivedWindow
from ..scheduler.log import SchedulerLog
from ..telemetry.schema import TelemetryChunk


@dataclass(frozen=True)
class JobStats:
    """An immutable point-in-time copy of the per-job fold state."""

    energy_j: np.ndarray        # (n_jobs + 1, 4) per-region energy
    gpu_hours: np.ndarray       # (n_jobs + 1, 4) per-region GPU-hours
    samples: np.ndarray         # (n_jobs + 1,) telemetry rows folded
    first_seen_s: np.ndarray    # (n_jobs + 1,) +inf until first sample
    last_seen_s: np.ndarray     # (n_jobs + 1,) -inf until first sample

    def job_energy_j(self, job_id: int) -> float:
        return float(self.energy_j[job_id].sum())

    def active_job_ids(self) -> List[int]:
        """Job ids (idle row excluded) with at least one folded sample."""
        ids = np.nonzero(self.samples)[0]
        return [int(j) for j in ids if j != 0]


class JobAccumulator:
    """Incremental per-job region-energy fold (the serving-side join)."""

    def __init__(
        self,
        log: SchedulerLog,
        *,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        self.log = log
        self.interval_s = interval_s
        n = max((job.job_id for job in log.jobs), default=0) + 1
        self.energy_j = np.zeros((n, 4))
        self.gpu_hours = np.zeros((n, 4))
        self.samples = np.zeros(n, dtype=np.int64)
        self.first_seen_s = np.full(n, np.inf)
        self.last_seen_s = np.full(n, -np.inf)
        self.windows_folded = 0

    def update(self, window: TelemetryChunk) -> None:
        """Fold one sealed window (canonical order for bitwise results).

        An engine's sealed window brings the job ids, region bins and
        samples the campaign join derived; any other window derives
        them here through the scheduler log.
        """
        self.windows_folded += 1
        if not len(window):
            return
        rows = DerivedWindow.of(window, self.log, self.interval_s)
        interval = self.interval_s
        jid = rows.job_ids
        n_rows = self.energy_j.shape[0]
        key = (jid[:, None] * 4 + rows.regions).reshape(-1)
        flat_p = rows.samples
        minlength = n_rows * 4
        self.energy_j += (
            np.bincount(key, weights=flat_p, minlength=minlength)
            .reshape(n_rows, 4) * interval
        )
        self.gpu_hours += (
            np.bincount(key, minlength=minlength).reshape(n_rows, 4)
            * (interval / 3600.0)
        )
        self.samples += np.bincount(jid, minlength=n_rows)
        np.minimum.at(self.first_seen_s, jid, window.time_s)
        np.maximum.at(self.last_seen_s, jid, window.time_s)

    def snapshot(self) -> JobStats:
        """A copy of the fold state, safe to read while ingest continues."""
        return JobStats(
            energy_j=self.energy_j.copy(),
            gpu_hours=self.gpu_hours.copy(),
            samples=self.samples.copy(),
            first_seen_s=self.first_seen_s.copy(),
            last_seen_s=self.last_seen_s.copy(),
        )
