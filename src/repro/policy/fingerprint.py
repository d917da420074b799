"""Per-job fingerprints from power telemetry.

A fingerprint is the per-job analogue of the paper's modal decomposition:
how much of the job's GPU time and energy sits in each operating region.
It is computed from the same join as the campaign cube, but keyed by job
id, and classifies each job into a workload family — the "application
fingerprinting" the paper's discussion section asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Union

import numpy as np

from .. import constants
from ..errors import JoinError
from ..scheduler.log import SchedulerLog
from ..telemetry.schema import TelemetryChunk
from ..telemetry.store import TelemetryStore

#: Workload families, in the paper's Fig 9 vocabulary.
FAMILIES = ("latency_bound", "memory_intensive", "compute_intensive",
            "multi_zone")


@dataclass(frozen=True)
class JobFingerprint:
    """Observed power behaviour of one job."""

    job_id: int
    domain: str
    size_class: str
    num_nodes: int
    gpu_hours: float
    energy_j: float
    region_hours: np.ndarray     # shape (4,)
    region_energy_j: np.ndarray  # shape (4,)

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / (self.gpu_hours * 3600.0)

    @property
    def region_fractions(self) -> np.ndarray:
        total = self.region_hours.sum()
        return self.region_hours / total if total else self.region_hours

    @property
    def family(self) -> str:
        """Workload family from region dwell (Fig 9 panel vocabulary).

        Boost dwell counts toward the compute-intensive family — a job
        spending time above 560 W is running flat out.
        """
        frac = self.region_fractions
        if np.count_nonzero(frac >= 0.10) >= 3:
            return "multi_zone"
        merged = np.array([frac[0], frac[1], frac[2] + frac[3]])
        return FAMILIES[int(np.argmax(merged))]


def fingerprint_jobs(
    telemetry: Union[TelemetryStore, Iterable[TelemetryChunk]],
    log: SchedulerLog,
) -> Dict[int, JobFingerprint]:
    """Fingerprint every job in a campaign (streaming, O(jobs) memory).

    The per-job fold is the control plane's own
    :class:`~repro.serve.analytics.JobAccumulator`: fed the windows a
    plane folds, each fingerprint's region matrices are its served
    ``/v1/jobs`` rows, bitwise.
    """
    # Imported here: serve imports the stream engine, which imports policy.
    from ..serve.analytics import JobAccumulator

    jobs = log.job_by_id()
    if not jobs:
        raise JoinError("scheduler log has no jobs")
    if isinstance(telemetry, TelemetryStore):
        chunks: Iterable[TelemetryChunk] = [telemetry.chunk]
        interval = telemetry.interval_s
    else:
        chunks = telemetry
        interval = constants.TELEMETRY_INTERVAL_S
    acc = JobAccumulator(log, interval_s=interval)
    for chunk in chunks:
        acc.update(chunk)
    if not acc.windows_folded:
        raise JoinError("no telemetry chunks to fingerprint")

    out: Dict[int, JobFingerprint] = {}
    for jid, job in jobs.items():
        h = acc.gpu_hours[jid]
        if h.sum() == 0:
            continue  # job too short to be sampled
        out[jid] = JobFingerprint(
            job_id=jid,
            domain=job.domain,
            size_class=job.size_class,
            num_nodes=job.num_nodes,
            gpu_hours=float(h.sum()),
            energy_j=float(acc.energy_j[jid].sum()),
            region_hours=h.copy(),
            region_energy_j=acc.energy_j[jid].copy(),
        )
    return out
