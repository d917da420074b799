"""Job-state index: the serving-side metadata of every logged job.

The control plane mirrors the slurm-monitor + nvml-monitor pattern:
one monitor watches the scheduler (who runs where), one watches the
GPUs (what power each draws), and a join keys the second by the first.
Here the scheduler side is a :class:`~repro.scheduler.log.SchedulerLog`
and the join is the campaign join's own
(:attr:`~repro.core.join.DerivedWindow.job_ids`); this index holds what
``/v1/jobs`` says about each job id that join yields.

The simulated SLURM log carries no user or partition columns, so
:class:`JobMeta` derives both deterministically: the user from the
``project_id`` (the paper's join recovers ownership the same way) and
the partition from the Table VII size class — stable across runs, so
served documents stay bitwise-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ServeError
from ..scheduler.log import SchedulerLog

#: Table VII size class -> batch partition (synthesized; the simulated
#: scheduler log has no partition column).  Classes A/B are the
#: capability jobs a real Frontier queues separately.
PARTITION_BY_CLASS: Dict[str, str] = {
    "A": "batch-capability",
    "B": "batch-capability",
    "C": "batch-large",
    "D": "batch",
    "E": "batch-small",
}


def user_of_project(project_id: str) -> str:
    """Deterministic pseudonymous owner of a project (``pi-<project>``)."""
    return f"pi-{project_id}"


@dataclass(frozen=True)
class JobMeta:
    """Serving-side metadata of one job (the ``/v1/jobs`` identity row)."""

    job_id: int
    user: str
    account: str
    partition: str
    domain: str
    size_class: str
    num_nodes: int
    start_time_s: float
    end_time_s: float

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "user": self.user,
            "account": self.account,
            "partition": self.partition,
            "domain": self.domain,
            "size_class": self.size_class,
            "num_nodes": self.num_nodes,
            "start_time_s": self.start_time_s,
            "end_time_s": self.end_time_s,
        }


class JobStateIndex:
    """Scheduler state, indexed for the serving path: one
    :class:`JobMeta` per job."""

    def __init__(self, log: SchedulerLog) -> None:
        self.log = log
        self._meta: Dict[int, JobMeta] = {}
        for job in log.jobs:
            partition = PARTITION_BY_CLASS.get(job.size_class)
            if partition is None:
                raise ServeError(
                    f"job {job.job_id}: unknown size class "
                    f"{job.size_class!r}"
                )
            self._meta[job.job_id] = JobMeta(
                job_id=job.job_id,
                user=user_of_project(job.project_id),
                account=job.project_id,
                partition=partition,
                domain=job.domain,
                size_class=job.size_class,
                num_nodes=job.num_nodes,
                start_time_s=job.start_time_s,
                end_time_s=job.end_time_s,
            )

    def __len__(self) -> int:
        return len(self._meta)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._meta

    def meta(self, job_id: int) -> JobMeta:
        try:
            return self._meta[job_id]
        except KeyError:
            raise ServeError(f"unknown job id {job_id}") from None

    def get(self, job_id: int) -> Optional[JobMeta]:
        return self._meta.get(job_id)

    def job_ids(self) -> List[int]:
        return sorted(self._meta)
