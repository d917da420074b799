"""SLURM ``sacct``-style log ingest.

Real deployments export job accounting as pipe-separated ``sacct`` dumps;
this adapter converts them into a :class:`~repro.scheduler.log.SchedulerLog`
so production accounting feeds the same analysis path as the simulator.

Expected columns (header row, ``|``-separated, the classic sacct layout)::

    JobID|Account|NNodes|Submit|Start|End|NodeList
    1201|chm101|184|1680000000|1680000600|1680043200|frontier[0001-0184]

* times are unix seconds (or any consistent epoch);
* ``Account`` doubles as the project id — its alphabetic prefix is the
  science domain, exactly the paper's join rule;
* ``NodeList`` uses SLURM's compressed notation, e.g.
  ``frontier[0001-0003,0007]`` or ``node5``.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import List, Optional

from ..errors import ScheduleError
from .jobs import Job
from .log import NodeAllocation, SchedulerLog

REQUIRED_COLUMNS = (
    "JobID", "Account", "NNodes", "Submit", "Start", "End", "NodeList"
)

_NODELIST_RE = re.compile(r"^(?P<prefix>[^\[\]]*?)(?:\[(?P<body>[^\]]+)\])?$")


def parse_nodelist(nodelist: str) -> List[int]:
    """Expand SLURM compressed node notation into node indices.

    ``frontier[0001-0003,0007]`` -> [1, 2, 3, 7]; ``node5`` -> [5].
    """
    nodelist = nodelist.strip()
    if not nodelist:
        raise ScheduleError("empty NodeList")
    match = _NODELIST_RE.match(nodelist)
    if match is None:
        raise ScheduleError(f"unparseable NodeList {nodelist!r}")
    body = match.group("body")
    if body is None:
        digits = re.search(r"(\d+)$", nodelist)
        if not digits:
            raise ScheduleError(f"no node index in {nodelist!r}")
        return [int(digits.group(1))]
    nodes: List[int] = []
    for part in body.split(","):
        part = part.strip()
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = _node_index(lo_s, nodelist), _node_index(hi_s, nodelist)
            if hi < lo:
                raise ScheduleError(f"inverted range {part!r}")
            nodes.extend(range(lo, hi + 1))
        else:
            nodes.append(_node_index(part, nodelist))
    return nodes


def _node_index(text: str, nodelist: str) -> int:
    if not text.strip().isdecimal():
        raise ScheduleError(f"bad node index {text!r} in {nodelist!r}")
    return int(text)


def domain_of_account(account: str) -> str:
    """The science domain: the account's leading alphabetic prefix."""
    match = re.match(r"([A-Za-z]+)", account.strip())
    if not match:
        raise ScheduleError(f"account {account!r} has no domain prefix")
    return match.group(1).upper()


def _parse_row(r: dict, where: str) -> tuple:
    """``(job id, account, domain, nnodes, nodes, submit, start, end)``.

    Times are as written (not yet shifted).  Any malformed field raises
    :class:`~repro.errors.ScheduleError` naming ``where`` and the job.
    """
    where = f"{where} (job {r.get('JobID')!r})"
    short = [c for c in REQUIRED_COLUMNS if r.get(c) is None]
    if short:
        raise ScheduleError(f"{where}: short row, no {', '.join(short)}")
    try:
        job_id = int(r["JobID"])
        nodes = parse_nodelist(r["NodeList"])
        nnodes = int(r["NNodes"])
        domain = domain_of_account(r["Account"])
        times = [float(r[c]) for c in ("Submit", "Start", "End")]
    except (ValueError, ScheduleError) as exc:
        raise ScheduleError(f"{where}: {exc}") from exc
    if not all(math.isfinite(t) for t in times):
        raise ScheduleError(f"{where}: non-finite time {times}")
    if len(nodes) != nnodes:
        raise ScheduleError(
            f"{where}: NNodes={nnodes} but NodeList has {len(nodes)} nodes"
        )
    return (job_id, r["Account"], domain, nnodes, nodes, *times)


def read_sacct(
    path,
    *,
    n_nodes: Optional[int] = None,
    delimiter: str = "|",
) -> SchedulerLog:
    """Parse a sacct dump into a scheduler log.

    ``n_nodes`` sets the fleet size; when omitted it is inferred from the
    largest node index seen.  Times are shifted so the campaign starts at
    zero (the analysis pipeline's convention).
    """
    path = Path(path)
    rows: List[tuple] = []
    first_line = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ScheduleError(f"{path}: empty file")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ScheduleError(
                f"{path}: missing columns {', '.join(missing)}"
            )
        for r in reader:
            line = reader.line_num
            row = _parse_row(r, f"{path}: line {line}")
            seen = first_line.setdefault(row[0], line)
            if seen != line:
                raise ScheduleError(
                    f"{path}: line {line}: duplicate JobID {row[0]} "
                    f"(first on line {seen})"
                )
            rows.append(row)
    if not rows:
        raise ScheduleError(f"{path}: no jobs")

    t0 = min(row[5] for row in rows)  # the earliest Submit
    jobs: List[Job] = []
    allocations: List[NodeAllocation] = []
    max_node = 0
    horizon = 0.0
    for job_id, account, domain, nnodes, nodes, *times in rows:
        submit, start, end = (t - t0 for t in times)
        jobs.append(
            Job(
                job_id=job_id,
                project_id=account,
                domain=domain,
                num_nodes=nnodes,
                submit_time_s=submit,
                start_time_s=start,
                end_time_s=end,
            )
        )
        allocations.extend(
            NodeAllocation(
                node_id=node, job_id=job_id,
                start_time_s=start, end_time_s=end,
            )
            for node in nodes
        )
        max_node = max(max_node, max(nodes))
        horizon = max(horizon, end)

    fleet = n_nodes if n_nodes is not None else max_node + 1
    if fleet <= max_node:
        raise ScheduleError(
            f"n_nodes={fleet} but NodeList references node {max_node}"
        )
    return SchedulerLog(
        jobs=jobs, allocations=allocations,
        n_nodes=fleet, horizon_s=horizon,
    )


def write_sacct(log: SchedulerLog, path, *, node_prefix: str = "node") -> None:
    """Export a scheduler log in the sacct format this module reads."""
    by_job: dict = {}
    for a in log.allocations:
        by_job.setdefault(a.job_id, []).append(a.node_id)
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, delimiter="|")
        writer.writerow(REQUIRED_COLUMNS)
        for job in log.jobs:
            nodes = sorted(by_job.get(job.job_id, []))
            body = ",".join(str(n) for n in nodes)
            writer.writerow(
                [
                    job.job_id,
                    job.project_id,
                    job.num_nodes,
                    f"{job.submit_time_s:.0f}",
                    f"{job.start_time_s:.0f}",
                    f"{job.end_time_s:.0f}",
                    f"{node_prefix}[{body}]",
                ]
            )
