"""Shared plumbing for the end-to-end benchmark workloads.

Every workload module exposes ``run(workload, seed, seconds, trace) ->
Outcome``.  This module holds what they share: the source-tree import
path, the end-to-end metric names, order statistics, peak RSS, the
repetition loop, scratch directories, cube comparison, and the
:class:`Outcome` record that ``run.py`` prints.
"""

from __future__ import annotations

import math
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: The checkout root (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for disk-backed stores; inside the checkout, removed
#: after every run.
SCRATCH = ROOT / ".perfbench_tmp"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/`` (no install step)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- end-to-end metric names (BENCHMARK.json ``end_to_end``) -------------------------

SETUP_S = "setup_s"
THROUGHPUT = "throughput_per_s"
LATENCY_P50 = "latency_p50_ms"
LATENCY_TAIL = "latency_tail_ms"
PEAK_RSS = "peak_rss_mb"

UNITS = {
    SETUP_S: "s",
    THROUGHPUT: "1/s",
    LATENCY_P50: "ms",
    LATENCY_TAIL: "ms",
    PEAK_RSS: "MB",
}


@dataclass
class Metric:
    """One end-to-end figure plus the sentence that says what it counts."""

    value: float
    base: str


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    metrics: Dict[str, Metric]
    attempted: int
    failed: int
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Per-layer figures (traced runs only); name -> value.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Rendered layer table (traced runs only).
    table: str = ""
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


# -- the clock -----------------------------------------------------------------------

#: Every timed region is timed on this process's processor clock.  On a
#: shared virtual machine the wall clock also counts the time the
#: hypervisor hands this guest's processor to other guests ("steal");
#: the processor clock leaves it out (the kernel charges steal to no
#: task).  It also leaves out time spent blocked: the workloads never
#: sleep, and their disk writes go to the page cache (charged as system
#: time) but for a few ``fsync`` calls per repetition.  The report prints
#: the timed regions' wall time beside their processor time.
clock = time.process_time


# -- host speed ----------------------------------------------------------------------

#: Processor seconds of one :func:`probe` on the reference host: the
#: two-processor VM the benchmark was built on, when no other tenant
#: loaded it (there, table5-batch's timed region took 0.99 s).
PROBE_REF_S = 0.0066
#: Probes taken before every repetition.
PROBES_PER_REPETITION = 5


def probe() -> float:
    """Processor seconds this host takes for one fixed unit of work.

    The work is the benchmark's own, never the program's, and looks like
    the program's hot loops: draw a node-day of GPU power readings
    (5760 ticks x 8 GPUs), clip them and histogram them, eight times.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = clock()
    for _ in range(8):
        power = np.clip(rng.normal(500.0, 20.0, size=(5760, 8)), 0.0, 560.0)
        np.bincount((power // 10.0).astype(np.int64).ravel(), minlength=57)
    return clock() - t0


class HostSpeed:
    """How fast the host runs right now, against the reference host.

    On a shared machine the processor itself slows when other tenants
    load the physical core (a busy sibling hyperthread, shared caches,
    a lower clock): the same code then takes up to 2.4 times the
    processor time, in spells of seconds to hours, with no steal to show
    for it.  Probes of fixed work, taken before every repetition, measure
    that slowdown, and every timed figure is scaled by ``scale`` to
    reference-host seconds.  A change to the program moves the figures;
    a change in the host's load moves the workload and the probe alike
    (see "The clock and the host's speed" in README.md for how closely).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        """Take this repetition's probes."""
        for _ in range(PROBES_PER_REPETITION):
            self.samples.append(probe())

    @property
    def scale(self) -> float:
        """Reference-host seconds per measured second (median probe)."""
        return PROBE_REF_S / median(self.samples)

    def note(self) -> str:
        return (
            f"host speed: median probe {1e3 * median(self.samples):.2f} ms "
            f"of {len(self.samples)} (reference {1e3 * PROBE_REF_S:.2f} "
            f"ms); timed figures scaled by {self.scale:.4f}"
        )


# -- statistics ----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of unsorted values."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- repetition ------------------------------------------------------------------------


#: Repetitions every run makes, however slow the host: enough for a
#: median, and for the per-fleet cost of the streaming workloads to
#: average out.
MIN_REPETITIONS = 6


def repeat(seconds: float, rep: Callable[[int], None]) -> int:
    """Call ``rep(0)``, ``rep(1)``, ... until ``seconds`` of wall time
    have passed (at least :data:`MIN_REPETITIONS` calls); the count.

    Repetition ``i`` of a seed always measures the same input, so a
    faster host measures a longer prefix of the same sequence, and a run
    takes about ``seconds`` on any host.
    """
    t0 = time.perf_counter()
    i = 0
    while i < MIN_REPETITIONS or time.perf_counter() - t0 < seconds:
        rep(i)
        i += 1
    return i


def rep_seed(seed: int, i: int) -> int:
    """Input seed of repetition ``i`` of a run seeded ``seed``.

    Repetitions draw different fleets so that a run's median covers
    many schedules: the processor time of rendering and publishing one
    fleet varies by 12-15 % (standard deviation over mean) from one
    schedule to the next, and by up to a factor of two between extremes.
    """
    use_source_tree()
    from repro.rng import derive_seed

    return derive_seed(seed, "perfbench-repetition", i)


class Scratch:
    """A private directory under the checkout, removed on exit."""

    def __enter__(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=SCRATCH))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still holds a directory there


# -- correctness -----------------------------------------------------------------------


def cube_mismatches(got, want) -> List[str]:
    """Names of campaign-cube arrays that differ bitwise (empty = equal)."""
    import numpy as np

    pairs = [
        ("energy_j", got.energy_j, want.energy_j),
        ("gpu_hours", got.gpu_hours, want.gpu_hours),
        ("histogram.counts", got.histogram.counts, want.histogram.counts),
        (
            "histogram.weight_sums",
            got.histogram.weight_sums,
            want.histogram.weight_sums,
        ),
    ]
    if got.domains != want.domains or got.classes != want.classes:
        return ["axes"]
    if set(got.domain_histograms) != set(want.domain_histograms):
        return ["domain_histograms keys"]
    for name in sorted(got.domain_histograms):
        g, w = got.domain_histograms[name], want.domain_histograms[name]
        pairs.append((f"domain[{name}].counts", g.counts, w.counts))
        pairs.append(
            (f"domain[{name}].weight_sums", g.weight_sums, w.weight_sums)
        )
    bad = []
    if np.float64(got.cpu_energy_j).tobytes() != np.float64(
        want.cpu_energy_j
    ).tobytes():
        bad.append("cpu_energy_j")
    for name, a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            bad.append(name)
    return bad


def clock_note(cpu_s: Sequence[float], wall_s: Sequence[float]) -> str:
    """The timed regions on both clocks, for the report."""
    cpu, wall = median(cpu_s), median(wall_s)
    return (
        f"timed region per repetition: {cpu:.4f} s processor, "
        f"{wall:.4f} s wall (median of {len(cpu_s)}; processor / wall "
        f"= {cpu / wall:.3f})"
    )


def fmt_ratio(num: float, den: float) -> str:
    """``num / den = r`` with the base spelled out."""
    ratio = num / den if den else float("nan")
    return f"{num:g} / {den:g} = {ratio:.4g}"
