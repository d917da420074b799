"""Telemetry x scheduler-log join.

Telemetry alone has no job metadata (paper Section III-A); joining it with
the SLURM log recovers, for every GPU power sample, the job — and hence
the science domain and size class — that produced it.  The join output is
a :class:`CampaignCube`: energy and GPU-hours indexed by
``(domain, size class, operating region)``, plus the system-wide and
per-domain power histograms.  Every downstream artifact (Table IV, V, VI,
Fig 8, 9, 10) is a view of this cube, so the join runs once per campaign
and streams in O(bins) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .. import constants
from ..errors import JoinError
from ..obs import runtime as _obs
from ..scheduler.log import SchedulerLog
from ..telemetry.schema import TelemetryChunk
from ..telemetry.store import TelemetryStore
from .histogram import StreamingHistogram

#: Pseudo-domain for samples with no running job.
IDLE_DOMAIN = "_idle"
#: Pseudo-class used for idle samples.
IDLE_CLASS = "-"

REGION_BOUNDS = (
    constants.REGION_LATENCY_MAX_W,
    constants.REGION_MEMORY_MAX_W,
    constants.REGION_COMPUTE_MAX_W,
)

REGION_NAMES = (
    "latency/network/IO bound",
    "memory intensive",
    "compute intensive",
    "boosted frequency",
)


def region_index(power_w: np.ndarray) -> np.ndarray:
    """Table IV region (0..3) of each power sample.

    Boundary samples go to the upper region: 200 W is memory-intensive,
    560 W is boosted (the paper's ">= 560" region 4).  The index is the
    number of bounds at or below the sample, summed from three compares
    in the sample's own dtype (the bounds are exact in float32).
    Samples are finite (telemetry chunks reject NaN).
    """
    power_w = np.asarray(power_w)
    reg = np.empty(power_w.shape, dtype=np.int64)
    np.greater_equal(power_w, REGION_BOUNDS[0], out=reg, casting="unsafe")
    for bound in REGION_BOUNDS[1:]:
        reg += power_w >= bound
    return reg


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DerivedWindow(TelemetryChunk):
    """A telemetry chunk plus its per-row quantities, each derived once.

    The streaming engine wraps every sealed window in one before any
    reader sees it, so the campaign join, the per-job fold, the
    flight-recorder record and incident attribution share one
    derivation; the quantities live on the window and go with it, so
    no per-row array outlives its window.  Each is derived on first
    use: a bare engine never pays for the node positions or row
    energies only the window sinks read.  The columns are the
    wrapped chunk's own arrays (no copy); the derived arrays are
    read-only, since every later reader of the window shares them.
    """

    @classmethod
    def of(
        cls,
        chunk: TelemetryChunk,
        log: Optional[SchedulerLog],
        interval_s: float,
    ) -> "DerivedWindow":
        """``chunk`` itself if already derived, else a wrapper over it.

        ``log`` labels the rows with job ids (``None`` for a reader that
        reads none); ``interval_s`` prices a row's power as energy.
        """
        if isinstance(chunk, DerivedWindow):
            return chunk
        window = cls.from_validated(
            chunk.time_s, chunk.node_id, chunk.gpu_power_w, chunk.cpu_power_w
        )
        window.__dict__.update(_log=log, interval_s=interval_s)
        return window

    @cached_property
    def samples(self) -> np.ndarray:
        """GPU power, row-major flattened to float64 (one per sample)."""
        return _read_only(self.gpu_power_w.reshape(-1).astype(np.float64))

    @cached_property
    def regions(self) -> np.ndarray:
        """Table IV region of every sample, shaped like the GPU power."""
        return _read_only(region_index(self.gpu_power_w))

    @cached_property
    def job_ids(self) -> np.ndarray:
        """Job id of every row (0 = idle node): the one telemetry x
        scheduler-log row join (one composite-key ``searchsorted``)."""
        return _read_only(self._log.job_id_table(self.time_s, self.node_id))

    @cached_property
    def nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted unique node ids, each row's position among them)."""
        ids, pos = np.unique(self.node_id, return_inverse=True)
        return _read_only(ids), _read_only(pos)

    @cached_property
    def row_energy_j(self) -> np.ndarray:
        """GPU energy of every row (its float32 power sum x interval)."""
        return _read_only(
            self.gpu_power_w.sum(axis=1).astype(np.float64)
            * self.interval_s
        )


@dataclass
class CampaignCube:
    """Joined campaign statistics.

    ``energy_j`` and ``gpu_hours`` have shape
    ``(n_domains, n_classes, 4)`` where the last domain row is the idle
    pseudo-domain and the last class column the idle pseudo-class.
    """

    domains: List[str]
    classes: List[str]
    energy_j: np.ndarray
    gpu_hours: np.ndarray
    histogram: StreamingHistogram
    domain_histograms: Dict[str, StreamingHistogram]
    interval_s: float = constants.TELEMETRY_INTERVAL_S
    cpu_energy_j: float = 0.0

    # -- index helpers -----------------------------------------------------------

    def domain_idx(self, name: str) -> int:
        try:
            return self.domains.index(name)
        except ValueError:
            raise JoinError(f"unknown domain {name!r}") from None

    def class_idx(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise JoinError(f"unknown size class {name!r}") from None

    # -- aggregates --------------------------------------------------------------

    @property
    def total_energy_j(self) -> float:
        return float(self.energy_j.sum())

    @property
    def total_gpu_hours(self) -> float:
        return float(self.gpu_hours.sum())

    def region_energy_j(self) -> np.ndarray:
        """Energy per operating region, shape (4,)."""
        return self.energy_j.sum(axis=(0, 1))

    def region_gpu_hours(self) -> np.ndarray:
        return self.gpu_hours.sum(axis=(0, 1))

    def busy_view(self) -> "CampaignCube":
        """The cube without the idle pseudo-domain/class rows."""
        return self.select(
            [x for x in self.domains if x != IDLE_DOMAIN],
            [x for x in self.classes if x != IDLE_CLASS],
        )

    def select(
        self, domains: Iterable[str], classes: Iterable[str]
    ) -> "CampaignCube":
        """Restrict the cube to selected domains and classes (Table VI)."""
        d = list(domains)
        c = list(classes)
        d_idx = [self.domain_idx(x) for x in d]
        c_idx = [self.class_idx(x) for x in c]
        return CampaignCube(
            domains=d,
            classes=c,
            energy_j=self.energy_j[np.ix_(d_idx, c_idx)],
            gpu_hours=self.gpu_hours[np.ix_(d_idx, c_idx)],
            histogram=self.histogram,
            domain_histograms={
                k: v for k, v in self.domain_histograms.items() if k in d
            },
            interval_s=self.interval_s,
            cpu_energy_j=self.cpu_energy_j,
        )


def _histograms_equal(a: StreamingHistogram, b: StreamingHistogram) -> bool:
    return np.array_equal(a.counts, b.counts) and np.array_equal(
        a.weight_sums, b.weight_sums
    )


def cubes_equal(a: CampaignCube, b: CampaignCube) -> bool:
    """Bitwise equality of two whole cubes.

    Compares the domain/class axes, the energy and GPU-hour arrays, the
    system histogram, every per-domain histogram and the CPU sum: the
    state every bitwise contract (stream vs batch, shard counts, sinks
    attached or not) promises to reproduce.
    """
    return (
        a.domains == b.domains
        and a.classes == b.classes
        and np.array_equal(a.energy_j, b.energy_j)
        and np.array_equal(a.gpu_hours, b.gpu_hours)
        and _histograms_equal(a.histogram, b.histogram)
        and a.domain_histograms.keys() == b.domain_histograms.keys()
        and all(
            _histograms_equal(h, b.domain_histograms[name])
            for name, h in a.domain_histograms.items()
        )
        and a.cpu_energy_j == b.cpu_energy_j
    )


def _histogram_rows(
    like: StreamingHistogram,
    names: List[str],
    counts: np.ndarray,
    weights: np.ndarray,
    clipped,
) -> Tuple[StreamingHistogram, Dict[str, StreamingHistogram]]:
    """``(system histogram, {name: domain histogram})`` over array rows.

    ``counts`` and ``weights`` are ``(1 + len(names), n_bins)``: row 0
    is the system histogram, row ``1 + i`` domain ``names[i]``.  Each
    histogram is binned like ``like`` and its ``counts``/``weight_sums``
    are views of its row, so one ``+=`` on the rows adds to every domain
    at once; ``clipped`` seeds each one's ``n_clipped``.
    """
    hists = []
    for row_counts, row_weights, n_clipped in zip(counts, weights, clipped):
        h = StreamingHistogram(like.lo, like.hi, like.bin_width)
        h.counts, h.weight_sums = row_counts, row_weights
        h.n_clipped = int(n_clipped)
        hists.append(h)
    return hists[0], dict(zip(names, hists[1:]))


class CampaignAccumulator:
    """Incremental telemetry-x-log fold into a :class:`CampaignCube`.

    One instance holds the O(bins) running state of a campaign join:
    the (domain, class, region) energy/GPU-hour cube, the system and
    per-domain power histograms, and the CPU energy total.  ``update``
    absorbs one :class:`TelemetryChunk`; ``cube`` reads the state out.
    :func:`join_campaign` is a thin driver over this class, and the
    streaming engine (:mod:`repro.stream`) folds live windows through
    the very same code path — which is what makes the drained stream
    bitwise-identical to the batch join over the same chunk sequence.
    """

    def __init__(
        self,
        log: SchedulerLog,
        *,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
    ) -> None:
        jobs = log.job_by_id()
        self.log = log
        self.interval_s = interval_s
        self.domains = sorted({j.domain for j in jobs.values()}) + [
            IDLE_DOMAIN
        ]
        self.classes = list(constants.JOB_SIZE_CLASSES) + [IDLE_CLASS]
        d_index = {name: i for i, name in enumerate(self.domains)}
        c_index = {name: i for i, name in enumerate(self.classes)}

        self.energy_j = np.zeros((len(self.domains), len(self.classes), 4))
        self.gpu_hours = np.zeros_like(self.energy_j)
        self._zero_histograms()
        self.cpu_energy_j = 0.0
        self.n_chunks = 0

        # Vectorized job-id -> (domain, class) lookup tables.
        max_jid = max(jobs, default=0)
        self._dom_of_job = np.full(
            max_jid + 1, d_index[IDLE_DOMAIN], dtype=np.int64
        )
        self._cls_of_job = np.full(
            max_jid + 1, c_index[IDLE_CLASS], dtype=np.int64
        )
        for jid, job in jobs.items():
            self._dom_of_job[jid] = d_index[job.domain]
            self._cls_of_job[jid] = c_index[job.size_class]

    def clone_empty(self) -> "CampaignAccumulator":
        """A zero-state accumulator sharing this one's lookup tables.

        Building the job-id -> (domain, class) tables walks every job in
        the log, so callers that fold many independent sub-campaigns
        against the same log (the sharded engine folds one accumulator
        per fold unit) clone a template instead of re-deriving them.
        The axes and tables are shared by reference — they are never
        mutated after construction.
        """
        new = object.__new__(CampaignAccumulator)
        new.log = self.log
        new.interval_s = self.interval_s
        new.domains = self.domains
        new.classes = self.classes
        new.energy_j = np.zeros_like(self.energy_j)
        new.gpu_hours = np.zeros_like(self.gpu_hours)
        new._zero_histograms()
        new.cpu_energy_j = 0.0
        new.n_chunks = 0
        new._dom_of_job = self._dom_of_job
        new._cls_of_job = self._cls_of_job
        return new

    def _hold_histograms(
        self,
        like: StreamingHistogram,
        counts: np.ndarray,
        weights: np.ndarray,
        clipped,
    ) -> None:
        """Hold the system and per-domain histograms as rows of one
        array pair (see :func:`_histogram_rows`)."""
        self._hist_counts, self._hist_weights = counts, weights
        self.histogram, self.domain_histograms = _histogram_rows(
            like, self.domains, counts, weights, clipped
        )

    def _zero_histograms(self) -> None:
        like = StreamingHistogram()
        shape = (1 + len(self.domains), like.n_bins)
        self._hold_histograms(
            like, np.zeros(shape), np.zeros(shape),
            np.zeros(shape[0], dtype=np.int64),
        )

    def _clipped(self) -> List[int]:
        """``n_clipped`` of each histogram row, system first."""
        return [self.histogram.n_clipped] + [
            h.n_clipped for h in self.domain_histograms.values()
        ]

    def derive(self, chunk: TelemetryChunk) -> DerivedWindow:
        """``chunk`` as a :class:`DerivedWindow` labelled by this join's log.

        The streaming engine hands this one object to every reader of a
        sealed window, so the window is labelled and binned once.
        """
        return DerivedWindow.of(chunk, self.log, self.interval_s)

    def update(self, chunk: TelemetryChunk) -> None:
        """Fold one chunk into the running campaign state.

        A :class:`DerivedWindow` (see :meth:`derive`) keeps what the
        fold derives for later readers of the same window.  Traced as a
        ``join.update`` span when observability is on; the disabled
        wrapper costs one global read and a branch.
        """
        st = _obs.state()
        if st is None:
            return self._update_impl(chunk)
        with st.tracer.span("join.update") as sp:
            self._update_impl(chunk)
            sp.set(rows=len(chunk.time_s))
        st.registry.counter(
            "join_samples_total",
            "telemetry rows folded into the campaign cube",
        ).inc(len(chunk.time_s))

    def _update_impl(self, chunk: TelemetryChunk) -> None:
        """Uninstrumented body of :meth:`update` (the timed hot path)."""
        interval = self.interval_s
        window = self.derive(chunk)
        self.n_chunks += 1
        self.cpu_energy_j += (
            float(chunk.cpu_power_w.sum(dtype=np.float64)) * interval
        )
        # Label each row with (domain, class) via the scheduler log.
        jid = window.job_ids
        d_row = self._dom_of_job[jid]
        c_row = self._cls_of_job[jid]

        power = chunk.gpu_power_w  # (n, gpus)
        # Accumulate the 3-D cube with one bincount over composite keys.
        n_d, n_c = len(self.domains), len(self.classes)
        key = (
            (d_row[:, None] * n_c + c_row[:, None]) * 4 + window.regions
        ).reshape(-1)
        flat_p = window.samples
        minlength = n_d * n_c * 4
        self.energy_j += (
            np.bincount(key, weights=flat_p, minlength=minlength).reshape(
                n_d, n_c, 4
            )
            * interval
        )
        self.gpu_hours += np.bincount(key, minlength=minlength).reshape(
            n_d, n_c, 4
        ) * (interval / 3600.0)

        # One bin index for the system histogram and the per-domain ones;
        # the per-domain rows take one composite-key (domain major, bin
        # minor) bincount of each kind.  ``bincount`` adds in array
        # order, the order each domain's subset would see, so the rows
        # are bitwise what per-domain adds would give.  The repeat
        # aligns row labels with the row-major sample flattening.
        bins, clipped = self.histogram.bin_index(flat_p)
        self.histogram.add(flat_p, bins=(bins, clipped))
        n_bins = self.histogram.n_bins
        d_sample = np.repeat(d_row, power.shape[1])
        key = d_sample * n_bins
        key += bins
        minlength = n_d * n_bins
        self._hist_counts[1:] += np.bincount(
            key, minlength=minlength
        ).reshape(n_d, n_bins)
        self._hist_weights[1:] += np.bincount(
            key, weights=flat_p, minlength=minlength
        ).reshape(n_d, n_bins)
        if clipped.any():
            n_clip = np.bincount(d_sample[clipped], minlength=n_d)
            for name, n in zip(self.domains, n_clip):
                self.domain_histograms[name].n_clipped += int(n)

    def cube(self, *, copy: bool = False) -> CampaignCube:
        """The campaign cube of everything folded so far.

        With ``copy=True`` the cube owns snapshots of the state arrays,
        so further ``update`` calls do not mutate it (live queries).
        """
        if copy:
            hist, domain_hists = _histogram_rows(
                self.histogram,
                self.domains,
                self._hist_counts.copy(),
                self._hist_weights.copy(),
                self._clipped(),
            )
            return CampaignCube(
                domains=list(self.domains),
                classes=list(self.classes),
                energy_j=self.energy_j.copy(),
                gpu_hours=self.gpu_hours.copy(),
                histogram=hist,
                domain_histograms=domain_hists,
                interval_s=self.interval_s,
                cpu_energy_j=self.cpu_energy_j,
            )
        return CampaignCube(
            domains=self.domains,
            classes=self.classes,
            energy_j=self.energy_j,
            gpu_hours=self.gpu_hours,
            histogram=self.histogram,
            domain_histograms=self.domain_histograms,
            interval_s=self.interval_s,
            cpu_energy_j=self.cpu_energy_j,
        )

    # -- checkpoint support (used by repro.stream.checkpoint) ---------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar form of the accumulator state for npz persistence."""
        return {
            "acc_domains": np.array(self.domains),
            "acc_classes": np.array(self.classes),
            "acc_energy_j": self.energy_j,
            "acc_gpu_hours": self.gpu_hours,
            "acc_scalars": np.array(
                [self.cpu_energy_j, float(self.n_chunks), self.interval_s]
            ),
            "acc_hist_bins": np.array(
                [
                    self.histogram.lo,
                    self.histogram.hi,
                    self.histogram.bin_width,
                ]
            ),
            "acc_hist_counts": self._hist_counts.copy(),
            "acc_hist_weights": self._hist_weights.copy(),
            "acc_hist_clipped": np.array(self._clipped(), dtype=np.int64),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_arrays` (same log required)."""
        if list(arrays["acc_domains"]) != self.domains or list(
            arrays["acc_classes"]
        ) != self.classes:
            raise JoinError(
                "checkpoint axes do not match this scheduler log"
            )
        lo, hi, width = (float(x) for x in arrays["acc_hist_bins"])
        self.energy_j = np.array(arrays["acc_energy_j"], dtype=np.float64)
        self.gpu_hours = np.array(arrays["acc_gpu_hours"], dtype=np.float64)
        self.cpu_energy_j = float(arrays["acc_scalars"][0])
        self.n_chunks = int(arrays["acc_scalars"][1])
        self.interval_s = float(arrays["acc_scalars"][2])
        self._hold_histograms(
            StreamingHistogram(lo, hi, width),
            np.array(arrays["acc_hist_counts"], dtype=np.float64),
            np.array(arrays["acc_hist_weights"], dtype=np.float64),
            arrays["acc_hist_clipped"],
        )


def join_campaign(
    telemetry: Union[TelemetryStore, Iterable[TelemetryChunk]],
    log: SchedulerLog,
) -> CampaignCube:
    """Join telemetry with the scheduler log into a campaign cube.

    Accepts a materialized store or any iterable of chunks (streaming
    mode); statistics are identical either way.
    """
    if isinstance(telemetry, TelemetryStore):
        chunks: Iterable[TelemetryChunk] = [telemetry.chunk]
        interval = telemetry.interval_s
    else:
        chunks = telemetry
        interval = constants.TELEMETRY_INTERVAL_S

    with _obs.span("join.campaign"):
        acc = CampaignAccumulator(log, interval_s=interval)
        for chunk in chunks:
            acc.update(chunk)
    if acc.n_chunks == 0:
        raise JoinError("no telemetry chunks to join")
    return acc.cube()
