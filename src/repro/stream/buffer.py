"""Event-time reorder/dedup buffer with watermarks.

Real out-of-band collection is not tidy: per-node pollers restart,
samples arrive out of order, network retries duplicate records, and
whole racks go quiet for a window.  This module turns that arrival
stream back into the *canonical* event-time stream the batch pipeline
analyzes: fixed event-time windows, each sorted by ``(time, node)`` and
deduplicated, released only once the watermark guarantees no admissible
sample for them is still in flight.

Semantics
---------

* **Watermark** — ``max(event time seen) - allowed_lateness_s``.  A
  window ``[w0, w1)`` seals when the watermark passes ``w1``; its
  samples are emitted as one canonical chunk and freed, so resident
  state is bounded by the reorder horizon, never by the stream length.
* **Late samples** — arrivals with event time below the sealed frontier
  are counted and dropped (they missed their window).
* **Duplicates** — two samples with the same ``(time, node)`` key inside
  the reorder horizon: the first arrival wins, later copies are counted
  and discarded at seal time.  Copies separated by more than the
  reorder horizon surface as late drops instead.

Samples arrive on the 15 s analysis grid: the 2 s -> 15 s
pre-aggregation is :func:`repro.telemetry.sampler.aggregate_sensor_trace`.

Layout
------

Resident samples live as a *list of arrival chunks* that is only
consolidated into contiguous columns when a watermark advance seals
windows.  Pushing is therefore O(chunk) amortized — the previous
layout re-concatenated every resident column on every arrival, which
made a quiet stream (no seals) quadratic in the reorder horizon.  An
in-order arrival chunk is retained by reference (no copy at all); the
consolidation at seal time re-copies each resident sample once per
seal, and seals are paced by the watermark, not by arrivals.  When the
pending samples arrived in event-time order, a seal slices off a prefix
and, if that prefix is already in canonical order, skips the sort.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import constants
from ..errors import TelemetryError
from ..obs import runtime as _obs
from ..telemetry.schema import TelemetryChunk

#: Default event-time window: 40 aggregated ticks (10 minutes).
DEFAULT_WINDOW_S = 40 * constants.TELEMETRY_INTERVAL_S


def _empty_like_columns() -> Dict[str, np.ndarray]:
    return {
        "time": np.empty(0, dtype=np.float64),
        "node": np.empty(0, dtype=np.int32),
        "gpu": np.empty((0, constants.GPUS_PER_NODE), dtype=np.float32),
        "cpu": np.empty(0, dtype=np.float32),
        "seq": np.empty(0, dtype=np.int64),
    }


def buffer_config(arrays: Dict[str, np.ndarray]) -> Tuple[float, float, float]:
    """``(interval_s, window_s, lateness_s)`` of a saved buffer state.

    ``buf_config`` keeps a fourth, reserved field that is always 0.0; a
    state with any other value there cannot be resumed faithfully, so
    it raises :class:`~repro.errors.TelemetryError` instead of loading.
    """
    interval, window, lateness, reserved = (
        float(x) for x in arrays["buf_config"]
    )
    if reserved != 0.0:
        raise TelemetryError(
            f"buffer state has reserved config field {reserved:g} "
            "(expected 0): cannot resume it"
        )
    return interval, window, lateness


def _ascending(time: np.ndarray) -> bool:
    """Whether event times never decrease in arrival order."""
    return bool((time[1:] >= time[:-1]).all())


def _strictly_ascending(time: np.ndarray, node: np.ndarray) -> bool:
    """Whether time-ascending rows are strictly ascending in ``(time, node)``.

    With times non-decreasing, a row is above its predecessor exactly
    when its time is later or, at the same time, its node is higher.
    """
    return bool(((time[1:] > time[:-1]) | (node[1:] > node[:-1])).all())


class ReorderBuffer:
    """Bounded reorder/dedup stage between ingestion and the fold."""

    def __init__(
        self,
        *,
        interval_s: float = constants.TELEMETRY_INTERVAL_S,
        window_s: float = DEFAULT_WINDOW_S,
        lateness_s: float = 0.0,
    ) -> None:
        if interval_s <= 0:
            raise TelemetryError("interval must be positive")
        if window_s < interval_s:
            raise TelemetryError("window must cover at least one tick")
        if lateness_s < 0:
            raise TelemetryError("allowed lateness must be >= 0")
        self.interval_s = interval_s
        self.window_s = window_s
        self.lateness_s = lateness_s

        #: Pending arrival chunks (column dicts), consolidated lazily at
        #: seal time; ``_n_resident`` tracks the total row count.
        self._pending: List[Dict[str, np.ndarray]] = []
        self._n_resident = 0
        self._next_seq = 0
        self.max_event_time_s = float("-inf")
        self.sealed_until_s = 0.0

        self.samples_in = 0
        self.duplicates = 0
        self.late_dropped = 0
        self.windows_emitted = 0
        self.samples_out = 0
        self.peak_resident = 0

    # -- properties ---------------------------------------------------------------

    @property
    def resident_samples(self) -> int:
        """Samples currently buffered (not yet sealed)."""
        return self._n_resident

    @property
    def watermark_s(self) -> float:
        """Event time below which no new sample is expected."""
        if self.max_event_time_s == float("-inf"):
            return float("-inf")
        return self.max_event_time_s - self.lateness_s

    @property
    def watermark_lag_s(self) -> float:
        """Distance between the newest event and the sealed frontier."""
        if self.max_event_time_s == float("-inf"):
            return 0.0
        return max(0.0, self.max_event_time_s - self.sealed_until_s)

    def resident_bound(
        self, rows_per_tick: float, max_chunk_rows: int = 0
    ) -> int:
        """Upper bound on resident samples for admissible delivery.

        Delivery is *admissible* when no sample arrives more than
        ``lateness_s`` of event time behind the newest event already
        delivered (what :func:`repro.stream.sources.perturb`
        guarantees).  Resident events then span at most one open window
        plus one not-yet-sealed window plus the lateness horizon, and
        the peak is measured after an arrival chunk lands but before
        sealing — hence the ``max_chunk_rows`` term.  ``rows_per_tick``
        must count duplicates still in flight.
        """
        ticks = (2 * self.window_s + self.lateness_s) / self.interval_s
        return int(np.ceil((ticks + 1) * rows_per_tick) + max_chunk_rows)

    # -- ingestion ----------------------------------------------------------------

    def push(self, chunk: TelemetryChunk) -> List[TelemetryChunk]:
        """Absorb one arrival chunk; return any windows it sealed.

        Traced as a ``stream.push`` span when observability is on; the
        disabled wrapper is a global read and a branch (< 2 % budget,
        enforced by ``benchmarks/bench_batch.py --overhead-only``).
        """
        # Read the module global directly: a function call here would be
        # the single biggest cost of the disabled path.
        st = _obs._STATE
        if st is None:
            return self._push_impl(chunk)
        with st.tracer.span("stream.push") as sp:
            out = self._push_impl(chunk)
            sp.set(rows=len(chunk.time_s), sealed_windows=len(out))
        return out

    def _push_impl(self, chunk: TelemetryChunk) -> List[TelemetryChunk]:
        """Uninstrumented body of :meth:`push` (the timed hot path)."""
        t = np.asarray(chunk.time_s, dtype=np.float64)
        n = len(t)
        self.samples_in += n
        keep = t >= self.sealed_until_s
        n_new = int(keep.sum())
        if n_new < n:
            self.late_dropped += n - n_new
        if n_new:
            seq = np.arange(
                self._next_seq, self._next_seq + n_new, dtype=np.int64
            )
            self._next_seq += n_new
            if n_new == n:
                # Nothing late: retain the arrival columns by reference.
                cols = {
                    "time": t,
                    "node": chunk.node_id,
                    "gpu": chunk.gpu_power_w,
                    "cpu": chunk.cpu_power_w,
                    "seq": seq,
                }
            else:
                cols = {
                    "time": t[keep],
                    "node": chunk.node_id[keep],
                    "gpu": chunk.gpu_power_w[keep],
                    "cpu": chunk.cpu_power_w[keep],
                    "seq": seq,
                }
            self._pending.append(cols)
            self._n_resident += n_new
        if n:
            self.max_event_time_s = max(
                self.max_event_time_s, float(t.max())
            )
        self.peak_resident = max(self.peak_resident, self._n_resident)

        wm = self.watermark_s
        if wm == float("-inf"):
            return []
        boundary = np.floor(wm / self.window_s) * self.window_s
        if boundary <= self.sealed_until_s:
            return []
        return self._emit(float(boundary))

    def flush(self) -> List[TelemetryChunk]:
        """Seal every remaining window (end of stream)."""
        if self._n_resident == 0:
            self.sealed_until_s = float("inf")
            return []
        end = max(
            float(p["time"].max()) for p in self._pending
        ) + self.window_s
        out = self._emit(end)
        self.sealed_until_s = float("inf")
        return out

    # -- sealing ------------------------------------------------------------------

    def _consolidate(self) -> Dict[str, np.ndarray]:
        """All pending chunks as one contiguous column dict (arrival order)."""
        if not self._pending:
            return _empty_like_columns()
        if len(self._pending) == 1:
            return self._pending[0]
        cols = {
            key: np.concatenate([p[key] for p in self._pending])
            for key in self._pending[0]
        }
        self._pending = [cols]
        return cols

    def _emit(self, until_s: float) -> List[TelemetryChunk]:
        """Release all windows below ``until_s`` in canonical form."""
        c = self._consolidate()
        t = c["time"]
        self.sealed_until_s = until_s
        in_order = _ascending(t)
        if in_order:
            # Time-ordered delivery: the rows to seal are a prefix.
            n_take = int(np.searchsorted(t, until_s, side="left"))
            take, rest = slice(0, n_take), slice(n_take, None)
        else:
            take = t < until_s
            n_take = int(np.count_nonzero(take))
            rest = ~take
            if n_take == len(t):
                take = slice(None)
        if n_take == 0:
            return []
        self._n_resident = len(t) - n_take
        self._pending = (
            [{key: v[rest] for key, v in c.items()}]
            if self._n_resident else []
        )
        time, node, gpu, cpu, seq = (
            c[key][take] for key in ("time", "node", "gpu", "cpu", "seq")
        )

        # Rows strictly ascending in (time, node) are already canonical
        # and duplicate-free; anything else is sorted and deduplicated.
        if not (in_order and _strictly_ascending(time, node)):
            # Canonical order: (time, node), first arrival first among ties.
            order = np.lexsort((seq, node, time))
            time, node, gpu, cpu = (
                time[order], node[order], gpu[order], cpu[order],
            )

            # Dedup exact (time, node) keys: the first arrival wins.
            if len(time) > 1:
                dup = np.zeros(len(time), dtype=bool)
                dup[1:] = (time[1:] == time[:-1]) & (node[1:] == node[:-1])
                n_dup = int(dup.sum())
                if n_dup:
                    self.duplicates += n_dup
                    keep = ~dup
                    time, node, gpu, cpu = (
                        time[keep], node[keep], gpu[keep], cpu[keep],
                    )

        # Split into event-time windows: one searchsorted over the
        # precomputed window boundaries (the rows are already in
        # canonical time order), instead of a floor-divide over every
        # sample.  Boundary semantics match the old per-row floor rule:
        # a sample at exactly ``k * window_s`` opens window ``k``.
        w_first = int(np.floor(time[0] / self.window_s))
        w_last = int(np.floor(time[-1] / self.window_s))
        if w_last > w_first:
            bounds = np.arange(w_first + 1, w_last + 1) * self.window_s
            cuts = np.searchsorted(time, bounds, side="left")
        else:
            cuts = np.empty(0, dtype=np.int64)
        out: List[TelemetryChunk] = []
        for lo, hi in zip(
            np.concatenate([[0], cuts]),
            np.concatenate([cuts, [len(time)]]),
        ):
            lo, hi = int(lo), int(hi)
            if hi == lo:
                # A whole window with no samples (fleet gap): no chunk.
                continue
            # Rows of validated arrival chunks: no second check.
            out.append(
                TelemetryChunk.from_validated(
                    time[lo:hi], node[lo:hi], gpu[lo:hi], cpu[lo:hi]
                )
            )
            self.windows_emitted += 1
            self.samples_out += hi - lo
        return out

    # -- checkpoint support --------------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar form of the buffer state for npz persistence."""
        cols = self._consolidate()
        return {
            "buf_time": np.asarray(cols["time"], dtype=np.float64),
            "buf_node": np.asarray(cols["node"], dtype=np.int32),
            "buf_gpu": np.asarray(cols["gpu"], dtype=np.float32),
            "buf_cpu": np.asarray(cols["cpu"], dtype=np.float32),
            "buf_seq": np.asarray(cols["seq"], dtype=np.int64),
            "buf_config": np.array(
                [
                    self.interval_s,
                    self.window_s,
                    self.lateness_s,
                    0.0,  # reserved: see buffer_config
                ]
            ),
            "buf_clock": np.array(
                [
                    self.max_event_time_s,
                    self.sealed_until_s,
                    float(self._next_seq),
                ]
            ),
            "buf_counters": np.array(
                [
                    self.samples_in,
                    self.duplicates,
                    self.late_dropped,
                    self.windows_emitted,
                    self.samples_out,
                    self.peak_resident,
                ],
                dtype=np.int64,
            ),
        }

    def load_state_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_arrays`.

        Sealed windows reuse their rows unchecked, so the restored rows
        (the only ones no arrival chunk validated) are checked here: a
        NaN or negative power, or ragged columns, raise
        :class:`~repro.errors.TelemetryError`.
        """
        self.interval_s, self.window_s, self.lateness_s = buffer_config(
            arrays
        )
        cols = {
            "time": np.array(arrays["buf_time"], dtype=np.float64),
            "node": np.array(arrays["buf_node"], dtype=np.int32),
            "gpu": np.array(arrays["buf_gpu"], dtype=np.float32),
            "cpu": np.array(arrays["buf_cpu"], dtype=np.float32),
            "seq": np.array(arrays["buf_seq"], dtype=np.int64),
        }
        TelemetryChunk(
            time_s=cols["time"],
            node_id=cols["node"],
            gpu_power_w=cols["gpu"],
            cpu_power_w=cols["cpu"],
        )
        if len(cols["seq"]) != len(cols["time"]):
            raise TelemetryError("buffer state columns have unequal length")
        self._pending = [cols] if len(cols["time"]) else []
        self._n_resident = int(len(cols["time"]))
        clock = arrays["buf_clock"]
        self.max_event_time_s = float(clock[0])
        self.sealed_until_s = float(clock[1])
        self._next_seq = int(clock[2])
        counters = arrays["buf_counters"]
        (
            self.samples_in,
            self.duplicates,
            self.late_dropped,
            self.windows_emitted,
            self.samples_out,
            self.peak_resident,
        ) = (int(x) for x in counters)
