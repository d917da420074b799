"""Stream sources: where arrival chunks come from.

A *source* is any iterable of :class:`~repro.telemetry.schema.TelemetryChunk`;
the engine makes no further assumptions.  This module provides the
pluggable ones:

* :func:`replay_store` — event-time-ordered replay of a materialized
  store (or an npz file loaded into one);
* :func:`replay_generator` — time-ordered replay straight from a
  :class:`~repro.telemetry.generator.FleetTelemetryGenerator` without
  materializing the fleet (each allocation is rendered once, when its
  first tick comes up, and dropped after its last);
* :func:`file_source` — npz or CSV telemetry files;
* :func:`simulated_fleet` — an in-process simulated fleet (scheduler +
  generator), the one-call entry used by ``repro stream``;
* :func:`perturb` — wraps any source and re-delivers its samples
  shuffled within a lateness horizon, with injected duplicates: the
  adversarial arrival pattern the reorder buffer exists for;
* :func:`canonical_windows` — the *reference* event-time windowing used
  to state the streaming-vs-batch equivalence contract (implemented
  independently of the reorder buffer on purpose).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from .. import constants, units
from ..errors import TelemetryError
from ..rng import derive_seed
from ..scheduler import SlurmSimulator, default_mix
from ..scheduler.log import SchedulerLog
from ..telemetry import FleetTelemetryGenerator, TelemetryStore
from ..telemetry.io_csv import read_telemetry_csv_chunks
from ..telemetry.schema import TelemetryChunk

#: Default arrival-chunk span in aggregated ticks.
DEFAULT_CHUNK_TICKS = 20

TelemetryLike = Union[TelemetryStore, Iterable[TelemetryChunk]]


def _as_rows(telemetry: TelemetryLike) -> TelemetryChunk:
    """Materialize any telemetry input as one chunk."""
    if isinstance(telemetry, TelemetryStore):
        return telemetry.chunk
    chunks = list(telemetry)
    if not chunks:
        raise TelemetryError("no telemetry chunks")
    return TelemetryChunk.concatenate(chunks)


def _sorted_rows(chunk: TelemetryChunk) -> TelemetryChunk:
    """Rows in canonical (time, node) order, exact duplicates removed."""
    order = np.lexsort((chunk.node_id, chunk.time_s))
    time = chunk.time_s[order]
    node = chunk.node_id[order]
    gpu = chunk.gpu_power_w[order]
    cpu = chunk.cpu_power_w[order]
    if len(time) > 1:
        keep = np.ones(len(time), dtype=bool)
        keep[1:] = (time[1:] != time[:-1]) | (node[1:] != node[:-1])
        time, node, gpu, cpu = time[keep], node[keep], gpu[keep], cpu[keep]
    return TelemetryChunk(
        time_s=time, node_id=node, gpu_power_w=gpu, cpu_power_w=cpu
    )


def _slice_by_time(
    rows: TelemetryChunk, span_s: float
) -> Iterator[TelemetryChunk]:
    """Cut time-sorted rows at multiples of ``span_s``."""
    time = rows.time_s
    if not len(time):
        return
    first = np.floor(time[0] / span_s)
    last = np.floor(time[-1] / span_s)
    for w in np.arange(first, last + 1):
        lo = np.searchsorted(time, w * span_s, side="left")
        hi = np.searchsorted(time, (w + 1) * span_s, side="left")
        if hi > lo:
            yield TelemetryChunk(
                time_s=time[lo:hi],
                node_id=rows.node_id[lo:hi],
                gpu_power_w=rows.gpu_power_w[lo:hi],
                cpu_power_w=rows.cpu_power_w[lo:hi],
            )


def canonical_windows(
    telemetry: TelemetryLike,
    *,
    window_s: float,
) -> Iterator[TelemetryChunk]:
    """The canonical event-time windowing of a telemetry set.

    Sorted by ``(time, node)``, exact-duplicate free, cut at multiples
    of ``window_s`` — exactly the chunk sequence a drained
    :class:`~repro.stream.engine.StreamEngine` folds, whatever order the
    samples arrived in.  Feeding these windows to
    :func:`repro.core.join_campaign` is the batch side of the
    equivalence contract.
    """
    yield from _slice_by_time(_sorted_rows(_as_rows(telemetry)), window_s)


# -- replay sources ----------------------------------------------------------------


def replay_store(
    store: TelemetryStore,
    *,
    chunk_ticks: int = DEFAULT_CHUNK_TICKS,
) -> Iterator[TelemetryChunk]:
    """Replay a materialized store in event-time order."""
    if chunk_ticks <= 0:
        raise TelemetryError("chunk_ticks must be positive")
    span = chunk_ticks * store.interval_s
    yield from _slice_by_time(_sorted_rows(store.chunk), span)


def replay_generator(
    gen: FleetTelemetryGenerator,
    *,
    chunk_ticks: int = DEFAULT_CHUNK_TICKS,
) -> Iterator[TelemetryChunk]:
    """Time-ordered replay straight from a generator.

    Out-of-band collectors poll the whole fleet each tick, so the
    physical arrival order is time-major: each chunk holds
    ``chunk_ticks`` ticks of every node in ``(time, node)`` order,
    bitwise-equal to :func:`replay_store` over ``gen.generate()``.
    Every allocation is rendered once, so the cost is linear in the
    horizon.  Chunks are rendered a block at a time, so memory is
    bounded by one block of whole chunks within a fixed row budget (or
    one chunk, when a chunk alone is larger) and the allocations live
    in it (see :meth:`FleetTelemetryGenerator.time_chunks`).
    """
    yield from gen.time_chunks(chunk_ticks)


def file_source(
    path,
    *,
    chunk_ticks: int = DEFAULT_CHUNK_TICKS,
    rows_per_chunk: int = 100_000,
) -> Iterator[TelemetryChunk]:
    """Stream telemetry from an npz store or a CSV file.

    npz files replay in event-time order; CSV rows stream in file order
    (any order is fine — the engine's reorder buffer canonicalizes).
    """
    p = Path(path)
    if p.suffix == ".npz":
        yield from replay_store(
            TelemetryStore.load(p), chunk_ticks=chunk_ticks
        )
    else:
        yield from read_telemetry_csv_chunks(
            p, rows_per_chunk=rows_per_chunk
        )


def simulated_fleet(
    *,
    fleet_nodes: int = 32,
    days: float = 1.0,
    seed: int = 0,
    chunk_ticks: int = DEFAULT_CHUNK_TICKS,
) -> Tuple[SchedulerLog, Iterator[TelemetryChunk]]:
    """An in-process simulated fleet: (scheduler log, live source).

    Same construction as the batch campaign
    (:func:`repro.experiments._campaign.build_campaign`): the scheduler
    log seeds both the telemetry and the join, so streaming results are
    directly comparable to the batch experiments at equal config.
    """
    mix = default_mix(fleet_nodes=fleet_nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=seed)
    gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    return log, replay_generator(gen, chunk_ticks=chunk_ticks)


# -- adversarial delivery ----------------------------------------------------------


def perturb(
    source: TelemetryLike,
    *,
    seed: int = 0,
    lateness_s: float = 4 * constants.TELEMETRY_INTERVAL_S,
    dup_fraction: float = 0.0,
    drop_fraction: float = 0.0,
    rows_per_chunk: int = 4096,
) -> Iterator[TelemetryChunk]:
    """Re-deliver a source shuffled, duplicated, and gapped.

    Every sample (and every injected duplicate) gets a delivery time
    ``event_time + U[0, lateness_s)`` and the stream is re-emitted in
    delivery order: samples arrive out of order, but never later than
    ``lateness_s`` behind the newest event already delivered — an
    engine configured with ``lateness_s`` this large drops nothing.
    ``dup_fraction`` injects duplicate records; ``drop_fraction``
    deletes samples outright (sensor gaps).  Deterministic per seed.
    Materializes the source (a test/demo harness, not a transport).
    """
    if not 0 <= drop_fraction < 1:
        raise TelemetryError("drop_fraction must be in [0, 1)")
    if dup_fraction < 0:
        raise TelemetryError("dup_fraction must be >= 0")
    if rows_per_chunk <= 0:
        raise TelemetryError("rows_per_chunk must be positive")
    rows = _as_rows(source)
    rng = np.random.default_rng(derive_seed(seed, "stream-perturb"))
    n = len(rows)
    idx = np.arange(n)
    if drop_fraction:
        keep = rng.random(n) >= drop_fraction
        idx = idx[keep]
    if dup_fraction:
        n_dup = int(round(dup_fraction * len(idx)))
        dups = rng.choice(idx, size=n_dup, replace=True)
        idx = np.concatenate([idx, dups])
    delivery = rows.time_s[idx]
    if lateness_s > 0:
        delivery = delivery + rng.uniform(0.0, lateness_s, size=len(idx))
    order = np.argsort(delivery, kind="stable")
    idx = idx[order]
    for lo in range(0, len(idx), rows_per_chunk):
        sel = idx[lo : lo + rows_per_chunk]
        yield TelemetryChunk(
            time_s=rows.time_s[sel],
            node_id=rows.node_id[sel],
            gpu_power_w=rows.gpu_power_w[sel],
            cpu_power_w=rows.cpu_power_w[sel],
        )
