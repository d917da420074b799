"""Checkpoint/resume for the streaming engine.

One compressed npz holds everything the engine needs to continue a
stream exactly where it stopped: the reorder buffer (pending samples,
sequence counter, watermark clocks, ingest counters) and the campaign
accumulator (cube arrays, histograms, CPU energy).  Restarting from a
checkpoint and feeding the rest of the stream converges to the same
cube, bitwise, as the uninterrupted run — the fold state and the
arrival-order bookkeeping are both preserved.

The scheduler log is *not* serialized (it is the join's reference data,
not stream state); the resume caller provides the same log, and the
accumulator validates that its domain/class axes match.
"""

from __future__ import annotations

import numpy as np

from ..durable import load_versioned_npz, save_versioned_npz
from ..scheduler.log import SchedulerLog
from .buffer import buffer_config
from .engine import StreamEngine

#: Format version written into every checkpoint.
CHECKPOINT_VERSION = 1


def save_checkpoint(engine: StreamEngine, path) -> None:
    """Serialize the engine's full state to a compressed npz, atomically.

    Written through :func:`~repro.durable.save_versioned_npz`, so a
    crash at any point leaves either the previous checkpoint or the new
    one, never a torn file.  Like ``np.savez_compressed``, a path
    without the ``.npz`` suffix gains it.
    """
    arrays = {
        "engine_chunks_in": np.array([engine.chunks_in], dtype=np.int64),
    }
    arrays.update(engine.buffer.state_arrays())
    arrays.update(engine.accumulator.state_arrays())
    save_versioned_npz(path, CHECKPOINT_VERSION, arrays)


def load_checkpoint(path, log: SchedulerLog) -> StreamEngine:
    """Rebuild an engine mid-stream from a checkpoint.

    ``log`` must be the same scheduler log the checkpointed engine was
    joining against (validated via the cube axes).  An unreadable,
    corrupt or incomplete file, or one whose reserved buffer field is
    not 0 (see :func:`~repro.stream.buffer.buffer_config`), raises
    :class:`~repro.errors.TelemetryError`.
    """
    arrays = load_versioned_npz(path, CHECKPOINT_VERSION)
    interval, window, lateness = buffer_config(arrays)
    engine = StreamEngine(
        log, interval_s=interval, window_s=window, lateness_s=lateness
    )
    engine.buffer.load_state_arrays(arrays)
    engine.accumulator.load_state_arrays(arrays)
    engine.chunks_in = int(arrays["engine_chunks_in"][0])
    return engine
