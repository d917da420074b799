"""The long-horizon history store: out-of-core columnar retention.

``HistoryStore`` persists an append-only stream of per-window rows
(one float64 value per named column) as a segment store shared with the
event log (:class:`repro.durable.SegmentManifest`: the directory, the
manifest, the crash-safe retention commit).  Its own codec: each segment
a plain ``.npy`` of shape ``(n_cols, rows)``, C-order, so one column of
one segment is a contiguous byte range, read through
``np.load(mmap_mode="r")`` slices — a 90-day range query touches only
the pages it asks for, so resident memory stays bounded (the
``history-gate`` CI job enforces an RSS ceiling).

Rollups
-------
On top of level 0 (one row per sealed window) the store maintains
deterministic multi-resolution rollup levels: with the default factors
``(20, 12)`` and 15 s windows, level 1 is 5 min buckets and level 2 is
1 h buckets.  Every level-k bucket is folded **directly from its
constituent level-0 rows** through the one shared :func:`fold_values`
fold — never from intermediate levels, never from running sums — so a
bucket's aggregate is bitwise-equal to an exact refold of its level-0
rows by construction, whatever the segmentation or arrival chunking
(the same canonical-fold discipline as ``merge_cubes``; asserted by
:func:`repro.obs.history.query.verify_rollups` in tests and CI).

Determinism: appends carry event-time rows only — no wall clock, no
randomness — so the same window sequence produces byte-identical
segments and manifest, whatever ``chunk_rows`` sliced them.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ...durable import SegmentManifest, retire
from ...errors import HistoryError

#: Rows per stored segment (level 0: ~34 minutes of 15 s windows per
#: default segment; a 90-day campaign is ~127 level-0 segments).
DEFAULT_CHUNK_ROWS = 4096

#: Rollup bucket factors relative to level 0: with 15 s windows,
#: 20 -> 5 min (level 1) and 20*12 -> 1 h (level 2).
DEFAULT_ROLLUP_FACTORS = (20, 12)

#: Column aggregations the fold understands.
AGGS = ("sum", "min", "max", "last")


def fold_values(values: np.ndarray, agg: str) -> float:
    """The one canonical fold: aggregate a 1-D float64 value run.

    Every rollup bucket and every refold check funnels through this
    function, which is what makes "rollup equals refold" a bitwise
    identity rather than a tolerance test.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        raise HistoryError("cannot fold an empty value run")
    if agg == "sum":
        return float(np.add.reduce(values))
    if agg == "min":
        return float(np.minimum.reduce(values))
    if agg == "max":
        return float(np.maximum.reduce(values))
    if agg == "last":
        return float(values[-1])
    raise HistoryError(
        f"unknown aggregation {agg!r} (expected one of {', '.join(AGGS)})"
    )


def _span_rows(factors: Sequence[int], level: int) -> int:
    """Level-0 rows per level-``level`` bucket."""
    span = 1
    for f in factors[:level]:
        span *= int(f)
    return span


class _Level:
    """Mutable state of one resolution level."""

    __slots__ = (
        "level", "span_rows", "dropped_rows", "segments",
        "tail_blocks", "tail_rows", "_tail_cache",
    )

    def __init__(self, level: int, span_rows: int) -> None:
        self.level = level
        self.span_rows = span_rows
        #: Rows garbage-collected off the front (global index offset).
        self.dropped_rows = 0
        #: ``{"file": str|None, "rows": int, "t0": float|None,
        #:   "t1": float|None, "array": ndarray|None}`` per segment.
        self.segments: List[dict] = []
        self.tail_blocks: List[np.ndarray] = []
        self.tail_rows = 0
        self._tail_cache: Optional[np.ndarray] = None

    @property
    def stored_rows(self) -> int:
        return sum(seg["rows"] for seg in self.segments)

    @property
    def rows(self) -> int:
        """Readable rows (stored segments + unflushed tail)."""
        return self.stored_rows + self.tail_rows

    @property
    def seen_rows(self) -> int:
        """Global rows ever appended, including gc-dropped ones."""
        return self.dropped_rows + self.rows

    def tail_array(self) -> Optional[np.ndarray]:
        if not self.tail_blocks:
            return None
        if self._tail_cache is None or (
            self._tail_cache.shape[0] != self.tail_rows
        ):
            self._tail_cache = np.concatenate(self.tail_blocks, axis=0)
        return self._tail_cache

    def push_tail(self, block: np.ndarray) -> None:
        self.tail_blocks.append(block)
        self.tail_rows += block.shape[0]
        self._tail_cache = None

    def drop_tail(self, rows: int) -> None:
        """Drop the first ``rows`` tail rows (once a segment holds them)."""
        rest = self.tail_array()[rows:]
        self.tail_blocks = [rest] if rest.shape[0] else []
        self.tail_rows -= rows
        self._tail_cache = rest if rest.shape[0] else None


class HistoryStore:
    """Append-only columnar history with deterministic rollups.

    ``columns`` maps each series name to its fold aggregation (one of
    :data:`AGGS`).  With ``dir=None`` the store is memory-resident (the
    live dashboard case); with a directory it writes memmap-readable
    ``.npy`` segments plus ``manifest.json`` and answers range queries
    out of core.  Both modes produce bitwise-identical column values
    (asserted in ``tests/obs/test_history.py``).
    """

    def __init__(
        self,
        columns: Union[Mapping[str, str], Sequence[Tuple[str, str]]],
        *,
        dir: Optional[Union[str, Path]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        rollup_factors: Sequence[int] = DEFAULT_ROLLUP_FACTORS,
        window_s: Optional[float] = None,
        meta: Optional[dict] = None,
    ) -> None:
        pairs = (
            list(columns.items()) if isinstance(columns, Mapping)
            else [(str(n), str(a)) for n, a in columns]
        )
        if not pairs:
            raise HistoryError("history store needs at least one column")
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise HistoryError("duplicate column names")
        for name, agg in pairs:
            if agg not in AGGS:
                raise HistoryError(
                    f"column {name!r}: unknown aggregation {agg!r}"
                )
        if chunk_rows <= 0:
            raise HistoryError("chunk_rows must be positive")
        factors = tuple(int(f) for f in rollup_factors)
        if any(f < 2 for f in factors):
            raise HistoryError("rollup factors must be >= 2")
        self.columns: List[Tuple[str, str]] = pairs
        self._col_index = {n: i for i, (n, _) in enumerate(pairs)}
        self._aggs = [a for _, a in pairs]
        self.chunk_rows = int(chunk_rows)
        self.rollup_factors = factors
        self.window_s = None if window_s is None else float(window_s)
        self.meta = dict(meta or {})
        self.dir = None if dir is None else Path(dir)
        self._manifest = SegmentManifest(self.dir, HistoryError, "history")
        self._tix = self._col_index.get("t_start_s")
        self._levels = [
            _Level(k, _span_rows(factors, k))
            for k in range(len(factors) + 1)
        ]
        self._next_file_id = 0
        self._mmaps: Dict[str, np.ndarray] = {}
        self._last_t0: Optional[float] = None
        if self.dir is not None:
            self._manifest.create()
        self._rebuild_pending()

    # -- construction from disk ---------------------------------------------------

    @classmethod
    def open(cls, dir: Union[str, Path]) -> "HistoryStore":
        """Open an existing on-disk store for reading and appending."""
        manifest = SegmentManifest(dir, HistoryError, "history")
        doc = manifest.read(
            ("columns", "chunk_rows", "rollup_factors", "levels")
        )
        store = cls(
            doc["columns"],
            chunk_rows=int(doc["chunk_rows"]),
            rollup_factors=doc["rollup_factors"],
            window_s=doc.get("window_s"),
            meta=doc.get("meta"),
        )
        store.dir, store._manifest = manifest.dir, manifest
        store._next_file_id = int(doc.get("next_file_id", 0))
        for lv, spec in zip(store._levels, doc["levels"]):
            lv.dropped_rows = int(spec.get("dropped_rows", 0))
            lv.segments = [dict(seg, array=None) for seg in spec["segments"]]
        store._rebuild_pending()
        if store._tix is not None and store.rows(0):
            store._last_t0 = store.time_span()[1]
        return store

    def _rebuild_pending(self) -> None:
        """Re-stage level-0 rows belonging to incomplete rollup buckets.

        Bucket alignment is global (bucket ``i`` covers level-0 rows
        ``[i*span, (i+1)*span)``), so after reopening a synced store the
        rows of any partially-filled bucket must be staged again before
        appends continue.  Those rows are by definition the newest
        level-0 rows, so they are always still stored.
        """
        self._pending: List[List[np.ndarray]] = [
            [] for _ in self._levels
        ]
        self._pending_rows = [0 for _ in self._levels]
        seen0 = self._levels[0].seen_rows
        for lv in self._levels[1:]:
            need = seen0 - lv.seen_rows * lv.span_rows
            if need < 0:
                raise HistoryError(
                    f"level {lv.level} is ahead of level 0 "
                    "(corrupt manifest)"
                )
            if need:
                rows0 = self.rows(0)
                block = self._rows_block(0, rows0 - need, rows0)
                self._pending[lv.level].append(block)
                self._pending_rows[lv.level] = need

    # -- appends ------------------------------------------------------------------

    def append_row(self, values: Mapping[str, float]) -> None:
        """Append one level-0 row (one value per declared column)."""
        row = np.empty((1, len(self.columns)), dtype=np.float64)
        try:
            for j, (name, _) in enumerate(self.columns):
                row[0, j] = float(values[name])
        except KeyError as exc:
            raise HistoryError(f"row is missing column {exc}") from exc
        self.append_batch(row)

    def append_batch(self, block: np.ndarray) -> None:
        """Append many level-0 rows at once: ``(rows, n_cols)`` float64."""
        block = np.ascontiguousarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != len(self.columns):
            raise HistoryError(
                f"batch shape {block.shape} does not match "
                f"{len(self.columns)} columns"
            )
        if block.shape[0] == 0:
            return
        if self._tix is not None:
            t = block[:, self._tix]
            if np.any(np.diff(t) < 0) or (
                self._last_t0 is not None and t[0] < self._last_t0
            ):
                raise HistoryError(
                    "t_start_s must be non-decreasing across appends"
                )
            self._last_t0 = float(t[-1])
        self._levels[0].push_tail(block)
        for lv in self._levels[1:]:
            self._roll_into(lv, block)
        # Every level holds the block before any segment is written, so
        # a failed write leaves all rows in memory for the next flush.
        for lv in self._levels:
            self._flush_level(lv.level)

    def _roll_into(self, lv: _Level, block: np.ndarray) -> None:
        """Fold any level-0 buckets this block completed into ``lv``."""
        k = lv.level
        self._pending[k].append(block)
        self._pending_rows[k] += block.shape[0]
        span = lv.span_rows
        if self._pending_rows[k] < span:
            return
        staged = (
            self._pending[k][0] if len(self._pending[k]) == 1
            else np.concatenate(self._pending[k], axis=0)
        )
        n_buckets = staged.shape[0] // span
        out = np.empty(
            (n_buckets, len(self.columns)), dtype=np.float64
        )
        for i in range(n_buckets):
            bucket = staged[i * span:(i + 1) * span]
            for j, agg in enumerate(self._aggs):
                out[i, j] = fold_values(bucket[:, j], agg)
        rest = staged[n_buckets * span:]
        self._pending[k] = [rest] if rest.shape[0] else []
        self._pending_rows[k] = rest.shape[0]
        lv.push_tail(out)

    # -- segment management -------------------------------------------------------

    def _flush_level(self, level: int, *, force: bool = False) -> None:
        lv = self._levels[level]
        while lv.tail_rows >= self.chunk_rows:
            self._emit_segment(lv, self.chunk_rows)
        if force and lv.tail_rows:
            self._emit_segment(lv, lv.tail_rows)

    def _make_segment(self, level: int, block: np.ndarray) -> dict:
        # (n_cols, rows) C-order: one column of one segment is one
        # contiguous byte range, the unit a memmap range query touches.
        cols = np.ascontiguousarray(block.T)
        t0 = t1 = None
        if self._tix is not None and block.shape[0]:
            t0 = float(block[0, self._tix])
            t1 = float(block[-1, self._tix])
        seg = {"rows": int(block.shape[0]), "t0": t0, "t1": t1}
        if self.dir is None:
            seg["file"] = None
            seg["array"] = cols
        else:
            name = f"L{level}-{self._next_file_id:06d}.npy"
            # Synced before any manifest names it; a failed write leaves
            # no partial file behind.
            try:
                with open(self.dir / name, "wb") as fh:
                    np.save(fh, cols)
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(self.dir / name)
                raise
            self._next_file_id += 1
            seg["file"] = name
            seg["array"] = None
        return seg

    def _emit_segment(self, lv: _Level, rows: int) -> None:
        """Write the first ``rows`` tail rows as a segment, then drop them:
        rows leave the tail only once a durable segment holds them."""
        block = lv.tail_array()[:rows]
        lv.segments.append(self._make_segment(lv.level, block))
        lv.drop_tail(rows)

    def _seg_array(self, seg: dict) -> np.ndarray:
        if seg["array"] is not None:
            return seg["array"]
        path = str(self.dir / seg["file"])
        arr = self._mmaps.get(path)
        if arr is None:
            arr = np.load(path, mmap_mode="r")
            self._mmaps[path] = arr
        return arr

    def sync(self) -> "HistoryStore":
        """Flush tails into segments and (on disk) rewrite the manifest."""
        for lv in self._levels:
            self._flush_level(lv.level, force=True)
        if self.dir is not None:
            self._manifest.write(self._manifest_doc())
        return self

    def _manifest_doc(self) -> dict:
        return {
            "columns": [[n, a] for n, a in self.columns],
            "rollup_factors": list(self.rollup_factors),
            "chunk_rows": self.chunk_rows,
            "window_s": self.window_s,
            "meta": self.meta,
            "next_file_id": self._next_file_id,
            "levels": [
                {
                    "level": lv.level,
                    "span_rows": lv.span_rows,
                    "dropped_rows": lv.dropped_rows,
                    "rows": lv.stored_rows,
                    "segments": [
                        {
                            "file": seg["file"],
                            "rows": seg["rows"],
                            "t0": seg["t0"],
                            "t1": seg["t1"],
                        }
                        for seg in lv.segments
                    ],
                }
                for lv in self._levels
            ],
        }

    def close(self) -> None:
        """Drop memmap handles (idempotent; reads reopen lazily)."""
        self._mmaps.clear()

    # -- reads --------------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    def level_span_rows(self, level: int) -> int:
        return self._levels[level].span_rows

    def level_span_s(self, level: int) -> Optional[float]:
        if self.window_s is None:
            return None
        return self._levels[level].span_rows * self.window_s

    def rows(self, level: int) -> int:
        return self._levels[level].rows

    def dropped_rows(self, level: int) -> int:
        return self._levels[level].dropped_rows

    def _check_series(self, name: str) -> int:
        j = self._col_index.get(name)
        if j is None:
            raise HistoryError(
                f"unknown series {name!r} "
                f"(have: {', '.join(n for n, _ in self.columns)})"
            )
        return j

    def series_agg(self, name: str) -> str:
        return self._aggs[self._check_series(name)]

    def _spans(self, level: int, r0: int, r1: int):
        """``(array, a, b)`` for each piece of local rows ``[r0, r1)``:
        stored segments as ``(n_cols, rows)``, then the tail transposed
        to the same layout."""
        lv = self._levels[level]
        r0, r1 = max(0, int(r0)), min(lv.rows, int(r1))
        offset = 0
        for seg in lv.segments:
            if offset >= r1:
                return
            a, b = max(r0 - offset, 0), min(r1 - offset, seg["rows"])
            if a < b:
                yield self._seg_array(seg), a, b
            offset += seg["rows"]
        if offset < r1 and r0 < r1:
            yield lv.tail_array().T, max(r0 - offset, 0), r1 - offset

    def column_slice(
        self, name: str, level: int, r0: int, r1: int
    ) -> np.ndarray:
        """Column values for local rows ``[r0, r1)`` — a float64 copy.

        Disk-backed stores gather via memmap slices: only the pages of
        this column in the overlapped segments are touched.
        """
        j = self._check_series(name)
        pieces = [arr[j, a:b] for arr, a, b in self._spans(level, r0, r1)]
        out = np.concatenate(pieces) if pieces else np.empty(0)
        return np.ascontiguousarray(out, dtype=np.float64)

    def _rows_block(self, level: int, r0: int, r1: int) -> np.ndarray:
        """All columns for local rows ``[r0, r1)`` as ``(rows, n_cols)``."""
        pieces = [np.asarray(arr[:, a:b]).T
                  for arr, a, b in self._spans(level, r0, r1)]
        if not pieces:
            return np.empty((0, len(self.columns)))
        return np.ascontiguousarray(
            np.concatenate(pieces, axis=0), dtype=np.float64
        )

    def _locate_time(self, level: int, t: float) -> int:
        """First local row of ``level`` with ``t_start_s >= t``."""
        if self._tix is None:
            raise HistoryError("store has no t_start_s column")
        lv = self._levels[level]
        offset = 0
        for seg in lv.segments:
            if seg["t1"] is not None and seg["t1"] >= t:
                col = self._seg_array(seg)[self._tix]
                return offset + int(np.searchsorted(col, t, side="left"))
            offset += seg["rows"]
        tail = lv.tail_array()
        if tail is not None:
            col = tail[:, self._tix]
            return offset + int(np.searchsorted(col, t, side="left"))
        return offset

    def row_range(
        self, level: int, t0: float, t1: float
    ) -> Tuple[int, int]:
        """Local rows whose window start falls in ``[t0, t1)``."""
        return self._locate_time(level, t0), self._locate_time(level, t1)

    def time_span(
        self, rows: Optional[int] = None
    ) -> Optional[Tuple[float, float]]:
        """(first window start, last window start) of the first ``rows``
        level-0 rows (default: all readable ones); ``None`` if empty."""
        n = self.rows(0) if rows is None else rows
        if self._tix is None or n == 0:
            return None
        first = self.column_slice("t_start_s", 0, 0, 1)[0]
        last = self.column_slice("t_start_s", 0, n - 1, n)[0]
        return float(first), float(last)

    # -- maintenance --------------------------------------------------------------

    def compact(self) -> dict:
        """Merge ragged segments into full ``chunk_rows`` segments.

        Repeated ``sync()`` calls (one per live dashboard refresh, say)
        leave short tail segments behind; compaction rewrites each level
        into maximal uniform segments.  Column values are untouched —
        the rewrite is bitwise-invisible to every read (asserted in
        tests) — and memory stays bounded at one chunk per step.  The
        rewrite is one retention step of the manifest, so a crash
        leaves a readable store.
        """
        if self.dir is None:
            return {"rewritten_segments": 0, "removed_files": 0}
        self.sync()
        rewritten = 0
        with self._manifest.retention(
            self._levels, ("dropped_rows",), self._manifest_doc
        ) as removed:
            for lv in self._levels:
                if all(seg["rows"] == self.chunk_rows
                       for seg in lv.segments[:-1]):
                    continue
                total = lv.stored_rows
                new_segments: List[dict] = []
                for r0 in range(0, total, self.chunk_rows):
                    block = self._rows_block(
                        lv.level, r0, min(r0 + self.chunk_rows, total)
                    )
                    new_segments.append(self._make_segment(lv.level, block))
                    rewritten += 1
                lv.segments = new_segments
        self._mmaps.clear()          # handles on the deleted files
        return {"rewritten_segments": rewritten,
                "removed_files": len(removed)}

    def gc(self, keep_s: float) -> dict:
        """Drop whole segments older than ``keep_s`` before the frontier.

        Retention is segment-granular (cheap, no rewrite): a segment is
        dropped only when every row in it starts before
        ``last_t0 - keep_s``.  Rollup levels gc independently; refold
        verification skips buckets whose level-0 rows are gone.
        """
        if keep_s < 0:
            raise HistoryError("keep_s must be >= 0")
        span = self.time_span()
        if span is None:
            return {"dropped_rows": {}, "removed_files": 0}
        cutoff = span[1] - keep_s
        dropped: Dict[int, int] = {}
        with self._manifest.retention(
            self._levels, ("dropped_rows",), self._manifest_doc
        ) as removed:
            for lv in self._levels:
                lv.segments, gone = retire(lv.segments, cutoff, size="rows")
                if gone:
                    dropped[lv.level] = sum(seg["rows"] for seg in gone)
                    lv.dropped_rows += dropped[lv.level]
        self._mmaps.clear()
        return {"dropped_rows": dropped, "removed_files": len(removed)}

    # -- views --------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Stored column bytes across all levels (segments + tails)."""
        per_row = 8 * len(self.columns)
        return per_row * sum(lv.rows for lv in self._levels)

    def segment_count(self) -> int:
        return sum(len(lv.segments) for lv in self._levels)

    def summary(self) -> dict:
        """JSON-ready description (``repro obs history info``)."""
        span = self.time_span()
        return {
            "dir": None if self.dir is None else str(self.dir),
            "columns": len(self.columns),
            "window_s": self.window_s,
            "chunk_rows": self.chunk_rows,
            "rollup_factors": list(self.rollup_factors),
            "bytes": self.total_bytes(),
            "t_first_s": None if span is None else span[0],
            "t_last_s": None if span is None else span[1],
            "levels": [
                {
                    "level": lv.level,
                    "span_rows": lv.span_rows,
                    "span_s": self.level_span_s(lv.level),
                    "rows": lv.rows,
                    "dropped_rows": lv.dropped_rows,
                    "segments": len(lv.segments),
                }
                for lv in self._levels
            ],
        }

    def metric_values(self) -> Dict[str, float]:
        return {
            "history_windows_total": float(self._levels[0].seen_rows),
            "history_rows_resident": float(
                sum(lv.rows for lv in self._levels)
            ),
            "history_segments": float(self.segment_count()),
            "history_bytes": float(self.total_bytes()),
        }
