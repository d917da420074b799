"""On-disk JSONL segment store for structured event logs.

The segment layout, the manifest and the crash-safe retention commit
are the history store's (:class:`repro.durable.SegmentManifest`); the
codec is this store's own.  Records are one sorted-key JSON object per
line, so segments are greppable, diffable, and byte-reproducible, and a
store closed mid-segment and reopened (a torn trailing line dropped)
continues the same file — reopen-resume is bitwise-equal to one
continuous run.  :meth:`LogStore.gc` drops whole closed segments whose
newest record fell behind the frontier by more than ``keep_s``, never
rewriting surviving bytes.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterator, Optional

from ...durable import SegmentManifest, retire
from ...errors import LogError

#: Records per segment file before rotation.
DEFAULT_SEGMENT_RECORDS = 4096


#: The one encoder of every log line (``json.dumps`` builds one per call).
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _render_line(record: dict) -> str:
    """Canonical single-line serialization: sorted keys, no spaces."""
    return _LINE_ENCODER.encode(record)


class LogStore:
    """JSONL segment store with manifested rotation, retention, and GC."""

    def __init__(self, dir, *, segment_records: int = DEFAULT_SEGMENT_RECORDS,
                 meta: Optional[dict] = None):
        if segment_records < 1:
            raise LogError("segment_records must be >= 1")
        manifest = SegmentManifest(dir, LogError, "log")
        manifest.create()
        self._load(manifest, {"segment_records": segment_records,
                              "next_file_id": 0, "meta": meta or {}})
        self.sync()

    # -- lifecycle ----------------------------------------------------

    @classmethod
    def open(cls, dir) -> "LogStore":
        """Reopen an existing store, resuming mid-segment appends.

        The newest segment file is scanned line-by-line; a trailing
        partial line (torn write on crash) is truncated so the resumed
        stream stays byte-identical to an uninterrupted run.
        """
        manifest = SegmentManifest(dir, LogError, "log")
        self = cls.__new__(cls)
        self._load(manifest, manifest.read(("segment_records", "next_file_id")))
        if self.segments and self.segments[-1]["records"] < self.segment_records:
            self._recover_tail(self.segments[-1])
        return self

    def _load(self, manifest: SegmentManifest, doc: dict) -> None:
        """Set every field from a manifest document."""
        self._manifest, self.dir = manifest, manifest.dir
        self.segment_records = int(doc["segment_records"])
        self.meta = dict(doc.get("meta", {}))
        self.segments = list(doc.get("segments", []))   # closed + active
        self.next_file_id = int(doc["next_file_id"])
        self.gc_dropped_segments = int(doc.get("gc_dropped_segments", 0))
        self.gc_dropped_records = int(doc.get("gc_dropped_records", 0))
        self._fh = None              # append handle for the active segment
        self._closed_bytes: dict = {}   # file -> size, fixed once closed

    def _recover_tail(self, seg: dict) -> None:
        """Re-adopt the still-open tail segment after a reopen."""
        path = self.dir / seg["file"]
        if not path.exists():
            raise LogError(f"log segment missing: {path}")
        raw = path.read_bytes()
        end = raw.rfind(b"\n") + 1
        if end != len(raw):          # torn trailing write: drop it
            with open(path, "r+b") as fh:
                fh.truncate(end)
            raw = raw[:end]
        records = [json.loads(line) for line in raw.splitlines() if line]
        if len(records) < seg["records"]:
            raise LogError(
                f"log segment {seg['file']} holds {len(records)} records, "
                f"manifest says {seg['records']}"
            )
        # Lines past the manifest count were synced to the file but not
        # yet to the manifest; adopt them.
        seg["records"] = len(records)
        if records:
            seg["t0"] = min(r.get("t_s", 0.0) for r in records)
            seg["t1"] = max(r.get("t_s", 0.0) for r in records)
            seg["seq0"] = records[0].get("seq", 0)
            seg["seq1"] = records[-1].get("seq", 0)

    def close(self) -> None:
        self.sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- appending ----------------------------------------------------

    def _start_segment(self) -> dict:
        name = f"seg-{self.next_file_id:06d}.jsonl"
        self.next_file_id += 1
        seg = {"file": name, "records": 0,
               "t0": None, "t1": None, "seq0": None, "seq1": None}
        self.segments.append(seg)
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.dir / name, "ab")
        return seg

    def append(self, record: dict) -> None:
        """Append one record to the active segment, rotating when full."""
        if self.segments and self.segments[-1]["records"] < self.segment_records:
            seg = self.segments[-1]
            if self._fh is None:     # reopened store: resume in append mode
                self._fh = open(self.dir / seg["file"], "ab")
        else:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            seg = self._start_segment()
        self._fh.write(_render_line(record).encode() + b"\n")
        t = float(record.get("t_s", 0.0))
        seg["records"] += 1
        seg["t0"] = t if seg["t0"] is None else min(seg["t0"], t)
        seg["t1"] = t if seg["t1"] is None else max(seg["t1"], t)
        if seg["seq0"] is None:
            seg["seq0"] = record.get("seq", 0)
        seg["seq1"] = record.get("seq", 0)

    def sync(self) -> None:
        """Flush the active segment and atomically rewrite the manifest."""
        self._sync_tail()
        self._manifest.write(self._manifest_doc())

    def _sync_tail(self) -> None:
        """Make the active segment's lines durable before a manifest
        counts them."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _manifest_doc(self) -> dict:
        return {
            "segment_records": self.segment_records,
            "next_file_id": self.next_file_id,
            "segments": self.segments,
            "records_total": self.records_resident(),
            "gc_dropped_segments": self.gc_dropped_segments,
            "gc_dropped_records": self.gc_dropped_records,
            "meta": self.meta,
        }

    # -- retention ----------------------------------------------------

    def gc(self, keep_s: float) -> dict:
        """Drop whole closed segments older than ``frontier - keep_s``.

        The still-open tail segment is never dropped.  Empty segments
        (zero records — possible only after a crash between rotation
        and the first append) are always collected.  The drop is one
        retention step of the manifest: files are unlinked only once
        the manifest without them is durable, so a crash (or a failed
        manifest write) leaves every listed segment readable.
        """
        if keep_s < 0:
            raise LogError("keep_s must be >= 0")
        span = self.time_span()
        cutoff = -math.inf if span is None else span[1] - keep_s
        kept, dropped = retire(
            self.segments, cutoff, size="records", open_last=True
        )
        dropped_records = sum(seg["records"] for seg in dropped)
        if dropped:
            self._sync_tail()
            with self._manifest.retention(
                [self], ("gc_dropped_segments", "gc_dropped_records"),
                self._manifest_doc,
            ):
                self.segments = kept
                self.gc_dropped_segments += len(dropped)
                self.gc_dropped_records += dropped_records
        return {"dropped_segments": len(dropped),
                "dropped_records": dropped_records}

    # -- reading ------------------------------------------------------

    def iter_records(self, t0: Optional[float] = None,
                     t1: Optional[float] = None) -> Iterator[dict]:
        """Yield records in append order from segments overlapping [t0, t1]."""
        if self._fh is not None:
            self._fh.flush()
        for seg in self.segments:
            if seg["records"] == 0:
                continue
            if t0 is not None and seg["t1"] is not None and seg["t1"] < t0:
                continue
            if t1 is not None and seg["t0"] is not None and seg["t0"] > t1:
                continue
            path = self.dir / seg["file"]
            with open(path, "rb") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    t = rec.get("t_s", 0.0)
                    if t0 is not None and t < t0:
                        continue
                    if t1 is not None and t > t1:
                        continue
                    yield rec

    # -- accounting ---------------------------------------------------

    def records_resident(self) -> int:
        return sum(seg["records"] for seg in self.segments)

    def next_seq(self) -> int:
        """The ``seq`` that follows the newest stored record (0 if none)."""
        for seg in reversed(self.segments):
            if seg.get("seq1") is not None:
                return seg["seq1"] + 1
        return 0

    def segment_count(self) -> int:
        return len(self.segments)

    def total_bytes(self) -> int:
        """Bytes on disk across segments (the tail's buffered lines not yet).

        Only the tail segment grows: it is read with ``os.fstat`` on the
        append handle, and each closed segment is sized once.
        """
        total = 0
        last = len(self.segments) - 1
        for i, seg in enumerate(self.segments):
            if i == last and self._fh is not None:
                total += os.fstat(self._fh.fileno()).st_size
                continue
            size = self._closed_bytes.get(seg["file"])
            if size is None:
                path = self.dir / seg["file"]
                if not path.exists():
                    continue
                size = path.stat().st_size
                if i != last:
                    self._closed_bytes[seg["file"]] = size
            total += size
        return total

    def time_span(self):
        """(oldest t0, newest t1) across resident records, or ``None``."""
        lo = hi = None
        for seg in self.segments:
            if seg["t0"] is None:
                continue
            lo = seg["t0"] if lo is None else min(lo, seg["t0"])
            hi = seg["t1"] if hi is None else max(hi, seg["t1"])
        return None if lo is None else (lo, hi)

    def summary(self) -> dict:
        span = self.time_span()
        return {
            "dir": str(self.dir),
            "segments": self.segment_count(),
            "records": self.records_resident(),
            "bytes": self.total_bytes(),
            "span_s": None if span is None else [span[0], span[1]],
            "gc_dropped_segments": self.gc_dropped_segments,
            "gc_dropped_records": self.gc_dropped_records,
        }

    def metric_values(self) -> dict:
        return {
            "log_store_segments": float(self.segment_count()),
            "log_store_records": float(self.records_resident()),
            "log_store_bytes": float(self.total_bytes()),
        }

    def check(self) -> list:
        """Validate manifest/segment consistency; list of problem strings."""
        problems = []
        prev_seq = None
        for seg in self.segments:
            path = self.dir / seg["file"]
            if not path.exists():
                problems.append(f"missing segment file {seg['file']}")
                continue
            records = [json.loads(line) for line in path.read_bytes().splitlines()
                       if line.strip()]
            if len(records) != seg["records"]:
                problems.append(
                    f"{seg['file']}: {len(records)} records on disk, "
                    f"manifest says {seg['records']}"
                )
                continue
            for rec in records:
                seq = rec.get("seq")
                if prev_seq is not None and seq is not None and seq <= prev_seq:
                    problems.append(
                        f"{seg['file']}: seq {seq} not increasing "
                        f"(previous {prev_seq})"
                    )
                if seq is not None:
                    prev_seq = seq
            if records:
                t_lo = min(r.get("t_s", 0.0) for r in records)
                t_hi = max(r.get("t_s", 0.0) for r in records)
                if seg["t0"] is not None and abs(t_lo - seg["t0"]) > 1e-9:
                    problems.append(f"{seg['file']}: t0 mismatch")
                if seg["t1"] is not None and abs(t_hi - seg["t1"]) > 1e-9:
                    problems.append(f"{seg['file']}: t1 mismatch")
        return problems
