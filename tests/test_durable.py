"""Every persisted file is replaced through the one durable write.

For each of the four writers — the engine checkpoint, the shard
checkpoint, the history manifest and the event-log manifest — the data
is fsynced before the rename and the directory after it (history
segments are fsynced before the manifest names them), and a write that
fails leaves the previous file loadable and no temporary file behind.
"""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest

from repro.obs.history import store as history_store
from repro.obs.log import store as log_store
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import StreamEngine
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.shard import (
    ShardConfig,
    _load_shard_checkpoint,
    _save_shard_checkpoint,
)
from repro.units import days

SHARD = {"units": [(0, 4)], "cfg": ShardConfig(), "fleet_nodes": 4,
         "seed": 0}


@pytest.fixture(scope="module")
def log():
    return SlurmSimulator(default_mix(fleet_nodes=4)).run(days(0.05), rng=0)


class Writers:
    """Each writer as ``(write(generation), load(), file name)``."""

    def __init__(self, tmp_path, log):
        self.tmp_path = tmp_path
        self.log = log
        self.history_dir = tmp_path / "history"
        self.log_dir = tmp_path / "logs"
        self.history = history_store.HistoryStore(
            {"t_start_s": "min", "x": "sum"}, dir=self.history_dir,
            chunk_rows=4,
        )
        self.logs = log_store.LogStore(self.log_dir)

    def checkpoint(self, generation: int):
        engine = StreamEngine(self.log)
        engine.chunks_in = generation
        save_checkpoint(engine, self.tmp_path / "ckpt.npz")

    def load_checkpoint(self):
        return load_checkpoint(self.tmp_path / "ckpt.npz", self.log).chunks_in

    def shard(self, generation: int):
        _save_shard_checkpoint(
            self.tmp_path / "shard.npz", states=[{"a": np.arange(3)}],
            counters=[np.full(2, generation)], **SHARD,
        )

    def load_shard(self):
        _states, counters = _load_shard_checkpoint(
            self.tmp_path / "shard.npz", **SHARD
        )
        return int(counters[0][0])

    def history_rows(self, generation: int):
        for i in range(5):
            t = 100.0 * generation + 10.0 * i
            self.history.append_row({"t_start_s": t, "x": 1.0})
        self.history.sync()

    def load_history(self):
        history_store.HistoryStore.open(self.history_dir)
        return json.loads(
            (self.history_dir / history_store.MANIFEST_NAME).read_text()
        )

    def log_records(self, generation: int):
        self.logs.append({"t_s": float(generation), "seq": generation})
        self.logs.sync()

    def load_logs(self):
        # Reopening adopts synced lines past the manifest's count, so
        # the manifest itself is what must survive.
        log_store.LogStore.open(self.log_dir)
        return json.loads(
            (self.log_dir / log_store.MANIFEST_NAME).read_text()
        )

    def cases(self):
        return {
            "checkpoint": (self.checkpoint, self.load_checkpoint,
                           self.tmp_path / "ckpt.npz"),
            "shard": (self.shard, self.load_shard,
                      self.tmp_path / "shard.npz"),
            "history": (self.history_rows, self.load_history,
                        self.history_dir / history_store.MANIFEST_NAME),
            "log": (self.log_records, self.load_logs,
                    self.log_dir / log_store.MANIFEST_NAME),
        }


CASES = ("checkpoint", "shard", "history", "log")


def _record(monkeypatch):
    """Patch os.fsync/os.replace to log (what, inode or name) in order."""
    events = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode)
                       else st.st_ino))
        fsync(fd)

    def logged_replace(src, dst):
        events.append(("replace", os.path.basename(os.fspath(dst))))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    return events


@pytest.mark.parametrize("case", CASES)
def test_data_fsync_then_rename_then_directory_fsync(
    case, tmp_path, log, monkeypatch
):
    write, _load, path = Writers(tmp_path, log).cases()[case]
    events = _record(monkeypatch)
    write(1)
    monkeypatch.undo()
    rename = events.index(("replace", path.name))
    data = events.index(("fsync", path.stat().st_ino))
    assert data < rename
    assert events[rename + 1] == ("fsync", "dir")
    if case == "history":
        # Every segment the manifest names was synced before the rename.
        segments = sorted(path.parent.glob("*.npy"))
        assert segments
        for segment in segments:
            assert events.index(("fsync", segment.stat().st_ino)) < rename


@pytest.mark.parametrize("case", CASES)
def test_a_failed_write_keeps_the_previous_file(
    case, tmp_path, log, monkeypatch
):
    write, load, path = Writers(tmp_path, log).cases()[case]
    write(1)
    before = load()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(2)
    monkeypatch.undo()
    assert load() == before
    assert not [p for p in tmp_path.rglob("*") if ".tmp" in p.name]


def _history_rows(store) -> list:
    """Every stored value of every level, column by column."""
    return [
        store.column_slice(name, level, 0, store.rows(level)).tolist()
        for level in range(store.n_levels)
        for name, _agg in store.columns
    ]


def _replace_failing_after(calls: int):
    """``os.replace`` that succeeds ``calls`` times, then fails."""
    replace = os.replace
    done = []

    def failing(src, dst):
        if len(done) >= calls:
            raise OSError("disk full")
        done.append(dst)
        replace(src, dst)

    return failing


@pytest.mark.parametrize("retention", ["compact", "gc"])
def test_failed_history_retention_keeps_every_row(
    retention, tmp_path, monkeypatch
):
    """Old segments go only after the manifest that drops them is durable:
    a manifest write that fails (the process dies there) leaves the
    previous manifest and every file it names."""
    store = history_store.HistoryStore(
        {"t_start_s": "min", "x": "sum"}, dir=tmp_path, chunk_rows=4,
        rollup_factors=(2,),
    )
    for i in range(22):
        store.append_row({"t_start_s": 10.0 * i, "x": float(i)})
        if i % 3 == 2:
            store.sync()            # ragged segments for compact
    store.sync()
    before = _history_rows(store)
    with pytest.raises(OSError, match="disk full"):
        if retention == "compact":
            # compact() syncs first; the write after the rewrite fails.
            monkeypatch.setattr(os, "replace", _replace_failing_after(1))
            store.compact()
        else:
            monkeypatch.setattr(os, "replace", _replace_failing_after(0))
            store.gc(keep_s=50.0)
    monkeypatch.undo()
    # The failed step is undone in memory too: closing the store (which
    # rewrites the manifest) keeps every row, and leaves no file that
    # the manifest does not name.
    assert _history_rows(store) == before
    store.close()
    reopened = history_store.HistoryStore.open(tmp_path)
    assert _history_rows(reopened) == before
    named = {
        seg["file"] for lv in reopened._levels for seg in lv.segments
    }
    on_disk = {p.name for p in tmp_path.glob("*.npy")}
    assert on_disk == named


def test_failed_log_gc_keeps_every_record(tmp_path, monkeypatch):
    store = log_store.LogStore(tmp_path, segment_records=2)
    records = [{"t_s": 10.0 * i, "seq": i} for i in range(9)]
    for record in records:
        store.append(record)
    store.sync()
    monkeypatch.setattr(os, "replace", _replace_failing_after(0))
    with pytest.raises(OSError, match="disk full"):
        store.gc(keep_s=20.0)
    monkeypatch.undo()
    # The failed gc is undone in memory too: closing the store (which
    # rewrites the manifest) keeps every record and the gc counters.
    assert list(store.iter_records()) == records
    assert store.gc_dropped_segments == store.gc_dropped_records == 0
    store.close()
    reopened = log_store.LogStore.open(tmp_path)
    assert list(reopened.iter_records()) == records
    assert reopened.check() == []
    assert reopened.gc_dropped_segments == 0
    named = {seg["file"] for seg in reopened.segments}
    assert {p.name for p in tmp_path.glob("*.jsonl")} == named
