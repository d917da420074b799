"""Every persisted file is replaced through the one durable write.

For each of the six writers — the engine checkpoint, the shard
checkpoint, the history manifest, the event-log manifest,
``incidents.json`` and ``health.json`` — the data
is fsynced before the rename and the directory after it (history
segments are fsynced before the manifest names them), and a write that
fails leaves the previous file loadable and no temporary file behind.

The two segment stores share one manifest (``repro.durable``): a
crash-point harness fails every fsync, rename and unlink of every
persisting store operation in turn and reopens a copy of the directory,
which must read as the store before the operation or after it.  A
damaged manifest or checkpoint is a library error, never a traceback.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import stat

import numpy as np
import pytest

from repro.cli import _write_health_state, main
from repro.durable import MANIFEST_NAME
from repro.errors import HistoryError, LogError, TelemetryError
from repro.obs.forensics import (
    Forensics,
    load_forensics,
    write_forensics_artifacts,
)
from repro.obs.health import HealthMonitor
from repro.obs.history import store as history_store
from repro.obs.history.query import verify_rollups
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
            (self.history_dir / MANIFEST_NAME).read_text()
        )

    def log_records(self, generation: int):
        self.logs.append({"t_s": float(generation), "seq": generation})
        self.logs.sync()

    def load_logs(self):
        # Reopening adopts synced lines past the manifest's count, so
        # the manifest itself is what must survive.
        log_store.LogStore.open(self.log_dir)
        return json.loads(
            (self.log_dir / MANIFEST_NAME).read_text()
        )

    def incidents(self, generation: int):
        write_forensics_artifacts(
            self.tmp_path / "obs", Forensics(), command=f"run {generation}"
        )

    def load_incidents(self):
        return load_forensics(self.tmp_path / "obs" / "incidents.json")

    def health(self, generation: int):
        _write_health_state(HealthMonitor(), self.tmp_path / "obs")

    def load_health(self):
        return json.loads((self.tmp_path / "obs" / "health.json").read_text())

    def cases(self):
        return {
            "checkpoint": (self.checkpoint, self.load_checkpoint,
                           self.tmp_path / "ckpt.npz"),
            "shard": (self.shard, self.load_shard,
                      self.tmp_path / "shard.npz"),
            "history": (self.history_rows, self.load_history,
                        self.history_dir / MANIFEST_NAME),
            "log": (self.log_records, self.load_logs,
                    self.log_dir / MANIFEST_NAME),
            "incidents": (self.incidents, self.load_incidents,
                          self.tmp_path / "obs" / "incidents.json"),
            "health": (self.health, self.load_health,
                       self.tmp_path / "obs" / "health.json"),
        }


CASES = ("checkpoint", "shard", "history", "log", "incidents", "health")


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


def test_failed_segment_write_keeps_every_row(tmp_path, monkeypatch):
    """A segment write that fails keeps its rows in memory and leaves no
    partial file; a retried sync writes them and the store reopens."""
    store = history_store.HistoryStore(
        {"t_start_s": "min", "x": "sum"}, dir=tmp_path, chunk_rows=4,
        rollup_factors=(2,),
    )
    for i in range(9):
        store.append_row({"t_start_s": 10.0 * i, "x": float(i)})
    fsync = os.fsync
    failed = []

    def failing_first(fd):
        if not failed:
            failed.append(fd)
            raise OSError("disk full")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_first)
    with pytest.raises(OSError, match="disk full"):
        store.sync()
    monkeypatch.undo()
    assert store.rows(0) == 9
    store.sync()
    store.close()
    reopened = history_store.HistoryStore.open(tmp_path)
    assert reopened.rows(0) == 9
    assert reopened.column_slice("x", 0, 0, 9).tolist() == [
        float(i) for i in range(9)
    ]
    assert verify_rollups(reopened) == []
    named = {
        seg["file"] for lv in reopened._levels for seg in lv.segments
    }
    assert {p.name for p in tmp_path.glob("*.npy")} == named


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


# -- one manifest: same content as the per-store writers it replaced ----------


def _canonical_sha(path) -> str:
    doc = json.loads(path.read_text())
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_history_manifest_content_is_pinned(tmp_path):
    """sha256 of the parsed manifest after append, sync, compact and gc
    (digests recorded before the stores shared one manifest writer)."""
    store = history_store.HistoryStore(
        {"t_start_s": "min", "x": "sum", "peak": "max", "cap": "last"},
        dir=tmp_path, chunk_rows=4, rollup_factors=(2, 3), window_s=10.0,
        meta={"campaign": "pinned"},
    )

    def rows(lo, hi):
        for i in range(lo, hi):
            store.append_row({"t_start_s": 10.0 * i, "x": (i * i % 17) + 0.25,
                              "peak": float(i % 5), "cap": 560.0 - i})
            if i % 7 == 3:
                store.sync()

    digests = []
    rows(0, 40)
    store.sync()
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    store.compact()
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    store.gc(keep_s=150.0)
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    rows(40, 51)
    store.sync()
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    assert digests == [
        "e235a512e916042c9d7d9d5782572a1c6a07d56e251ba1c2f41bafbcca31837d",
        "33326116841fe6d12604adbcbd7c77c66d955a6481358a4fa7ccc92e5e9b3823",
        "47b44c5249b7c11908974d2a28a5557016f7321df2581502616b0c5837f36339",
        "0fc6bdb728db34f1bbd8f9d995a27cd4d83d78e206b9317eda2a9a435d9ffa8a",
    ]


def test_log_manifest_content_is_pinned(tmp_path):
    store = log_store.LogStore(tmp_path, segment_records=3,
                               meta={"run": "pinned"})
    digests = []
    for i in range(17):
        store.append({"t_s": 10.0 * i, "seq": i, "event": "tick", "n": i % 4})
    store.sync()
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    store.gc(keep_s=60.0)
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    for i in range(17, 22):
        store.append({"t_s": 10.0 * i, "seq": i, "event": "tock", "n": i % 4})
    store.close()
    digests.append(_canonical_sha(tmp_path / MANIFEST_NAME))
    assert digests == [
        "de1f55773acd5ac57cd6090e6711fdd2f70d73979a7654c0715fa93e0a6ce0dc",
        "18ce24db38782cf575d86d52467dcfb181bf155a123131ec4a76cc552e5148f5",
        "d056edeea6bd6f0ca3fd556739bf236e9de324d627edfe5b0eef9e133005bb43",
    ]


# -- a damaged manifest or checkpoint is an error, not a traceback ------------


def _damage_manifest(path, case: str) -> None:
    doc = json.loads(path.read_text())
    if case == "missing":
        path.unlink()
    elif case == "bad-json":
        path.write_text('{"format": 1')
    elif case == "missing-key":
        path.write_text('{"format": 1}')
    else:                               # an unknown format
        path.write_text(json.dumps({**doc, "format": 99}))


def _cli(argv) -> tuple:
    """``(exit code, stderr lines)`` of one in-process ``repro`` run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue().splitlines()


STORES = {
    "history": (
        lambda d: history_store.HistoryStore(
            {"t_start_s": "min", "x": "sum"}, dir=d, chunk_rows=4
        ).sync(),
        history_store.HistoryStore.open, HistoryError,
        [["obs", "history", "info", "--dir"], ["obs", "query", "--check",
                                               "--dir"]],
    ),
    "log": (
        lambda d: log_store.LogStore(d).close(),
        log_store.LogStore.open, LogError,
        [["obs", "logs", "query", "--dir"], ["obs", "logs", "--check",
                                             "--dir"]],
    ),
}


@pytest.mark.parametrize(
    "case", ["missing", "bad-json", "missing-key", "unknown-format"]
)
@pytest.mark.parametrize("kind", sorted(STORES))
def test_a_bad_manifest_is_a_store_error(kind, case, tmp_path):
    create, open_store, error, commands = STORES[kind]
    create(tmp_path)
    _damage_manifest(tmp_path / MANIFEST_NAME, case)
    with pytest.raises(error):
        open_store(tmp_path)
    for argv in commands:
        rc, stderr = _cli([*argv, tmp_path])
        assert rc == 1
        assert len(stderr) == 1 and stderr[0].startswith("obs FAILED: ")


def _damage_checkpoint(path, case: str, key: str) -> None:
    raw = path.read_bytes()
    if case == "missing":
        path.unlink()
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "not-an-npz":
        path.write_bytes(b"not a checkpoint\n")
    elif case == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif case == "corrupt":
        middle = len(raw) // 2
        path.write_bytes(raw[:middle] + bytes(64) + raw[middle + 64:])
    else:                               # a key the loader needs is gone
        with np.load(path) as data:
            arrays = {k: v for k, v in data.items() if k != key}
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)


@pytest.mark.parametrize(
    "case",
    ["missing", "empty", "not-an-npz", "truncated", "corrupt", "lacks-a-key"],
)
@pytest.mark.parametrize("kind", ["checkpoint", "shard"])
def test_a_damaged_checkpoint_is_a_telemetry_error(
    kind, case, tmp_path, log
):
    writers = Writers(tmp_path, log)
    write, load, path = writers.cases()[kind]
    write(1)
    key = "buf_config" if kind == "checkpoint" else "shard_units"
    _damage_checkpoint(path, case, key)
    with pytest.raises(TelemetryError):
        load()


def test_resume_from_a_corrupt_checkpoint_fails_cleanly(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"PK\x03\x04 not really a zip")
    rc, stderr = _cli(["stream", "--nodes", "4", "--days", "0.05",
                       "--resume", bad])
    assert rc == 1
    assert len(stderr) == 1 and stderr[0].startswith("stream FAILED: ")


# -- crash points: fail every fsync, rename and unlink in turn ----------------


def _failing_calls(monkeypatch, fail_at=None) -> list:
    """Log every os.fsync/os.replace/os.unlink call by name; the
    ``fail_at``-th (1-based) raises instead of running."""
    calls = []
    for name in ("fsync", "replace", "unlink"):
        def call(*args, _real=getattr(os, name), _name=name, **kwargs):
            calls.append(_name)
            if len(calls) == fail_at:
                raise OSError(f"injected failure of {_name} #{fail_at}")
            return _real(*args, **kwargs)

        monkeypatch.setattr(os, name, call)
    return calls


def _build_history(path, *, ragged=False):
    store = history_store.HistoryStore(
        {"t_start_s": "min", "x": "sum", "peak": "max"}, dir=path,
        chunk_rows=4, rollup_factors=(2, 3),
    )
    for i in range(31):
        store.append_row({"t_start_s": 10.0 * i, "x": float(i % 7),
                          "peak": float(i * i % 11)})
        if i == 17 or (ragged and i % 3 == 2):
            store.sync()
    return store


def _build_log(path):
    store = log_store.LogStore(path, segment_records=3)
    for i in range(14):
        store.append({"t_s": 10.0 * i, "seq": i})
        if i == 8:
            store.sync()
    return store


def _history_state(path) -> list:
    store = history_store.HistoryStore.open(path)
    assert verify_rollups(store) == []
    rows = _history_rows(store)
    store.close()
    return rows


def _log_state(path) -> list:
    store = log_store.LogStore.open(path)
    assert store.check() == []
    return list(store.iter_records())


def _synced_history(path):
    return _build_history(path).sync()


#: Each persisting operation: (build the store, run it, read a reopened copy).
CRASH_POINTS = {
    "history-sync": (_build_history, lambda s: s.sync(), _history_state),
    "history-compact": (lambda p: _build_history(p, ragged=True).sync(),
                        lambda s: s.compact(), _history_state),
    "history-gc": (_synced_history, lambda s: s.gc(keep_s=95.0),
                   _history_state),
    "log-sync": (_build_log, lambda s: s.sync(), _log_state),
    # Records appended since the last sync ride along: the gc manifest
    # counts them, so their lines must be durable first.
    "log-gc": (_build_log, lambda s: s.gc(keep_s=45.0), _log_state),
}


@pytest.mark.parametrize("operation", sorted(CRASH_POINTS))
def test_every_crash_point_leaves_the_old_or_the_new_store(
    operation, tmp_path, monkeypatch
):
    build, run, state = CRASH_POINTS[operation]
    images = itertools.count()

    def reopened(path):
        """The state a process that died now would reopen."""
        image = tmp_path / f"image-{next(images)}"
        shutil.copytree(path, image)
        return state(image)

    store = build(tmp_path / "reference")
    before = reopened(tmp_path / "reference")
    calls = _failing_calls(monkeypatch)
    run(store)
    monkeypatch.undo()
    store.close()
    after = reopened(tmp_path / "reference")
    assert calls and set(calls) <= {"fsync", "replace", "unlink"}
    outcomes = []
    for k in range(1, len(calls) + 1):
        path = tmp_path / f"fail-{k}"
        store = build(path)
        _failing_calls(monkeypatch, fail_at=k)
        with pytest.raises(OSError, match=f"#{k}$"):
            run(store)
        monkeypatch.undo()
        seen = reopened(path)
        store.close()
        assert seen in (before, after), (k, calls[k - 1])
        outcomes.append(seen == after)
    # Failing the first call keeps the old store, the last the new one.
    assert outcomes[0] == (before == after) and outcomes[-1]
