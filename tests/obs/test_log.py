"""The structured event-log pillar: ring, store, query, determinism.

The contracts under test here are the load-bearing ones from
``docs/observability.md``: clock-free token-bucket math, deterministic
sampling, dense per-log sequence numbers under concurrent emitters,
segment rotation/retention edges (empty-segment GC, the tail is never
dropped), and the bitwise reopen-resume guarantee — a store closed
mid-segment and reopened continues producing byte-identical segments.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import LogError
from repro.obs.forensics import Forensics, forensics_doc
from repro.obs.log import (
    EventLog,
    LogStore,
    SEVERITIES,
    SEVERITY_CODE,
    TokenBucket,
    select,
    tail,
)
from repro.obs.log.query import render_record
from repro.durable import MANIFEST_NAME


class TestTokenBucket:
    def test_boundary_math_is_clock_free(self):
        # rate=1/s, burst=2: two immediate tokens, the third arrives
        # exactly at t=1.0 (0.999 s refills only 0.999 of a token).
        bucket = TokenBucket(1.0, 2.0)
        times = (0.0, 0.0, 0.0, 0.999, 1.0, 1.5)
        assert [bucket.allow(t) for t in times] == [
            True, True, False, False, True, False,
        ]

    def test_out_of_order_event_time_never_refunds(self):
        bucket = TokenBucket(1.0, 1.0)
        assert bucket.allow(10.0)
        # A sample stamped *earlier* must not drain or refill anything.
        assert not bucket.allow(5.0)
        assert not bucket.allow(10.5)
        assert bucket.allow(11.0)

    def test_burst_caps_the_refill(self):
        bucket = TokenBucket(1.0, 3.0)
        for _ in range(3):
            assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        # A huge gap refills to burst, not beyond.
        for _ in range(3):
            assert bucket.allow(1000.0)
        assert not bucket.allow(1000.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(LogError):
            TokenBucket(0.0, 5.0)
        with pytest.raises(LogError):
            TokenBucket(1.0, 0.5)


class TestEmission:
    def test_record_schema_and_correlation_keys(self):
        log = EventLog()
        rec = log.emit(
            "info", "stream.window_seal", "window 0 sealed",
            t_s=120.0, window=0, cap_version=3, samples=640,
        )
        assert rec["seq"] == 0
        assert rec["id"] == "stream.window_seal:1"
        assert rec["severity"] == "info"
        assert rec["window"] == 0
        assert rec["cap_version"] == 3
        assert rec["fields"] == {"samples": 640}
        # Absent correlation ids never appear as null keys.
        assert "node" not in rec and "job" not in rec

    def test_unknown_severity_raises(self):
        log = EventLog()
        with pytest.raises(LogError):
            log.emit("fatal", "x")
        with pytest.raises(LogError):
            EventLog(level="loud")

    def test_level_floor_counts_filtered(self):
        log = EventLog(level="warning")
        assert log.emit("debug", "a") is None
        assert log.emit("info", "b") is None
        assert log.emit("warning", "c") is not None
        assert log.filtered == 2
        assert log.emitted == 1

    def test_disabled_log_drops_everything_silently(self):
        log = EventLog(enabled=False)
        assert log.emit("critical", "x") is None
        assert log.emitted == 0 and log.filtered == 0
        assert log.records() == []

    def test_ring_eviction_is_counted(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.emit("info", "tick", t_s=float(i))
        assert log.evicted == 2
        assert log.emitted == 6
        records = log.records()
        assert len(records) == 4
        assert [r["seq"] for r in records] == [2, 3, 4, 5]

    def test_rate_limit_gap_is_reported_on_next_record(self):
        log = EventLog(rate_limits={"spiky": (1.0, 1.0)})
        assert log.emit("warning", "spiky", t_s=0.0) is not None
        for _ in range(3):
            assert log.emit("warning", "spiky", t_s=0.5) is None
        assert log.suppressed == 3
        rec = log.emit("warning", "spiky", t_s=2.0)
        assert rec["suppressed"] == 3
        # The gap is reported once, not re-reported.
        assert "suppressed" not in log.emit("warning", "spiky", t_s=9.0)

    def test_deterministic_sampling_keeps_the_same_occurrences(self):
        def run():
            log = EventLog(sample={"noisy": 4})
            kept = [
                log.emit("debug", "noisy", t_s=float(i)) for i in range(64)
            ]
            return log, [r["id"] for r in kept if r is not None]

        log_a, ids_a = run()
        _log_b, ids_b = run()
        assert ids_a == ids_b
        assert 0 < len(ids_a) < 64
        assert log_a.sampled_out == 64 - len(ids_a)

    def test_forensics_doc_embeds_only_window_correlated_records(self):
        log = EventLog()
        log.emit("info", "stream.window_seal", window=0, t_s=10.0)
        log.emit("debug", "serve.publish", t_s=11.0)       # cadence-driven
        log.emit("info", "stream.window_seal", window=1, t_s=20.0)
        doc = forensics_doc(Forensics().set_event_log(log))
        ids = [r["id"] for r in doc["logs"]]
        assert ids == ["stream.window_seal:1", "stream.window_seal:2"]

    def test_reader_view_is_frozen_at_capture(self):
        log = EventLog()
        log.emit("info", "a")
        view = log.reader_view()
        log.emit("info", "b")
        assert len(view.records) == 1
        assert view.emitted == 1
        assert len(log.records()) == 2

    def test_concurrent_emitters_keep_seqs_dense(self):
        # 8-way hammer: the lock must keep the global sequence unique
        # and dense, and the counters consistent.
        log = EventLog(capacity=4096)
        threads = 8
        per_thread = 200
        barrier = threading.Barrier(threads)

        def hammer(k):
            barrier.wait()
            for i in range(per_thread):
                log.emit("info", f"hammer.t{k}", t_s=float(i))

        pool = [
            threading.Thread(target=hammer, args=(k,))
            for k in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        total = threads * per_thread
        seqs = sorted(r["seq"] for r in log.records())
        assert log.emitted == total
        assert log.evicted == 0
        assert seqs == list(range(total))
        # Per-event occurrence ids are dense too.
        for k in range(threads):
            ids = sorted(
                int(r["id"].rsplit(":", 1)[1])
                for r in log.records()
                if r["event"] == f"hammer.t{k}"
            )
            assert ids == list(range(1, per_thread + 1))

    def test_summary_counters(self):
        log = EventLog(capacity=2, level="info")
        log.emit("debug", "quiet")
        log.emit("info", "a")
        log.emit("info", "b")
        log.emit("info", "c")
        summary = log.summary()
        assert summary["events_total"] == 3
        assert summary["resident"] == 2
        assert summary["filtered_total"] == 1
        assert summary["evicted_total"] == 1
        assert "store" not in summary


def _fill(store, n, *, t0=0.0, step=1.0, seq0=0):
    for i in range(n):
        store.append({
            "seq": seq0 + i, "id": f"tick:{seq0 + i + 1}",
            "t_s": t0 + i * step, "severity": "info",
            "event": "tick", "msg": f"tick {seq0 + i}",
        })
    store.sync()


class TestLogStore:
    def test_rotation_by_record_count(self, tmp_path):
        store = LogStore(tmp_path, segment_records=3)
        _fill(store, 10)
        assert store.segment_count() == 4
        assert store.records_resident() == 10
        assert [s["records"] for s in store.segments] == [3, 3, 3, 1]
        assert store.check() == []
        store.close()

    def test_reopen_resume_is_bitwise_equal_to_continuous(self, tmp_path):
        cont, resumed = tmp_path / "cont", tmp_path / "resumed"
        a = LogStore(cont, segment_records=4)
        _fill(a, 7)
        a.close()

        b = LogStore(resumed, segment_records=4)
        _fill(b, 3)                       # stop mid-segment
        b.close()
        b = LogStore.open(resumed)
        _fill(b, 4, t0=3.0, seq0=3)       # resume into the same segment
        b.close()

        names = sorted(p.name for p in cont.glob("seg-*.jsonl"))
        assert names == sorted(p.name for p in resumed.glob("seg-*.jsonl"))
        for name in names:
            assert (cont / name).read_bytes() == (resumed / name).read_bytes()
        assert LogStore.open(resumed).check() == []

    def test_torn_trailing_write_is_truncated_on_open(self, tmp_path):
        store = LogStore(tmp_path, segment_records=8)
        _fill(store, 3)
        store.close()
        seg = tmp_path / store.segments[-1]["file"]
        clean = seg.read_bytes()
        with open(seg, "ab") as fh:       # crash mid-line: no newline
            fh.write(b'{"seq": 99, "t_s"')

        reopened = LogStore.open(tmp_path)
        assert seg.read_bytes() == clean
        assert reopened.records_resident() == 3
        assert reopened.check() == []
        reopened.close()

    def test_extra_synced_lines_are_adopted(self, tmp_path):
        # Lines fsynced to the segment but not yet to the manifest
        # (crash between append and sync) are adopted on reopen.
        store = LogStore(tmp_path, segment_records=8)
        _fill(store, 2)
        store.append({"seq": 2, "id": "tick:3", "t_s": 2.0,
                      "severity": "info", "event": "tick", "msg": ""})
        store._fh.flush()                 # record on disk, manifest stale
        store._fh.close()
        store._fh = None

        reopened = LogStore.open(tmp_path)
        assert reopened.records_resident() == 3
        assert reopened.segments[-1]["seq1"] == 2
        assert reopened.check() == []
        reopened.close()

    def test_empty_segment_gc_never_drops_the_tail(self, tmp_path):
        store = LogStore(tmp_path, segment_records=3)
        _fill(store, 3)                   # seg-000000 full
        # Crash window: rotation happened but the first append did not.
        store._start_segment()
        store._start_segment()
        store.sync()
        assert store.segment_count() == 3

        out = store.gc(keep_s=1e9)
        # The middle (empty, closed) segment is collected; the full one
        # is within retention and the empty *tail* is never dropped.
        assert out == {"dropped_segments": 1, "dropped_records": 0}
        assert [s["records"] for s in store.segments] == [3, 0]
        assert not (tmp_path / "seg-000001.jsonl").exists()
        assert store.check() == []
        store.close()

    def test_retention_gc_drops_expired_closed_segments(self, tmp_path):
        store = LogStore(tmp_path, segment_records=2)
        _fill(store, 10)                  # t_s 0..9 across 5 segments
        out = store.gc(keep_s=3.0)        # cutoff = 9 - 3 = 6
        assert out["dropped_segments"] == 3
        assert out["dropped_records"] == 6
        assert store.records_resident() == 4
        assert [r["t_s"] for r in store.iter_records()] == [
            6.0, 7.0, 8.0, 9.0,
        ]
        assert store.gc_dropped_records == 6
        assert store.check() == []
        store.close()

    def test_gc_rejects_negative_retention(self, tmp_path):
        store = LogStore(tmp_path)
        with pytest.raises(LogError):
            store.gc(-1.0)
        store.close()

    def test_iter_records_range_filters(self, tmp_path):
        store = LogStore(tmp_path, segment_records=3)
        _fill(store, 9)
        assert [r["t_s"] for r in store.iter_records(2.0, 5.0)] == [
            2.0, 3.0, 4.0, 5.0,
        ]
        assert list(store.iter_records(100.0, None)) == []
        store.close()

    def test_check_flags_missing_and_tampered_segments(self, tmp_path):
        store = LogStore(tmp_path, segment_records=2)
        _fill(store, 6)
        store.close()

        (tmp_path / "seg-000000.jsonl").unlink()
        with open(tmp_path / "seg-000001.jsonl", "ab") as fh:
            fh.write(b'{"seq": 0, "t_s": 0.0}\n')

        problems = LogStore.open(tmp_path).check()
        assert any("missing segment file" in p for p in problems)
        assert any("seg-000001" in p and "on disk" in p for p in problems)

    def test_create_over_existing_store_raises(self, tmp_path):
        LogStore(tmp_path).close()
        with pytest.raises(LogError):
            LogStore(tmp_path)
        with pytest.raises(LogError):
            LogStore.open(tmp_path / "nowhere")

    def test_eventlog_persists_through_store(self, tmp_path):
        store = LogStore(tmp_path, segment_records=4)
        log = EventLog(capacity=2, store=store)
        for i in range(6):
            log.emit("info", "tick", t_s=float(i))
        log.finalize()
        # The ring evicted, the store kept everything.
        assert len(log.records()) == 2
        assert store.records_resident() == 6
        assert (tmp_path / MANIFEST_NAME).exists()
        doc = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert doc["records_total"] == 6
        store.close()


class TestQuery:
    def _records(self):
        log = EventLog()
        log.emit("debug", "serve.request", "a", t_s=1.0)
        log.emit("info", "stream.window_seal", "b", t_s=2.0, window=0)
        log.emit("warning", "stream.late_drop", "c", t_s=3.0, window=0,
                 dropped=4)
        log.emit("error", "serve.decide_cap", "d", t_s=4.0)
        return log.records()

    def test_event_exact_and_prefix_match(self):
        records = self._records()
        assert [r["event"] for r in select(records, event="serve.")] == [
            "serve.request", "serve.decide_cap",
        ]
        assert len(select(records, event="stream.window_seal")) == 1

    def test_severity_floor_and_time_range(self):
        records = self._records()
        assert [r["t_s"] for r in select(records, min_severity="warning")] \
            == [3.0, 4.0]
        assert [r["t_s"] for r in select(records, t0=2.0, t1=3.0)] \
            == [2.0, 3.0]
        with pytest.raises(LogError):
            select(records, min_severity="noisy")

    def test_window_fields_and_limit(self):
        records = self._records()
        assert len(select(records, window=0)) == 2
        assert len(select(records, fields={"dropped": 4})) == 1
        newest = select(records, limit=2)
        assert [r["t_s"] for r in newest] == [3.0, 4.0]
        assert select(records, limit=0) == []

    def test_tail_and_render(self):
        records = self._records()
        assert [r["t_s"] for r in tail(records, 2)] == [3.0, 4.0]
        assert tail(records, 0) == []
        line = render_record(records[2])
        assert "WARNING" in line and "stream.late_drop" in line
        assert "window=0" in line
        assert len(render_record(records[2], width=30)) <= 30

    def test_severity_tables_are_consistent(self):
        assert tuple(SEVERITY_CODE) == SEVERITIES
        codes = [SEVERITY_CODE[name] for name in SEVERITIES]
        assert codes == sorted(codes)


class TestDashboardPane:
    def _snapshot(self):
        class _Stats:
            watermark_s = 1200.0
            windows_folded = 3

            def render(self):
                return "ingest: " + "x" * 200

        class _Snapshot:
            stats = _Stats()
            table4 = None
            recommendation = None

        return _Snapshot()

    def test_narrow_width_clips_every_line(self):
        from repro.obs.health.dashboard import render_dashboard

        log = EventLog()
        log.emit("info", "stream.window_seal",
                 "window 0 sealed with a very long message " + "y" * 120,
                 t_s=100.0, window=0)
        body = render_dashboard(
            self._snapshot(), None, eventlog=log, width=80,
        )
        assert all(len(line) <= 80 for line in body.split("\n"))
        assert any(line.startswith("events: 1 emitted")
                   for line in body.split("\n"))
        assert any("…" in line for line in body.split("\n"))

    def test_logs_pane_absent_without_eventlog(self):
        from repro.obs.health.dashboard import render_dashboard

        body = render_dashboard(self._snapshot(), None)
        assert "events:" not in body
