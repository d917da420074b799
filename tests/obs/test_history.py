"""History store: rollups, out-of-core parity, queries, compaction.

Small stores with tiny ``chunk_rows`` and rollup factors exercise every
segmentation path cheaply; the bitwise contracts mirror the full-size
gates (``ext_slo``, ``bench_query.py --check``).
"""

import numpy as np
import pytest

from repro.errors import HistoryError
from repro.obs.history import History, history_columns
from repro.obs.history.query import auto_level, select, verify_rollups
from repro.obs.history.store import HistoryStore, fold_values

W = 15.0
COLS = [
    ("t_start_s", "min"),
    ("t_end_s", "max"),
    ("e", "sum"),
    ("p", "max"),
    ("lo", "min"),
    ("c", "last"),
]


def make_store(dir=None, chunk_rows=8, factors=(4, 3)):
    return HistoryStore(
        COLS, dir=dir, chunk_rows=chunk_rows, rollup_factors=factors,
        window_s=W,
    )


def batch(r0, rows):
    """Rows [r0, r0+rows) of a deterministic synthetic series."""
    t = (r0 + np.arange(rows, dtype=np.float64)) * W
    block = np.empty((rows, len(COLS)))
    block[:, 0] = t
    block[:, 1] = t + W
    block[:, 2] = np.sin(t * 0.01) * 50.0 + 100.0
    block[:, 3] = np.cos(t * 0.02) * 25.0 + 300.0
    block[:, 4] = -block[:, 3]
    block[:, 5] = np.floor(t / (4 * W))
    return block


def fill(store, rows, *, chunk=7):
    for r0 in range(0, rows, chunk):
        store.append_batch(batch(r0, min(chunk, rows - r0)))
    return store


def all_columns(store):
    """Every column of every level as raw bytes."""
    out = []
    for level in range(store.n_levels):
        n = store.rows(level)
        for name, _agg in store.columns:
            out.append(store.column_slice(name, level, 0, n).tobytes())
    return out


class TestFold:
    def test_fold_aggs(self):
        v = np.array([3.0, 1.0, 2.0])
        assert fold_values(v, "sum") == 6.0
        assert fold_values(v, "min") == 1.0
        assert fold_values(v, "max") == 3.0
        assert fold_values(v, "last") == 2.0

    def test_sum_is_left_to_right_reduce(self):
        # The canonical fold is sequential np.add.reduce — the same
        # association the rollup and every refold must use.
        v = np.array([0.1, 0.2, 0.3, 1e16, -1e16])
        assert fold_values(v, "sum") == float(np.add.reduce(v))


class TestRollups:
    def test_level_rows_and_spans(self):
        store = fill(make_store(), 100)
        assert store.rows(0) == 100
        assert store.rows(1) == 25          # factor 4
        assert store.rows(2) == 8           # factor 4*3 = 12
        assert store.level_span_rows(1) == 4
        assert store.level_span_rows(2) == 12
        assert store.level_span_s(1) == 4 * W
        assert store.level_span_s(2) == 12 * W

    def test_rollups_refold_bitwise(self):
        assert verify_rollups(fill(make_store(), 157)) == []

    def test_rechunking_is_bitwise_invisible(self):
        a = fill(make_store(), 120, chunk=1)
        b = fill(make_store(), 120, chunk=17)
        c = make_store()
        c.append_batch(batch(0, 120))
        assert all_columns(a) == all_columns(b) == all_columns(c)

    def test_incomplete_buckets_stay_pending(self):
        store = fill(make_store(), 10)
        assert store.rows(1) == 2           # 10 // 4
        assert store.rows(2) == 0
        store.append_batch(batch(10, 2))
        assert store.rows(1) == 3
        assert store.rows(2) == 1

    def test_non_monotonic_time_rejected(self):
        store = fill(make_store(), 10)
        with pytest.raises(HistoryError, match="non-decreasing"):
            store.append_batch(batch(5, 3))

    def test_row_shape_mismatch_rejected(self):
        with pytest.raises(HistoryError, match="columns"):
            make_store().append_batch(np.zeros((3, 2)))

    def test_missing_row_column_rejected(self):
        with pytest.raises(HistoryError, match="missing column"):
            make_store().append_row({"t_start_s": 0.0})


class TestOutOfCore:
    def test_disk_matches_memory_bitwise(self, tmp_path):
        mem = fill(make_store(), 143)
        disk = fill(make_store(dir=tmp_path / "h"), 143)
        disk.sync()
        assert all_columns(mem) == all_columns(disk)

    def test_reads_are_memmapped(self, tmp_path):
        store = fill(make_store(dir=tmp_path / "h"), 64).sync()
        reopened = HistoryStore.open(tmp_path / "h")
        # Full chunk segments come back as read-only memmaps.
        seg = reopened._seg_array(reopened._levels[0].segments[0])
        assert isinstance(seg, np.memmap)
        store.close()
        reopened.close()

    def test_reopen_resumes_appends_and_rollups(self, tmp_path):
        whole = fill(make_store(), 100)
        first = fill(make_store(dir=tmp_path / "h"), 57)
        first.sync()
        first.close()
        resumed = HistoryStore.open(tmp_path / "h")
        # 57 = 14 full buckets + 1 pending level-0 row, re-staged.
        assert resumed.rows(0) == 57 and resumed.rows(1) == 14
        for r0 in range(57, 100, 9):
            resumed.append_batch(batch(r0, min(9, 100 - r0)))
        resumed.sync()
        assert all_columns(resumed) == all_columns(whole)
        assert verify_rollups(resumed) == []
        resumed.close()

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(HistoryError, match="manifest"):
            HistoryStore.open(tmp_path)

    def test_new_store_refuses_existing_dir(self, tmp_path):
        fill(make_store(dir=tmp_path / "h"), 10).sync()
        with pytest.raises(HistoryError, match="already holds"):
            make_store(dir=tmp_path / "h")


class TestCompactGc:
    def test_compact_merges_ragged_segments_bitwise(self, tmp_path):
        # Syncing after every small batch (the live-dashboard pattern)
        # flushes ragged tail segments at every level.
        store = make_store(dir=tmp_path / "h")
        for r0 in range(0, 90, 5):
            store.append_batch(batch(r0, 5))
            store.sync()
        before = all_columns(store)
        segs_before = store.segment_count()
        report = store.compact()
        store.sync()
        assert store.segment_count() <= segs_before
        assert all_columns(store) == before
        assert report["rewritten_segments"] > 0
        reopened = HistoryStore.open(tmp_path / "h")
        assert all_columns(reopened) == before
        reopened.close()

    def test_gc_drops_old_segments_and_counts_rows(self, tmp_path):
        store = fill(make_store(dir=tmp_path / "h"), 96)
        store.sync()
        span = store.time_span()
        store.gc(keep_s=span[1] - 10 * W)
        store.sync()
        assert store.dropped_rows(0) > 0
        assert store.rows(0) < 96
        # The newest rows survive and queries still answer.
        t0, t1 = store.time_span()
        assert t1 == span[1]
        r = select(store, "e", t0, t1 + W, W, level=0)
        assert r.values[-1] is not None
        # Refold skips gc'd constituents instead of failing.
        assert verify_rollups(store) == []


class TestSelect:
    def test_sum_buckets_match_numpy(self):
        store = fill(make_store(), 60)
        r = select(store, "e", 0.0, 60 * W, 10 * W, level=0)
        expect = batch(0, 60)[:, 2].reshape(6, 10).sum(axis=1)
        assert r.level == 0 and len(r.values) == 6
        np.testing.assert_allclose(r.values, expect, rtol=1e-12)

    def test_auto_level_picks_coarsest_fitting(self):
        store = fill(make_store(), 60)
        assert auto_level(store, W) == 0
        assert auto_level(store, 4 * W) == 1
        assert auto_level(store, 12 * W) == 2
        assert auto_level(store, 100 * W) == 2
        assert select(store, "e", 0.0, 60 * W, 12 * W).level == 2

    def test_rollup_answer_equals_level0_answer(self):
        store = fill(make_store(), 120)
        a = select(store, "e", 0.0, 120 * W, 12 * W, level=0)
        b = select(store, "e", 0.0, 120 * W, 12 * W, level=2)
        assert a.values == b.values
        assert b.rows_scanned < a.rows_scanned

    def test_mean_count_and_empty_buckets(self):
        store = fill(make_store(), 8)
        r = select(store, "e", 0.0, 16 * W, 4 * W, agg="mean", level=0)
        assert r.values[2] is None and r.values[3] is None
        np.testing.assert_allclose(
            r.values[0], batch(0, 4)[:, 2].mean(), rtol=1e-12
        )
        c = select(store, "e", 0.0, 16 * W, 4 * W, agg="count", level=0)
        assert c.values == [4.0, 4.0, None, None]

    def test_max_row_freezes_the_answer(self):
        store = fill(make_store(), 40)
        frozen = select(store, "e", 0.0, 80 * W, W, level=0, max_row=40)
        store.append_batch(batch(40, 40))
        live = select(store, "e", 0.0, 80 * W, W, level=0)
        again = select(store, "e", 0.0, 80 * W, W, level=0, max_row=40)
        assert frozen.values == again.values
        assert live.values[41] is not None
        assert frozen.values[41] is None

    def test_bad_queries_raise(self):
        store = fill(make_store(), 10)
        with pytest.raises(HistoryError, match="empty time range"):
            select(store, "e", 10.0, 10.0, W)
        with pytest.raises(HistoryError, match="step"):
            select(store, "e", 0.0, 10.0, 0.0)
        with pytest.raises(HistoryError, match="unknown series"):
            select(store, "nope", 0.0, 10.0, W)
        with pytest.raises(HistoryError, match="unknown aggregation"):
            select(store, "e", 0.0, 10.0, W, agg="p42")
        with pytest.raises(HistoryError, match="level"):
            select(store, "e", 0.0, 10.0, W, level=7)
        with pytest.raises(HistoryError, match="buckets"):
            select(store, "e", 0.0, 1e9, 1e-3)


class TestHistoryFacade:
    def _engine(self, history=None, *, windows=6, nodes=4):
        from repro import constants, units
        from repro.scheduler import SlurmSimulator, default_mix
        from repro.stream import replay_store
        from repro.stream.engine import StreamEngine
        from repro.telemetry.schema import TelemetryChunk
        from repro.telemetry.store import TelemetryStore

        ticks = windows * 4
        time_s = np.repeat(
            np.arange(ticks, dtype=np.float64)
            * constants.TELEMETRY_INTERVAL_S,
            nodes,
        )
        node_id = np.tile(np.arange(nodes, dtype=np.int32), ticks)
        store = TelemetryStore(TelemetryChunk(
            time_s=time_s,
            node_id=node_id,
            gpu_power_w=np.full(
                (ticks * nodes, constants.GPUS_PER_NODE), 320.0,
                dtype=np.float32,
            ),
            cpu_power_w=np.full(ticks * nodes, 110.0, dtype=np.float32),
        ))
        log = SlurmSimulator(default_mix(fleet_nodes=nodes)).run(
            units.days(0.1), rng=0
        )
        engine = StreamEngine(
            log,
            interval_s=constants.TELEMETRY_INTERVAL_S,
            window_s=4 * constants.TELEMETRY_INTERVAL_S,
        )
        if history is not None:
            engine.attach(history=history)
        for chunk in replay_store(store, chunk_ticks=4):
            engine.ingest(chunk)
        engine.drain()
        return engine

    def test_records_one_row_per_sealed_window(self):
        history = History()
        engine = self._engine(history)
        assert history.windows_recorded == engine.stats.windows_folded
        assert history.store.rows(0) == history.windows_recorded
        names = [n for n, _ in history.store.columns]
        assert names == [n for n, _ in history_columns()]

    def test_history_is_bitwise_invisible_to_the_cube(self):
        plain = self._engine(None)
        with_h = self._engine(History())
        a, b = plain.cube(), with_h.cube()
        assert np.array_equal(a.energy_j, b.energy_j)
        assert np.array_equal(a.gpu_hours, b.gpu_hours)
        assert a.cpu_energy_j == b.cpu_energy_j

    def test_energy_column_matches_the_cube_total(self):
        history = History()
        engine = self._engine(history)
        total = select(
            history.store, "energy_j", 0.0, 1e9, 1e9, level=0
        ).values[0]
        assert total == pytest.approx(
            float(engine.cube().energy_j.sum()), rel=1e-9
        )

    def test_reader_view_is_frozen(self):
        history = History()
        self._engine(history)
        view = history.reader_view()
        doc = view.series_doc()
        assert doc["levels"][0]["rows"] == history.windows_recorded
        span = view.span()
        assert span is not None and span[0] == 0.0
        r = view.select("energy_j", span[0], span[1] + 60.0, 60.0)
        assert any(v is not None for v in r.values)

    def test_metric_values_carry_slo_gauges(self):
        history = History()
        self._engine(history)
        values = history.metric_values()
        assert values["history_windows_total"] == history.windows_recorded
        assert "slo_cap_violation_burn_fast" in values
        assert values["slo_alerts_firing"] == 0.0
