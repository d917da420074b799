"""Stream sources: replay, files, perturbation, canonical windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core import join_campaign
from repro.errors import TelemetryError
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import (
    StreamEngine,
    canonical_windows,
    file_source,
    perturb,
    replay_generator,
    replay_store,
    simulated_fleet,
)
from repro.telemetry import FleetTelemetryGenerator, TelemetryStore
from repro.telemetry.io_csv import write_telemetry_csv
from repro.telemetry.profiles import PowerProfile
from repro.telemetry.schema import TelemetryChunk

from .conftest import LATENESS_S, WINDOW_S


def test_canonical_windows_are_sorted_dedup_and_aligned(campaign):
    _log, _gen, store = campaign
    windows = list(canonical_windows(store, window_s=WINDOW_S))
    assert sum(len(w) for w in windows) == len(store.chunk)
    for w in windows:
        t = w.time_s
        # One window: all rows inside the same WINDOW_S-aligned span.
        assert np.floor(t[0] / WINDOW_S) == np.floor(t[-1] / WINDOW_S)
        # Canonical (time, node) order, no exact duplicates.
        key = t * 1e6 + w.node_id
        assert np.all(np.diff(key) > 0)


def test_canonical_windows_are_arrival_order_invariant(campaign):
    _log, _gen, store = campaign
    shuffled = list(
        perturb(store, seed=11, lateness_s=LATENESS_S, dup_fraction=0.1)
    )
    a = TelemetryChunk.concatenate(
        list(canonical_windows(store, window_s=WINDOW_S))
    )
    b = TelemetryChunk.concatenate(
        list(canonical_windows(shuffled, window_s=WINDOW_S))
    )
    assert np.array_equal(a.time_s, b.time_s)
    assert np.array_equal(a.node_id, b.node_id)
    assert np.array_equal(a.gpu_power_w, b.gpu_power_w)


def test_replay_store_chunks_are_time_slabs(campaign):
    _log, _gen, store = campaign
    chunk_ticks = 12
    chunks = list(replay_store(store, chunk_ticks=chunk_ticks))
    assert sum(len(c) for c in chunks) == len(store.chunk)
    span = chunk_ticks * store.interval_s
    for c in chunks:
        assert c.time_s[-1] - c.time_s[0] < span
    with pytest.raises(TelemetryError):
        list(replay_store(store, chunk_ticks=0))


def test_perturb_is_deterministic_and_admissible(campaign):
    _log, _gen, store = campaign
    kwargs = dict(seed=7, lateness_s=LATENESS_S, dup_fraction=0.03)
    a = list(perturb(store, **kwargs))
    b = list(perturb(store, **kwargs))
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.time_s, cb.time_s)
        assert np.array_equal(ca.node_id, cb.node_id)
    # Admissibility: no sample arrives more than lateness_s of event
    # time behind the newest event already delivered.
    t = np.concatenate([c.time_s for c in a])
    prev_max = np.concatenate([[-np.inf], np.maximum.accumulate(t)[:-1]])
    assert np.all(t > prev_max - LATENESS_S - 1e-9)
    n = len(store.chunk)
    assert len(t) == n + int(round(0.03 * n))


def test_perturb_drop_fraction_gaps_the_stream(campaign):
    _log, _gen, store = campaign
    chunks = list(perturb(store, seed=7, drop_fraction=0.2))
    n = sum(len(c) for c in chunks)
    assert 0.75 * len(store.chunk) < n < 0.85 * len(store.chunk)
    with pytest.raises(TelemetryError):
        list(perturb(store, drop_fraction=1.0))
    with pytest.raises(TelemetryError):
        list(perturb(store, dup_fraction=-0.1))


def test_npz_file_source_is_bitwise(
    campaign, batch_cube, cubes_equal, tmp_path
):
    log, _gen, store = campaign
    path = tmp_path / "telemetry.npz"
    store.save(path)
    engine = StreamEngine(log, window_s=WINDOW_S).run(file_source(path))
    assert cubes_equal(engine.cube(), batch_cube)


def test_csv_file_source_canonicalizes_file_order(campaign, tmp_path):
    # CSV rows stream in file (node-major) order — wildly out of event
    # order.  With lateness covering the horizon, the engine still
    # reconstructs the canonical windows.
    log, _gen, store = campaign
    small = store.filter_nodes(range(4)).filter_time(0.0, 2 * WINDOW_S)
    path = tmp_path / "telemetry.csv"
    write_telemetry_csv(small, path)
    horizon = float(small.chunk.time_s.max()) + small.interval_s
    engine = StreamEngine(
        log, window_s=WINDOW_S, lateness_s=horizon
    ).run(file_source(path, rows_per_chunk=100))
    expected = join_campaign(
        canonical_windows(small, window_s=WINDOW_S), log
    )
    np.testing.assert_allclose(
        engine.cube().energy_j, expected.energy_j, rtol=1e-6
    )
    assert engine.stats.late_dropped == 0


def assert_same_chunks(got, expected):
    """Chunk-by-chunk bitwise equality of every column and dtype."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in ("time_s", "node_id", "gpu_power_w", "cpu_power_w"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype, field
            assert np.array_equal(x, y), field


def test_simulated_fleet_matches_its_own_batch_join(cubes_equal):
    log, source = simulated_fleet(fleet_nodes=8, days=0.25, seed=2)
    chunks = list(source)
    engine = StreamEngine(log, window_s=WINDOW_S).run(chunks)
    batch = join_campaign(
        canonical_windows(chunks, window_s=WINDOW_S), log
    )
    assert cubes_equal(engine.cube(), batch)
    # Same construction as the batch campaign helper: the store route
    # and the generator route deliver the same rows.
    mix = default_mix(fleet_nodes=8)
    ref_log = SlurmSimulator(mix).run(units.days(0.25), rng=2)
    store = FleetTelemetryGenerator(ref_log, mix, seed=1002).generate()
    assert_same_chunks(chunks, list(replay_store(store)))


@given(
    nodes=st.integers(min_value=1, max_value=6),
    days=st.sampled_from([0.05, 0.1, 0.25]),
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_ticks=st.sampled_from([1, 7, 20, 97, None]),
)
@settings(max_examples=20, deadline=None)
def test_generator_replay_equals_store_replay(nodes, days, seed, chunk_ticks):
    # Slabs of 1, 7, 20 and 97 ticks split allocations mid-trace; None
    # stands for one slab longer than the horizon.
    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=seed)
    gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    if chunk_ticks is None:
        chunk_ticks = gen.n_samples + 1
    assert_same_chunks(
        list(replay_generator(gen, chunk_ticks=chunk_ticks)),
        list(replay_store(gen.generate(), chunk_ticks=chunk_ticks)),
    )


def test_generator_replay_renders_each_allocation_once(campaign, monkeypatch):
    # Structural guard against re-rendering per slab: one sample_trace
    # call per allocation that covers at least one tick.
    log, gen, _store = campaign
    calls = []
    sample_trace = PowerProfile.sample_trace

    def counted(self, *args, **kwargs):
        calls.append(1)
        return sample_trace(self, *args, **kwargs)

    monkeypatch.setattr(PowerProfile, "sample_trace", counted)
    n = gen.n_samples
    covering = sum(
        min(int(np.ceil(a.end_time_s / gen.interval_s)), n)
        > int(np.ceil(a.start_time_s / gen.interval_s))
        for a in log.allocations
    )
    chunks = list(replay_generator(gen, chunk_ticks=7))
    assert len(chunks) == -(-n // 7)
    assert len(calls) == covering
    with pytest.raises(TelemetryError):
        list(replay_generator(gen, chunk_ticks=0))


def test_file_source_rejects_missing_store(tmp_path):
    with pytest.raises((TelemetryError, OSError)):
        list(file_source(tmp_path / "nope.npz"))


def test_empty_source_raises(campaign):
    with pytest.raises(TelemetryError):
        list(canonical_windows([], window_s=WINDOW_S))


def test_store_roundtrip_through_npz(campaign, tmp_path):
    _log, _gen, store = campaign
    path = tmp_path / "store.npz"
    store.save(path)
    loaded = TelemetryStore.load(path)
    assert np.array_equal(loaded.chunk.time_s, store.chunk.time_s)
    assert np.array_equal(loaded.chunk.gpu_power_w, store.chunk.gpu_power_w)
