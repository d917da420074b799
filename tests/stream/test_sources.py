"""Stream sources: replay, files, perturbation, canonical windowing."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.core import join_campaign
from repro.errors import TelemetryError
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import (
    StreamEngine,
    canonical_windows,
    file_source,
    load_checkpoint,
    perturb,
    replay_generator,
    replay_store,
    save_checkpoint,
    simulated_fleet,
)
from repro.telemetry import FleetTelemetryGenerator, TelemetryStore
from repro.telemetry import generator as generator_mod
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


def block_ticks(gen, chunk_ticks):
    """Ticks ``time_chunks`` renders at once: whole chunks in the budget."""
    rows = chunk_ticks * gen.log.n_nodes
    return chunk_ticks * max(1, generator_mod._BLOCK_ROWS // rows)


@given(
    nodes=st.integers(min_value=1, max_value=6),
    days=st.sampled_from([0.05, 0.1, 0.25]),
    seed=st.integers(min_value=0, max_value=2**16),
    chunk_ticks=st.sampled_from([1, 7, 20, 97, None]),
    block_rows=st.sampled_from([None, 1, 64, 1000]),
)
# One chunk over the row budget: every block is a single chunk.
@example(nodes=3, days=0.05, seed=1, chunk_ticks=7, block_rows=1)
# 25-chunk blocks of 500 ticks over a 576-tick horizon.
@example(nodes=2, days=0.1, seed=5, chunk_ticks=20, block_rows=1000)
@settings(max_examples=20, deadline=None)
def test_generator_replay_equals_store_replay(
    nodes, days, seed, chunk_ticks, block_rows
):
    # Slabs of 1, 7, 20 and 97 ticks split allocations mid-trace; None
    # stands for one slab longer than the horizon.  ``block_rows`` None
    # keeps the real render budget; the small ones split the horizon
    # into many blocks, the last one short.
    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=seed)
    gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    if chunk_ticks is None:
        chunk_ticks = gen.n_samples + 1
    budget = generator_mod._BLOCK_ROWS if block_rows is None else block_rows
    with mock.patch.object(generator_mod, "_BLOCK_ROWS", budget):
        got = list(replay_generator(gen, chunk_ticks=chunk_ticks))
    assert_same_chunks(
        got, list(replay_store(gen.generate(), chunk_ticks=chunk_ticks))
    )
    assert all(len(c) == chunk_ticks * nodes for c in got[:-1])
    assert 0 < len(got[-1]) <= chunk_ticks * nodes
    for c in got:
        for field in ("time_s", "node_id", "gpu_power_w", "cpu_power_w"):
            assert not getattr(c, field).flags.writeable, field


@pytest.mark.parametrize("chunk_ticks, block_rows", [
    (20, None),   # 51 chunks of 16 nodes per block, three blocks
    (7, None),
    (20, 100),    # one chunk over the budget: one chunk per block
    (20, 1700),   # five-chunk blocks, the last one short
])
def test_generator_replay_renders_once_per_block(
    campaign, monkeypatch, chunk_ticks, block_rows
):
    # Structural guard against rendering per chunk: one
    # ``_Renderer.render`` call per block of whole chunks.
    _log, gen, _store = campaign
    if block_rows is not None:
        monkeypatch.setattr(generator_mod, "_BLOCK_ROWS", block_rows)
    calls = []
    render = generator_mod._Renderer.render

    def counted(self, t_lo, t_hi):
        calls.append((t_lo, t_hi))
        return render(self, t_lo, t_hi)

    monkeypatch.setattr(generator_mod._Renderer, "render", counted)
    chunks = list(replay_generator(gen, chunk_ticks=chunk_ticks))
    n = gen.n_samples
    step = block_ticks(gen, chunk_ticks)
    assert len(chunks) == -(-n // chunk_ticks)
    assert len(calls) == -(-n // step)
    assert calls == [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def test_resume_inside_a_block_equals_the_continuous_run(
    campaign, cubes_equal, tmp_path
):
    # Chunk 60 lies inside the second 51-chunk block: the resumed
    # source re-renders that block from the start and skips the chunks
    # the checkpointed engine already ingested.
    log, gen, _store = campaign
    assert 60 % (block_ticks(gen, 20) // 20)

    def engine():
        return StreamEngine(log, window_s=WINDOW_S, lateness_s=LATENESS_S)

    continuous = engine().run(replay_generator(gen, chunk_ticks=20))
    first = engine().run(
        itertools.islice(replay_generator(gen, chunk_ticks=20), 60),
        drain=False,
    )
    path = tmp_path / "mid-block.npz"
    save_checkpoint(first, path)
    resumed = load_checkpoint(path, log)
    resumed.run(itertools.islice(
        replay_generator(gen, chunk_ticks=20), resumed.chunks_in, None
    ))
    assert resumed.chunks_in == continuous.chunks_in
    assert cubes_equal(resumed.cube(), continuous.cube())
    assert resumed.stats == continuous.stats


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
