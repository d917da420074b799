"""Both seal paths of the reorder buffer, and the fold state they feed.

The buffer seals time-ordered delivery without a sort (the rows to seal
are a prefix, already canonical) and anything else through the
``(time, node, arrival)`` sort with first-arrival-wins dedup.  Either
way a drained engine must equal ``join_campaign(canonical_windows())``
bitwise: the same windows, the same cube, the same counters.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import TELEMETRY_INTERVAL_S
from repro.core import join_campaign
from repro.core.join import CampaignAccumulator
from repro.errors import TelemetryError
from repro.stream import (
    StreamEngine,
    canonical_windows,
    load_checkpoint,
    perturb,
    replay_generator,
    save_checkpoint,
)
from repro.telemetry.schema import TelemetryChunk

from .conftest import LATENESS_S, WINDOW_S

#: Two hours of the package campaign: 16 nodes x 480 ticks.
HORIZON_S = 7200.0


@pytest.fixture(scope="module")
def rows(campaign):
    """The first two hours of the campaign, in canonical order."""
    _log, _gen, store = campaign
    (canonical,) = canonical_windows(store, window_s=HORIZON_S * 100)
    n = int(np.searchsorted(canonical.time_s, HORIZON_S))
    return TelemetryChunk(
        time_s=canonical.time_s[:n],
        node_id=canonical.node_id[:n],
        gpu_power_w=canonical.gpu_power_w[:n],
        cpu_power_w=canonical.cpu_power_w[:n],
    )


def _slices(rows, sizes):
    """``rows`` cut into consecutive chunks, cycling through ``sizes``."""
    lo, i = 0, 0
    while lo < len(rows):
        hi = min(lo + sizes[i % len(sizes)], len(rows))
        yield TelemetryChunk(
            time_s=rows.time_s[lo:hi],
            node_id=rows.node_id[lo:hi],
            gpu_power_w=rows.gpu_power_w[lo:hi],
            cpu_power_w=rows.cpu_power_w[lo:hi],
        )
        lo, i = hi, i + 1


def _run(log, chunks, lateness_s):
    """Drain ``chunks`` through an engine; return it and its windows."""
    engine = StreamEngine(log, window_s=WINDOW_S, lateness_s=lateness_s)
    windows = []
    engine.add_window_observer(windows.append)
    return engine.run(chunks), windows


def _assert_matches_batch(engine, windows, rows, log, cubes_equal):
    want = list(canonical_windows([rows], window_s=WINDOW_S))
    assert len(windows) == len(want)
    for got, ref in zip(windows, want):
        for name in ("time_s", "node_id", "gpu_power_w", "cpu_power_w"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cubes_equal(engine.cube(), join_campaign(want, log))


SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@SETTINGS
@given(
    sizes=st.lists(st.integers(1, 700), min_size=1, max_size=8),
    lateness_ticks=st.sampled_from([0, 3, 8]),
)
def test_any_chunking_of_in_order_rows_is_bitwise(
    campaign, rows, cubes_equal, sizes, lateness_ticks
):
    log = campaign[0]
    engine, windows = _run(
        log, _slices(rows, sizes), lateness_ticks * TELEMETRY_INTERVAL_S
    )
    _assert_matches_batch(engine, windows, rows, log, cubes_equal)
    s = engine.stats
    assert s.duplicates == 0 and s.late_dropped == 0
    assert s.samples_folded == len(rows)


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    shuffle_s=st.sampled_from([0.0, LATENESS_S]),
    dup_fraction=st.sampled_from([0.0, 0.01, 0.1]),
    rows_per_chunk=st.integers(50, 2000),
)
def test_shuffled_delivery_with_duplicates_is_bitwise(
    campaign, rows, cubes_equal, seed, shuffle_s, dup_fraction,
    rows_per_chunk,
):
    # shuffle_s = 0 delivers in time order with each duplicate later in
    # its tick: time-ascending rows that still need the sort and dedup.
    log = campaign[0]
    chunks = perturb(
        [rows], seed=seed, lateness_s=shuffle_s, dup_fraction=dup_fraction,
        rows_per_chunk=rows_per_chunk,
    )
    engine, windows = _run(log, chunks, LATENESS_S)
    _assert_matches_batch(engine, windows, rows, log, cubes_equal)
    s = engine.stats
    assert s.duplicates == int(round(dup_fraction * len(rows)))
    assert s.late_dropped == 0
    assert s.samples_folded == len(rows)


def test_time_major_delivery_seals_without_sorting(
    campaign, batch_cube, cubes_equal, monkeypatch
):
    log, gen, _store = campaign
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda *a, **k: calls.append(1) or lexsort(*a, **k)
    )
    engine = StreamEngine(
        log, window_s=WINDOW_S, lateness_s=LATENESS_S
    ).run(replay_generator(gen, chunk_ticks=20))
    monkeypatch.undo()
    assert calls == []
    assert cubes_equal(engine.cube(), batch_cube)


@pytest.mark.parametrize("column, value", [
    ("buf_gpu", np.nan), ("buf_gpu", -1.0), ("buf_time", np.inf),
])
def test_corrupt_checkpoint_rows_fail_at_load(
    campaign, rows, tmp_path, column, value
):
    # Sealed windows reuse their rows unchecked, so the restored rows
    # are checked once, at load, not when their window seals.
    log = campaign[0]
    engine = StreamEngine(log, window_s=WINDOW_S, lateness_s=LATENESS_S)
    engine.run(_slices(rows, [500]), max_chunks=3, drain=False)
    path = tmp_path / "ck.npz"
    save_checkpoint(engine, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    assert len(arrays["buf_time"]) > 0
    arrays[column] = arrays[column].copy()
    arrays[column].reshape(-1)[0] = value
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **arrays)
    with pytest.raises(TelemetryError, match="non-finite|negative"):
        load_checkpoint(bad, log)


def _assert_rows_of(acc):
    """The system histogram is row 0 of the accumulator's arrays and
    each domain histogram the next rows, in domain order."""
    hists = [acc.histogram] + [acc.domain_histograms[n] for n in acc.domains]
    assert len(hists) == len(acc._hist_counts) == len(acc._hist_weights)
    for i, h in enumerate(hists):
        for mine, state in ((h.counts, acc._hist_counts),
                            (h.weight_sums, acc._hist_weights)):
            assert mine.ctypes.data == state[i].ctypes.data
            assert mine.shape == state[i].shape


def test_domain_histograms_stay_rows_of_the_state(
    campaign, rows, cubes_equal, tmp_path
):
    log = campaign[0]
    windows = list(canonical_windows([rows], window_s=WINDOW_S))
    acc = CampaignAccumulator(log)
    _assert_rows_of(acc)
    clone = acc.clone_empty()
    _assert_rows_of(clone)
    for window in windows:
        clone.update(window)
    assert cubes_equal(clone.cube(), join_campaign(windows, log))

    # A copied cube's histograms are rows of one copy the fold no
    # longer touches.
    half = len(windows) // 2
    for window in windows[:half]:
        acc.update(window)
    snap = acc.cube(copy=True)
    frozen = {
        name: (h.counts.copy(), h.weight_sums.copy())
        for name, h in snap.domain_histograms.items()
    }
    base = snap.histogram.counts.base
    assert base is not acc._hist_counts
    for h in snap.domain_histograms.values():
        assert h.counts.base is base
    for window in windows[half:]:
        acc.update(window)
    for name, h in snap.domain_histograms.items():
        assert np.array_equal(h.counts, frozen[name][0])
        assert np.array_equal(h.weight_sums, frozen[name][1])

    # A resumed engine folds into the rows of its restored arrays.
    engine = StreamEngine(log, window_s=WINDOW_S, lateness_s=LATENESS_S)
    chunks = list(_slices(rows, [640]))
    engine.run(chunks[:4], drain=False)
    save_checkpoint(engine, tmp_path / "ck.npz")
    resumed = load_checkpoint(tmp_path / "ck.npz", log)
    _assert_rows_of(resumed.accumulator)
    resumed.run(chunks[4:])
    _assert_rows_of(resumed.accumulator)
    assert cubes_equal(resumed.cube(), join_campaign(windows, log))
