"""Streaming-vs-batch equivalence: the subsystem's core contract.

A drained :class:`StreamEngine` must reproduce
``join_campaign(canonical_windows(store))`` *bitwise* — same cube
arrays, same histograms, same derived Table IV/V numbers — whatever
order the samples arrived in, as long as no sample outran the
configured lateness.  The node-major batch join folds the identical
samples in a different grouping, so it agrees only to float rounding.
"""

import numpy as np

from repro.core import join_campaign, measured_factors, report
from repro.core.modes import decompose_modes
from repro.core.projection import project_savings
from repro.stream import StreamEngine, perturb, replay_generator, replay_store

from .conftest import LATENESS_S, WINDOW_S


def test_in_order_replay_is_bitwise(campaign, batch_cube, cubes_equal):
    log, _gen, store = campaign
    engine = StreamEngine(log, window_s=WINDOW_S).run(
        replay_store(store, chunk_ticks=20)
    )
    assert cubes_equal(engine.cube(), batch_cube)
    s = engine.stats
    assert s.duplicates == 0 and s.late_dropped == 0
    assert s.samples_folded == s.samples_in == len(store.chunk)


def test_generator_replay_is_bitwise(campaign, batch_cube, cubes_equal):
    log, gen, _store = campaign
    engine = StreamEngine(log, window_s=WINDOW_S).run(
        replay_generator(gen, chunk_ticks=20)
    )
    assert cubes_equal(engine.cube(), batch_cube)


def test_shuffled_delivery_is_bitwise(campaign, batch_cube, cubes_equal):
    log, _gen, store = campaign
    engine = StreamEngine(
        log, window_s=WINDOW_S, lateness_s=LATENESS_S
    ).run(perturb(store, seed=3, lateness_s=LATENESS_S))
    assert cubes_equal(engine.cube(), batch_cube)
    assert engine.stats.late_dropped == 0


def test_duplicates_within_watermark_are_bitwise(
    campaign, batch_cube, cubes_equal
):
    log, _gen, store = campaign
    dup_fraction = 0.05
    engine = StreamEngine(
        log, window_s=WINDOW_S, lateness_s=LATENESS_S
    ).run(
        perturb(
            store, seed=3, lateness_s=LATENESS_S, dup_fraction=dup_fraction
        )
    )
    assert cubes_equal(engine.cube(), batch_cube)
    s = engine.stats
    assert s.duplicates == int(round(dup_fraction * len(store.chunk)))
    assert s.late_dropped == 0
    assert s.samples_folded == len(store.chunk)


def test_live_tables_match_batch_tables(campaign, batch_cube):
    log, _gen, store = campaign
    engine = StreamEngine(
        log, window_s=WINDOW_S, lateness_s=LATENESS_S
    ).run(perturb(store, seed=5, lateness_s=LATENESS_S, dup_fraction=0.02))
    factors = measured_factors("frequency")
    snap = engine.snapshot(factors=factors)
    assert report.render_table4(snap.table4) == report.render_table4(
        decompose_modes(batch_cube)
    )
    assert report.render_table5(snap.table5) == report.render_table5(
        project_savings(batch_cube, factors)
    )
    assert snap.recommendation is not None


def test_node_major_batch_agrees_to_float_rounding(campaign, batch_cube):
    log, _gen, store = campaign
    node_major = join_campaign(store, log)
    # Same samples, different float-add grouping: allclose, and usually
    # not exactly equal (which is why the contract uses canonical windows).
    np.testing.assert_allclose(
        node_major.energy_j, batch_cube.energy_j, rtol=1e-9
    )
    np.testing.assert_allclose(
        node_major.gpu_hours, batch_cube.gpu_hours, rtol=1e-9
    )
    assert np.isclose(
        node_major.cpu_energy_j, batch_cube.cpu_energy_j, rtol=1e-9
    )


def test_outrunning_the_watermark_drops_samples(campaign, batch_cube):
    log, _gen, store = campaign
    # Perturbed beyond the engine's configured lateness: the engine
    # seals windows too early and must count (not crash on) the misses.
    engine = StreamEngine(log, window_s=WINDOW_S, lateness_s=0.0).run(
        perturb(store, seed=3, lateness_s=LATENESS_S)
    )
    s = engine.stats
    assert s.late_dropped > 0
    assert s.samples_folded == s.samples_in - s.late_dropped
    assert engine.cube().total_energy_j < batch_cube.total_energy_j


def test_empty_stream_has_empty_snapshot(campaign):
    log, _gen, _store = campaign
    engine = StreamEngine(log, window_s=WINDOW_S)
    engine.drain()
    snap = engine.snapshot()
    assert snap.table4 is None and snap.table5 is None
    assert snap.recommendation is None
    assert "no sealed windows" in snap.render()
