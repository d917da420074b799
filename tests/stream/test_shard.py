"""Sharded campaign engine: bitwise invariance, checkpoints, CLI.

The contract under test (docs/streaming.md, "Sharded campaigns"): the
merged campaign cube is bitwise identical for every shard count and
worker count, because the fold-unit grid — not the work distribution —
fixes the reduction tree.  Every test here compares full cube state
with ``np.array_equal`` (no tolerances).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TelemetryError
from repro.scheduler import SlurmSimulator
from repro.stream.shard import (
    ShardConfig,
    _shard_task,
    plan_shards,
    plan_units,
    run_sharded_campaign,
)

from .conftest import DAYS, FLEET_NODES, WINDOW_S

SEED = 0
CFG = ShardConfig(window_s=WINDOW_S, unit_nodes=4)


def _run(shards, *, cfg=CFG, **kwargs):
    return run_sharded_campaign(
        fleet_nodes=FLEET_NODES, days=DAYS, seed=SEED, shards=shards,
        cfg=cfg, **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    """The single-shard fold every other run must match bitwise."""
    return _run(1)


# -- unit / shard planning ---------------------------------------------------------


def test_plan_units_fixed_grid():
    assert plan_units(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert plan_units(3, 8) == [(0, 3)]
    assert plan_units(4, 1) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_plan_units_rejects_bad_input():
    with pytest.raises(TelemetryError):
        plan_units(0, 4)
    with pytest.raises(TelemetryError):
        plan_units(4, 0)


def test_plan_shards_clamps_to_units():
    # More shards than units: spare shard slots do not exist (no empty
    # shards), and the covered range is exactly the unit list.
    bounds = plan_shards(3, 8)
    assert bounds == [(0, 1), (1, 2), (2, 3)]
    uneven = plan_shards(7, 3)
    assert [hi - lo for lo, hi in uneven] == [3, 2, 2]


# -- bitwise invariance ------------------------------------------------------------


def test_shard_counts_bitwise_identical(reference, cubes_equal):
    for shards in (2, 4, 8):
        result = _run(shards)
        assert cubes_equal(result.cube, reference.cube), (
            f"{shards} shards diverged from the single-shard fold"
        )
        assert result.complete


def test_uneven_shards_bitwise_identical(reference, cubes_equal):
    # 16 nodes / 4-node units = 4 units over 3 shards -> sizes 2/1/1.
    result = _run(3)
    assert result.shards == 3
    assert cubes_equal(result.cube, reference.cube)


def test_more_shards_than_units_clamps(reference, cubes_equal):
    # 4 units, 16 requested shards: clamps to 4, still identical.
    result = _run(16)
    assert result.shards == 4
    assert cubes_equal(result.cube, reference.cube)


def test_one_node_shards_bitwise_identical(cubes_equal):
    cfg = ShardConfig(window_s=WINDOW_S, unit_nodes=1)
    base = _run(1, cfg=cfg)
    assert base.n_units == FLEET_NODES
    sharded = _run(FLEET_NODES, cfg=cfg)
    assert sharded.shards == FLEET_NODES
    assert cubes_equal(sharded.cube, base.cube)


def test_worker_count_invariant(reference, cubes_equal):
    result = _run(4, workers=2)
    assert cubes_equal(result.cube, reference.cube)


def test_reuses_provided_log(reference, cubes_equal, monkeypatch):
    # A caller-supplied scheduler log is folded as given: no second
    # simulation, and the same cube as the run that simulated it.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated although a log was given")

    monkeypatch.setattr(SlurmSimulator, "run", no_simulation)
    again = _run(2, log=reference.log)
    assert again.log is reference.log
    assert cubes_equal(again.cube, reference.cube)


def test_duplicates_straddling_shard_boundary(cubes_equal):
    # Adversarial delivery with duplicates: the perturbation seed
    # derives from the fold unit, so duplicates of nodes at a shard
    # boundary replay — and dedup — identically at every shard count.
    cfg = ShardConfig(
        window_s=WINDOW_S, unit_nodes=4, lateness_s=120.0,
        shuffle_s=120.0, dup_fraction=0.1,
    )
    base = _run(1, cfg=cfg)
    assert base.stats.duplicates > 0
    for shards in (2, 4):
        result = _run(shards, cfg=cfg)
        assert result.stats.duplicates == base.stats.duplicates
        assert cubes_equal(result.cube, base.cube)


def test_single_unit_matches_batch_join(batch_cube, cubes_equal):
    # One fold unit covering the whole fleet is exactly the stream
    # engine's drained fold, which is the batch join over canonical
    # windows — anchoring the sharded contract to the batch pipeline.
    cfg = ShardConfig(window_s=WINDOW_S, unit_nodes=FLEET_NODES)
    result = _run(1, cfg=cfg)
    assert result.n_units == 1
    assert cubes_equal(result.cube, batch_cube)


def test_stats_aggregate_across_shards(reference):
    stats = reference.stats
    n_ticks = int(DAYS * 86400 / 15.0)
    assert stats.samples_in == FLEET_NODES * n_ticks
    assert stats.samples_folded == stats.samples_in
    assert stats.duplicates == 0
    assert stats.late_dropped == 0
    assert stats.resident_samples == 0
    assert np.isinf(stats.sealed_until_s)
    sharded = _run(4)
    assert sharded.stats == stats


# -- checkpoint / resume -----------------------------------------------------------


def test_checkpoint_resume_mid_campaign(tmp_path, reference, cubes_equal):
    # Interrupt after one unit per shard, then resume to completion:
    # the resumed cube must be bitwise identical to an uninterrupted
    # run (the left-fold is prefix-resumable).
    partial = _run(
        2, checkpoint_dir=tmp_path, max_units_per_shard=1,
    )
    assert not partial.complete
    assert partial.units_done == 2
    assert sorted(p.name for p in tmp_path.glob("*.npz")) == [
        "shard_000.npz", "shard_001.npz",
    ]
    resumed = _run(2, checkpoint_dir=tmp_path, resume=True)
    assert resumed.complete
    assert cubes_equal(resumed.cube, reference.cube)
    assert resumed.stats == reference.stats


def test_resume_skips_completed_units(tmp_path, reference, cubes_equal):
    _run(2, checkpoint_dir=tmp_path)
    # A second resume run recomputes nothing (all units cached) and
    # still reproduces the cube exactly.
    again = _run(2, checkpoint_dir=tmp_path, resume=True)
    assert again.complete
    assert cubes_equal(again.cube, reference.cube)


def test_partial_cube_is_fold_prefix(tmp_path):
    # A partial run folds only the completed units — still a valid
    # campaign over that node subset (fewer samples, same axes).
    partial = _run(1, checkpoint_dir=tmp_path, max_units_per_shard=2)
    assert partial.units_done == 2
    full = _run(1)
    assert partial.stats.samples_folded < full.stats.samples_folded
    assert partial.cube.domains == full.cube.domains


def test_checkpoint_rejects_foreign_campaign(tmp_path):
    _run(2, checkpoint_dir=tmp_path, max_units_per_shard=1)
    with pytest.raises(TelemetryError, match="fleet/seed"):
        run_sharded_campaign(
            fleet_nodes=FLEET_NODES, days=DAYS, seed=SEED + 1,
            shards=2, cfg=CFG, checkpoint_dir=tmp_path, resume=True,
        )
    with pytest.raises(TelemetryError, match="stream config"):
        _run(
            2, cfg=ShardConfig(window_s=WINDOW_S / 2, unit_nodes=4),
            checkpoint_dir=tmp_path, resume=True,
        )


def test_checkpoint_rejects_different_unit_plan(tmp_path):
    _run(2, checkpoint_dir=tmp_path, max_units_per_shard=1)
    # Same config array length but a different shard plan: shard 0 of
    # a 1-shard run owns different units than shard 0 of the 2-shard
    # run that wrote the file.
    with pytest.raises(TelemetryError, match="fold"):
        _shard_task(
            _run(1).log.to_arrays(), FLEET_NODES, SEED + 1000,
            [(8, 12), (12, 16)], CFG,
            str(tmp_path / "shard_000.npz"), True, None,
        )


def test_without_resume_flag_checkpoints_are_overwritten(
    tmp_path, reference, cubes_equal
):
    _run(2, checkpoint_dir=tmp_path, max_units_per_shard=1)
    # resume=False ignores (and rewrites) existing files.
    fresh = _run(2, checkpoint_dir=tmp_path)
    assert fresh.complete
    assert cubes_equal(fresh.cube, reference.cube)


# -- CLI ---------------------------------------------------------------------------


def test_cli_campaign_end_to_end(capsys):
    rc = main([
        "campaign", "--nodes", "8", "--days", "0.2", "--shards", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sharded campaign (complete)" in out
    assert "live Table IV" in out


def test_cli_campaign_checkpoint_resume(capsys, tmp_path):
    rc = main([
        "campaign", "--nodes", "8", "--days", "0.2", "--shards", "2",
        "--unit-nodes", "2", "--checkpoint-dir", str(tmp_path),
        "--max-units", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "partial" in out and "--resume" in out
    rc = main([
        "campaign", "--nodes", "8", "--days", "0.2", "--shards", "2",
        "--unit-nodes", "2", "--checkpoint-dir", str(tmp_path),
        "--resume",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sharded campaign (complete)" in out


def test_cli_stream_rejects_shards(capsys):
    # `repro campaign` is the one sharded entry point: the stream
    # command has no --shards/--workers, with or without other flags.
    for extra in ([], ["--max-chunks", "5"], ["--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["stream", "--nodes", "8", "--shards", "2", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err
