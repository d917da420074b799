"""Checkpoint/resume: restart mid-stream, converge to the same cube."""

import contextlib

import numpy as np
import pytest

from repro import constants
from repro.errors import ReproError, TelemetryError
from repro.stream import (
    StreamEngine,
    load_checkpoint,
    perturb,
    save_checkpoint,
)

from .conftest import LATENESS_S, WINDOW_S


@pytest.fixture(scope="module")
def arrival_chunks(campaign):
    _log, _gen, store = campaign
    return list(
        perturb(store, seed=3, lateness_s=LATENESS_S, dup_fraction=0.05)
    )


def _fresh(log):
    return StreamEngine(log, window_s=WINDOW_S, lateness_s=LATENESS_S)


def test_resume_mid_stream_is_bitwise(
    campaign, arrival_chunks, batch_cube, cubes_equal, tmp_path
):
    log, _gen, _store = campaign
    split = len(arrival_chunks) // 3
    uninterrupted = _fresh(log).run(arrival_chunks)

    first = _fresh(log).run(arrival_chunks[:split], drain=False)
    path = tmp_path / "mid.npz"
    save_checkpoint(first, path)
    resumed = load_checkpoint(path, log).run(arrival_chunks[split:])

    assert cubes_equal(resumed.cube(), uninterrupted.cube())
    assert cubes_equal(resumed.cube(), batch_cube)
    # Identical operational history, not just identical analytics.
    assert resumed.stats == uninterrupted.stats


def test_resume_then_refeed_from_start_converges(
    campaign, arrival_chunks, batch_cube, cubes_equal, tmp_path
):
    # At-least-once delivery: replaying the WHOLE stream into a resumed
    # engine still converges — already-sealed samples drop as late,
    # still-buffered ones dedup.
    log, _gen, _store = campaign
    split = len(arrival_chunks) // 2
    first = _fresh(log).run(arrival_chunks[:split], drain=False)
    path = tmp_path / "mid.npz"
    save_checkpoint(first, path)
    resumed = load_checkpoint(path, log).run(arrival_chunks)
    assert cubes_equal(resumed.cube(), batch_cube)
    assert resumed.stats.late_dropped > 0


def test_checkpoint_restores_config_and_counters(
    campaign, arrival_chunks, tmp_path
):
    log, _gen, _store = campaign
    engine = _fresh(log).run(arrival_chunks[:4], drain=False)
    path = tmp_path / "state.npz"
    save_checkpoint(engine, path)
    clone = load_checkpoint(path, log)
    assert clone.buffer.window_s == WINDOW_S
    assert clone.buffer.lateness_s == LATENESS_S
    assert clone.chunks_in == engine.chunks_in
    assert clone.stats == engine.stats


def test_version_mismatch_is_rejected(campaign, arrival_chunks, tmp_path):
    log, _gen, _store = campaign
    path = tmp_path / "ck.npz"
    save_checkpoint(_fresh(log).run(arrival_chunks[:2], drain=False), path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    arrays["version"] = np.array([99], dtype=np.int64)
    bad = tmp_path / "bad.npz"
    np.savez_compressed(bad, **arrays)
    with pytest.raises(TelemetryError):
        load_checkpoint(bad, log)


def test_mismatched_log_axes_are_rejected(
    campaign, arrival_chunks, tmp_path
):
    log, _gen, _store = campaign
    path = tmp_path / "ck.npz"
    save_checkpoint(_fresh(log).run(arrival_chunks[:2], drain=False), path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    arrays["acc_domains"] = arrays["acc_domains"][:-1]
    arrays["acc_energy_j"] = arrays["acc_energy_j"][:-1]
    arrays["acc_gpu_hours"] = arrays["acc_gpu_hours"][:-1]
    bad = tmp_path / "bad-axes.npz"
    np.savez_compressed(bad, **arrays)
    with pytest.raises(ReproError):
        load_checkpoint(bad, log)


def test_nan_cpu_in_a_buffered_row_is_rejected(
    campaign, arrival_chunks, tmp_path
):
    # Restored rows seal unchecked later, so the load validates them:
    # a NaN CPU row would otherwise fold into a NaN cpu_energy_j.
    log, _gen, _store = campaign
    path = tmp_path / "ck.npz"
    save_checkpoint(_fresh(log).run(arrival_chunks[:2], drain=False), path)
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    assert len(arrays["buf_cpu"])
    arrays["buf_cpu"][0] = np.nan
    bad = tmp_path / "nan-cpu.npz"
    np.savez_compressed(bad, **arrays)
    with pytest.raises(TelemetryError, match="CPU power"):
        load_checkpoint(bad, log)


def test_a_failed_save_keeps_the_previous_checkpoint(
    campaign, arrival_chunks, tmp_path, monkeypatch
):
    log, _gen, _store = campaign
    split = len(arrival_chunks) // 3
    engine = _fresh(log).run(arrival_chunks[:split], drain=False)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(engine, path)
    with np.load(path) as data:
        before = dict(data)
    engine.run(arrival_chunks[split:], drain=False)

    def torn_write(file, **arrays):
        # Half an archive, then the disk fills; an in-place save would
        # have truncated the previous checkpoint first.
        with contextlib.ExitStack() as stack:
            if not hasattr(file, "write"):
                file = stack.enter_context(open(file, "wb"))
            file.write(b"PK\x03\x04 half an archive")
            file.flush()
            raise OSError("disk full mid-write")

    monkeypatch.setattr(np, "savez_compressed", torn_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(engine, path)
    monkeypatch.undo()

    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]
    with np.load(path) as data:
        after = dict(data)
    assert after.keys() == before.keys()
    for name, array in before.items():
        assert array.dtype == after[name].dtype, name
        assert array.tobytes() == after[name].tobytes(), name
    resumed = load_checkpoint(path, log)
    assert resumed.chunks_in == split


def test_save_appends_the_npz_suffix_like_numpy(
    campaign, arrival_chunks, tmp_path
):
    log, _gen, _store = campaign
    engine = _fresh(log).run(arrival_chunks[:4], drain=False)
    save_checkpoint(engine, tmp_path / "ckpt")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]
    assert load_checkpoint(tmp_path / "ckpt.npz", log).chunks_in == 4


def _resaved(path, tmp_path, reserved):
    """``path`` re-saved with ``buf_config``'s reserved field set."""
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    interval, window, lateness, _ = arrays["buf_config"]
    arrays["buf_config"] = np.array([interval, window, lateness, reserved])
    out = tmp_path / f"reserved-{reserved:g}.npz"
    np.savez_compressed(out, **arrays)
    return out, arrays


def test_four_field_buffer_config_resumes_bitwise(
    campaign, arrival_chunks, batch_cube, cubes_equal, tmp_path
):
    # The layout every checkpoint has had: [interval, window, lateness,
    # 0.0].  One written field by field that way resumes bitwise.
    log, _gen, _store = campaign
    split = len(arrival_chunks) // 3
    uninterrupted = _fresh(log).run(arrival_chunks)
    path = tmp_path / "mid.npz"
    save_checkpoint(_fresh(log).run(arrival_chunks[:split], drain=False), path)
    with np.load(path, allow_pickle=False) as data:
        written = data["buf_config"]
    assert written.dtype == np.float64 and written.tolist() == [
        constants.TELEMETRY_INTERVAL_S, WINDOW_S, LATENESS_S, 0.0,
    ]
    layout, _ = _resaved(path, tmp_path, 0.0)
    resumed = load_checkpoint(layout, log).run(arrival_chunks[split:])
    assert cubes_equal(resumed.cube(), uninterrupted.cube())
    assert cubes_equal(resumed.cube(), batch_cube)
    assert resumed.stats == uninterrupted.stats


def test_nonzero_reserved_buffer_field_is_rejected(
    campaign, arrival_chunks, tmp_path
):
    log, _gen, _store = campaign
    path = tmp_path / "ck.npz"
    save_checkpoint(_fresh(log).run(arrival_chunks[:2], drain=False), path)
    bad, arrays = _resaved(path, tmp_path, 1.0)
    with pytest.raises(TelemetryError, match="reserved"):
        load_checkpoint(bad, log)
    buffer = _fresh(log).buffer
    with pytest.raises(TelemetryError, match="reserved"):
        buffer.load_state_arrays(arrays)
    assert buffer.samples_in == 0 and buffer.resident_samples == 0
