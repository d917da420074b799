"""TelemetryStore edge cases: empty, single-sample, unordered, empty
filter windows (ISSUE PR 2 satellite)."""

import numpy as np
import pytest

from repro import constants
from repro.errors import TelemetryError
from repro.telemetry import TelemetryStore
from repro.telemetry.schema import TelemetryChunk

DT = constants.TELEMETRY_INTERVAL_S


def mk_chunk(times, nodes, gpu=200.0, cpu=350.0):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    return TelemetryChunk(
        time_s=times,
        node_id=np.asarray(nodes, dtype=np.int32),
        gpu_power_w=np.full(
            (n, constants.GPUS_PER_NODE), gpu, dtype=np.float32
        ),
        cpu_power_w=np.full(n, cpu, dtype=np.float32),
    )


def empty_chunk():
    return mk_chunk([], [])


def test_empty_chunk_store():
    store = TelemetryStore(empty_chunk())
    assert len(store) == 0
    assert store.gpu_hours == 0.0
    assert store.gpu_energy_j() == 0.0
    assert store.cpu_energy_j() == 0.0
    assert store.gpu_power_flat.shape == (0,)
    assert store.nodes.shape == (0,)
    # Filtering an empty store stays empty, never raises.
    assert len(store.filter_time(0.0, 100.0)) == 0
    assert len(store.filter_nodes([0, 1])) == 0


def test_empty_store_roundtrips_through_npz(tmp_path):
    path = tmp_path / "empty.npz"
    TelemetryStore(empty_chunk()).save(path)
    loaded = TelemetryStore.load(path)
    assert len(loaded) == 0
    assert loaded.interval_s == constants.TELEMETRY_INTERVAL_S


def test_single_sample_store():
    store = TelemetryStore(mk_chunk([5 * DT], [3], gpu=150.0, cpu=100.0))
    assert len(store) == 1
    assert store.gpu_hours == constants.GPUS_PER_NODE * DT / 3600.0
    assert store.gpu_energy_j() == pytest.approx(
        150.0 * constants.GPUS_PER_NODE * DT
    )
    assert store.mean_gpu_power_w() == pytest.approx(150.0)
    assert np.array_equal(store.nodes, [3])
    # The sample sits on the half-open [t0, t1) boundary convention.
    assert len(store.filter_time(5 * DT, 6 * DT)) == 1
    assert len(store.filter_time(4 * DT, 5 * DT)) == 0


def test_non_monotonic_timestamps_are_preserved_and_filterable():
    times = [3 * DT, 0.0, 2 * DT, 0.0, DT]
    nodes = [0, 1, 0, 0, 1]
    store = TelemetryStore(mk_chunk(times, nodes))
    # The store is order-agnostic: no sorting, no dedup on construction.
    assert np.array_equal(store.chunk.time_s, times)
    window = store.filter_time(0.0, 2 * DT)
    assert len(window) == 3
    assert set(window.chunk.time_s) == {0.0, DT}
    # Aggregates count every row, duplicates included.
    assert store.gpu_hours == pytest.approx(
        5 * constants.GPUS_PER_NODE * DT / 3600.0
    )


def test_empty_filter_windows():
    store = TelemetryStore(mk_chunk([0.0, DT, 2 * DT], [0, 1, 2]))
    assert len(store.filter_time(100 * DT, 200 * DT)) == 0
    # Zero-width windows select nothing (not an error)...
    assert len(store.filter_time(DT, DT)) == 0
    assert len(store.filter_nodes([])) == 0
    assert len(store.filter_nodes([99])) == 0
    # Chained empty filters compose.
    assert len(store.filter_nodes([0]).filter_time(DT, 2 * DT)) == 0


def test_inverted_time_range_raises():
    # ...but an inverted range is a caller bug, not an empty window:
    # silently returning nothing hid swapped-argument mistakes.
    store = TelemetryStore(mk_chunk([0.0, DT, 2 * DT], [0, 1, 2]))
    with pytest.raises(TelemetryError, match="negative time range"):
        store.filter_time(2 * DT, 0.0)
    with pytest.raises(TelemetryError, match="negative time range"):
        store.filter_time(0.0, -DT)


def test_empty_mask_filter_preserves_shape_and_aggregates():
    store = TelemetryStore(mk_chunk([0.0, DT, 2 * DT], [0, 1, 2]))
    view = store.filter_nodes([99])
    assert len(view) == 0
    assert view.chunk.gpu_power_w.shape == (0, constants.GPUS_PER_NODE)
    assert view.gpu_energy_j() == 0.0
    assert view.cpu_energy_j() == 0.0
    assert view.interval_s == store.interval_s


def test_full_mask_filter_is_the_identity():
    store = TelemetryStore(
        mk_chunk([0.0, DT, 2 * DT], [0, 1, 2], gpu=175.0, cpu=90.0)
    )
    view = store.filter_time(0.0, 3 * DT)
    assert len(view) == len(store)
    np.testing.assert_array_equal(view.chunk.time_s, store.chunk.time_s)
    np.testing.assert_array_equal(
        view.chunk.gpu_power_w, store.chunk.gpu_power_w
    )
    assert view.gpu_energy_j() == store.gpu_energy_j()


def test_filtered_view_roundtrips_through_save_load(tmp_path):
    store = TelemetryStore(
        mk_chunk([0.0, DT, 2 * DT, 3 * DT], [0, 1, 0, 1], gpu=220.0)
    )
    view = store.filter_nodes([1])
    path = tmp_path / "view.npz"
    view.save(path)
    loaded = TelemetryStore.load(path)
    assert len(loaded) == 2
    np.testing.assert_array_equal(loaded.chunk.time_s, view.chunk.time_s)
    np.testing.assert_array_equal(loaded.chunk.node_id, view.chunk.node_id)
    assert loaded.gpu_energy_j() == view.gpu_energy_j()
    assert loaded.interval_s == view.interval_s


def test_invalid_interval_rejected():
    with pytest.raises(TelemetryError):
        TelemetryStore(empty_chunk(), interval_s=0.0)
    with pytest.raises(TelemetryError):
        TelemetryStore(empty_chunk(), interval_s=-1.0)
