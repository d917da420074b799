"""Tests for the telemetry x scheduler join."""

import copy
import dataclasses

import numpy as np
import pytest

from repro import constants
from repro.core.join import (
    IDLE_CLASS,
    IDLE_DOMAIN,
    REGION_BOUNDS,
    DerivedWindow,
    cubes_equal,
    join_campaign,
    region_index,
)
from repro.errors import JoinError
from repro.scheduler.log import SchedulerLog
from repro.telemetry import TelemetryChunk


class TestRegionIndex:
    def test_boundaries(self):
        p = np.array([100.0, 199.9, 200.0, 419.9, 420.0, 559.9, 560.0, 600.0])
        np.testing.assert_array_equal(
            region_index(p), [0, 0, 1, 1, 2, 2, 3, 3]
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(0,), (97,), (41, 4), (3, 5, 4)])
    def test_matches_searchsorted_oracle(self, dtype, shape):
        bounds = np.asarray(REGION_BOUNDS)
        exact = np.array(REGION_BOUNDS, dtype=dtype)
        edge_values = np.concatenate(
            [
                exact,
                np.nextafter(exact, dtype(0)),
                np.nextafter(exact, dtype(np.inf)),
                np.array([0.0, 650.0, 1e4], dtype=dtype),
            ]
        )
        rng = np.random.default_rng(shape[0])
        p = rng.uniform(0.0, 700.0, size=shape).astype(dtype)
        flat = p.reshape(-1)
        k = min(len(edge_values), flat.size)
        flat[:k] = edge_values[:k]
        got = region_index(p)
        want = np.searchsorted(bounds, p, side="right")
        assert got.dtype == np.int64
        assert got.shape == p.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_neighbours(self, dtype):
        exact = np.array(REGION_BOUNDS, dtype=dtype)
        below = np.nextafter(exact, dtype(0))
        above = np.nextafter(exact, dtype(np.inf))
        np.testing.assert_array_equal(region_index(below), [0, 1, 2])
        np.testing.assert_array_equal(region_index(exact), [1, 2, 3])
        np.testing.assert_array_equal(region_index(above), [1, 2, 3])


class TestJoin:
    def test_energy_matches_store(self, campaign, cube):
        _log, store = campaign
        assert cube.total_energy_j == pytest.approx(
            store.gpu_energy_j(), rel=1e-6
        )
        assert cube.cpu_energy_j == pytest.approx(
            store.cpu_energy_j(), rel=1e-6
        )

    def test_gpu_hours_match_store(self, campaign, cube):
        _log, store = campaign
        assert cube.total_gpu_hours == pytest.approx(store.gpu_hours)

    def test_histogram_covers_all_samples(self, campaign, cube):
        _log, store = campaign
        assert cube.histogram.total_count == len(store) * 4

    def test_domain_rows_cover_scheduler_domains(self, campaign, cube):
        log, _store = campaign
        expected = {j.domain for j in log.jobs} | {IDLE_DOMAIN}
        assert set(cube.domains) == expected
        assert cube.classes[-1] == IDLE_CLASS

    def test_idle_energy_is_idleish(self, cube):
        d = cube.domain_idx(IDLE_DOMAIN)
        idle_hours = cube.gpu_hours[d].sum()
        if idle_hours == 0:
            pytest.skip("fully utilized fleet")
        idle_energy = cube.energy_j[d].sum()
        mean_w = idle_energy / (idle_hours * 3600.0)
        assert mean_w == pytest.approx(constants.GPU_IDLE_POWER_W, abs=3.0)
        # Idle samples live in region 1.
        assert cube.gpu_hours[d, :, 1:].sum() == 0

    def test_streaming_equals_materialized(self, campaign, cube):
        log, store = campaign
        from repro.scheduler import default_mix
        from repro.telemetry import FleetTelemetryGenerator

        mix = default_mix(fleet_nodes=log.n_nodes)
        gen = FleetTelemetryGenerator(log, mix, seed=100)
        streamed = join_campaign(gen.chunks(nodes_per_chunk=5), log)
        np.testing.assert_allclose(
            streamed.energy_j, cube.energy_j, rtol=1e-9
        )
        np.testing.assert_allclose(
            streamed.gpu_hours, cube.gpu_hours, rtol=1e-9
        )
        np.testing.assert_array_equal(
            streamed.histogram.counts, cube.histogram.counts
        )

    def test_busy_view_drops_idle(self, cube):
        busy = cube.busy_view()
        assert IDLE_DOMAIN not in busy.domains
        assert IDLE_CLASS not in busy.classes
        assert busy.total_energy_j < cube.total_energy_j

    def test_select_subsets_energy(self, cube):
        busy = cube.busy_view()
        one = cube.select([busy.domains[0]], ["A", "B", "C"])
        assert one.energy_j.shape == (1, 3, 4)
        assert one.total_energy_j <= cube.total_energy_j

    def test_select_unknown_raises(self, cube):
        with pytest.raises(JoinError):
            cube.select(["NOPE"], ["A"])
        with pytest.raises(JoinError):
            cube.select([cube.domains[0]], ["Z"])

    def test_cubes_equal_compares_the_whole_cube(self, cube):
        assert cubes_equal(cube, copy.deepcopy(cube))
        other = copy.deepcopy(cube)
        other.domain_histograms[cube.domains[0]].counts[0] += 1
        assert not cubes_equal(cube, other)
        renamed = dataclasses.replace(cube, classes=cube.classes[::-1])
        assert not cubes_equal(cube, renamed)

    def test_empty_telemetry_raises(self, campaign):
        log, _store = campaign
        with pytest.raises(JoinError):
            join_campaign(iter([]), log)


def test_derived_window_arrays_are_read_only():
    """Every reader of a sealed window shares its derived arrays, so
    none of them may change one in place."""
    n = 5
    chunk = TelemetryChunk(
        time_s=np.arange(n, dtype=np.float64) * 15.0,
        node_id=np.array([3, 1, 3, 2, 1], dtype=np.int32),
        gpu_power_w=np.full((n, constants.GPUS_PER_NODE), 300.0, np.float32),
        cpu_power_w=np.full(n, 100.0, np.float32),
    )
    idle_log = SchedulerLog(jobs=[], allocations=[], n_nodes=4,
                            horizon_s=n * 15.0)
    window = DerivedWindow.of(chunk, idle_log, 15.0)
    assert DerivedWindow.of(window, None, 15.0) is window
    derived = [window.samples, window.regions, window.job_ids,
               *window.nodes, window.row_energy_j]
    for array in derived:
        with pytest.raises(ValueError):
            array[0] = 0
