"""Tests for campaign construction, cube merging and the footprint model."""

import numpy as np
import pytest

from repro.core.join import cubes_equal
from repro.core.pipeline import memory_footprint_estimate, merge_cubes
from repro.errors import JoinError
from repro.experiments._campaign import build_campaign, fold_campaign


@pytest.fixture(scope="module")
def serial_run():
    """(log, cube) of the cached batch builder; the cube is frozen."""
    return build_campaign(24, 0.5, 3)


class TestRunCampaign:
    """One campaign run through the batch builders (cached and not)."""

    def test_uncached_fold_matches_cached_build(self, serial_run):
        # The uncached builder is the same fold; it must not touch the
        # shared cache, and its cube stays the caller's to mutate.
        before = build_campaign.cache_info()
        log, cube = fold_campaign(24, 0.5, 3)
        assert build_campaign.cache_info() == before
        assert cubes_equal(cube, serial_run[1])
        cached = serial_run[0].to_arrays()
        for key, column in log.to_arrays().items():
            assert np.array_equal(column, cached[key]), key
        cube.energy_j[0, 0, 0] += 1.0
        with pytest.raises(ValueError):
            serial_run[1].energy_j[0, 0, 0] += 1.0

    def test_cube_consistency(self, serial_run):
        _log, cube = serial_run
        assert cube.total_energy_j > 0
        assert cube.total_gpu_hours == pytest.approx(
            cube.histogram.total_count * 15.0 / 3600.0
        )


class TestMergeCubes:
    def test_merge_rejects_mismatched_axes(self, serial_run):
        _log, other = fold_campaign(24, 0.5, 99)
        a, b = serial_run[1], other
        if a.domains == b.domains:
            pytest.skip("same domain set; nothing to reject")
        with pytest.raises(JoinError):
            merge_cubes(a, b)

    def test_merge_does_not_mutate_inputs(self, serial_run):
        a, b = serial_run[1], serial_run[1]
        a_counts = a.histogram.counts.copy()
        a_weights = a.histogram.weight_sums.copy()
        a_domain_counts = {
            name: h.counts.copy() for name, h in a.domain_histograms.items()
        }
        a_energy = a.energy_j.copy()

        merged = merge_cubes(a, b)

        np.testing.assert_array_equal(a.histogram.counts, a_counts)
        np.testing.assert_array_equal(a.histogram.weight_sums, a_weights)
        for name, h in a.domain_histograms.items():
            np.testing.assert_array_equal(h.counts, a_domain_counts[name])
        np.testing.assert_array_equal(a.energy_j, a_energy)
        assert merged.histogram is not a.histogram
        assert merged.histogram is not b.histogram

    def test_merging_twice_never_double_counts(self, serial_run):
        a = serial_run[1]
        once = merge_cubes(a, a)
        twice = merge_cubes(a, a)
        np.testing.assert_array_equal(
            once.histogram.counts, twice.histogram.counts
        )
        np.testing.assert_array_equal(
            once.histogram.counts, 2 * a.histogram.counts
        )
        assert once.energy_j.sum() == pytest.approx(2 * a.energy_j.sum())

    def test_merge_result_is_writable(self, serial_run):
        # Partials may arrive with frozen arrays (the cached campaign);
        # the merged cube owns fresh state, so accumulation can go on.
        merged = merge_cubes(serial_run[1], serial_run[1])
        merged.histogram.counts[0] += 1.0


class TestFootprint:
    def test_full_scale_needs_streaming(self):
        est = memory_footprint_estimate(9408, 91)
        assert est["materialized_bytes"] > 1e11     # ~150 GB
        assert est["streamed_bytes"] < 1e9          # < 1 GB
        assert est["ratio"] > 100
        assert est["samples"] > 1e10

    def test_small_scale_fits(self):
        est = memory_footprint_estimate(16, 1.0)
        assert est["materialized_bytes"] < 1e8
