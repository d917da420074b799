"""Per-job analytics: live fold vs offline fold, and conservation."""

import numpy as np
import pytest

from repro.policy import fingerprint_jobs
from repro.scheduler.sacct import read_sacct, write_sacct
from repro.serve import JobAccumulator
from repro.stream import canonical_windows
from repro.telemetry.io_csv import read_telemetry_csv_chunks, write_telemetry_csv
from tests.serve.conftest import WINDOW_S, build_plane


@pytest.fixture(scope="module")
def offline_jobs(campaign, windows):
    _log, _store = campaign
    log = campaign[0]
    acc = JobAccumulator(log)
    for window in windows:
        acc.update(window)
    return acc


class TestStreamingEquivalence:
    def test_live_fold_is_bitwise_offline_fold(
        self, drained_plane, offline_jobs
    ):
        live = drained_plane.job_acc
        assert live.windows_folded == offline_jobs.windows_folded
        assert np.array_equal(live.energy_j, offline_jobs.energy_j)
        assert np.array_equal(live.gpu_hours, offline_jobs.gpu_hours)
        assert np.array_equal(live.samples, offline_jobs.samples)
        assert np.array_equal(live.first_seen_s, offline_jobs.first_seen_s)
        assert np.array_equal(live.last_seen_s, offline_jobs.last_seen_s)

    def test_served_stats_are_a_frozen_copy(self, campaign, windows):
        log, _store = campaign
        acc = JobAccumulator(log)
        acc.update(windows[0])
        stats = acc.snapshot()
        before = stats.energy_j.copy()
        acc.update(windows[1])
        assert np.array_equal(stats.energy_j, before)
        assert not np.array_equal(acc.energy_j, before)


def assert_fingerprints_are_the_served_rows(fingerprints, plane):
    """Every fingerprint's region matrices are the plane's job rows."""
    live = plane.job_acc
    assert sorted(fingerprints) == live.snapshot().active_job_ids()
    for job_id, fp in fingerprints.items():
        assert np.array_equal(fp.region_energy_j, live.energy_j[job_id])
        assert np.array_equal(fp.region_hours, live.gpu_hours[job_id])


class TestFingerprintsAreTheServedFold:
    """``repro advise`` and ``/v1/jobs`` read one per-job fold."""

    def test_fingerprints_equal_the_drained_plane(
        self, campaign, windows, drained_plane
    ):
        log, _store = campaign
        fingerprints = fingerprint_jobs(iter(windows), log)
        assert fingerprints
        assert_fingerprints_are_the_served_rows(fingerprints, drained_plane)

    def test_fingerprints_equal_the_plane_through_the_adapters(
        self, campaign, tmp_path
    ):
        log, store = campaign
        write_sacct(log, tmp_path / "sacct.txt")
        write_telemetry_csv(store, tmp_path / "telemetry.csv")
        sacct_log = read_sacct(tmp_path / "sacct.txt")
        csv_windows = list(canonical_windows(
            read_telemetry_csv_chunks(tmp_path / "telemetry.csv"),
            window_s=WINDOW_S,
        ))
        plane = build_plane(sacct_log, csv_windows)
        try:
            fingerprints = fingerprint_jobs(iter(csv_windows), sacct_log)
            assert fingerprints
            assert_fingerprints_are_the_served_rows(fingerprints, plane)
        finally:
            plane.close()


class TestConservation:
    def test_job_energy_sums_to_fleet_cube(self, drained_plane):
        """The job axis and the (domain, class) axis fold the same watts."""
        cube = drained_plane.cache.view.snap.cube
        job_total = float(drained_plane.job_acc.energy_j.sum())
        fleet_total = float(cube.region_energy_j().sum())
        assert job_total == pytest.approx(fleet_total, rel=1e-9)

    def test_sample_counts_match_engine(self, drained_plane):
        folded = drained_plane.engine.stats.samples_folded
        assert int(drained_plane.job_acc.samples.sum()) == folded

    def test_active_jobs_have_consistent_spans(self, drained_plane):
        stats = drained_plane.job_acc.snapshot()
        ids = stats.active_job_ids()
        assert ids, "the campaign should attribute samples to jobs"
        assert 0 not in ids
        for job_id in ids:
            assert stats.first_seen_s[job_id] <= stats.last_seen_s[job_id]
            assert stats.job_energy_j(job_id) >= 0.0
            assert drained_plane.index.get(job_id) is not None

    def test_idle_row_catches_unallocated_samples(self, drained_plane):
        stats = drained_plane.job_acc.snapshot()
        # Row 0 is the idle pseudo-job; it never appears in the listing
        # but its samples are still folded (conservation holds above).
        assert 0 not in stats.active_job_ids()
        assert stats.samples[0] >= 0
