"""Tests for the scheduler simulator and log tables."""

import numpy as np
import pytest

from repro import units
from repro.errors import ScheduleError
from repro.scheduler import SchedulerLog, SlurmSimulator, default_mix
from repro.scheduler.log import NodeAllocation


@pytest.fixture(scope="module")
def log():
    mix = default_mix(fleet_nodes=64)
    return SlurmSimulator(mix).run(units.days(2), rng=5)


class TestSimulator:
    def test_no_node_oversubscription(self, log):
        log.validate_no_overlap()

    def test_high_utilization(self, log):
        assert log.utilization() > 0.8

    def test_all_size_classes_run(self, log):
        classes = {j.size_class for j in log.jobs}
        assert {"A", "B", "C"} <= classes  # leadership jobs actually run

    def test_allocation_counts_match_jobs(self, log):
        by_job = {}
        for a in log.allocations:
            by_job[a.job_id] = by_job.get(a.job_id, 0) + 1
        for j in log.jobs:
            assert by_job[j.job_id] == j.num_nodes

    def test_times_within_horizon(self, log):
        for j in log.jobs:
            assert 0 <= j.start_time_s < log.horizon_s
            assert j.end_time_s <= log.horizon_s

    def test_deterministic(self):
        mix_a = default_mix(fleet_nodes=32)
        mix_b = default_mix(fleet_nodes=32)
        a = SlurmSimulator(mix_a).run(units.days(1), rng=3)
        b = SlurmSimulator(mix_b).run(units.days(1), rng=3)
        assert [j.job_id for j in a.jobs] == [j.job_id for j in b.jobs]
        assert [j.start_time_s for j in a.jobs] == [
            j.start_time_s for j in b.jobs
        ]

    def test_parameter_validation(self):
        mix = default_mix(fleet_nodes=8)
        with pytest.raises(ScheduleError):
            SlurmSimulator(mix, target_utilization=0.0)
        with pytest.raises(ScheduleError):
            SlurmSimulator(mix, backfill_depth=-1)
        with pytest.raises(ScheduleError):
            SlurmSimulator(mix).run(0.0)


class TestSchedulerLog:
    def test_job_id_grid_matches_allocations(self, log):
        times = np.arange(0, log.horizon_s, 900.0)
        node = int(log.allocations[0].node_id)
        grid = log.job_id_grid(times, node)
        allocs = log.allocations_for_node(node)
        # Every nonzero grid entry corresponds to a covering allocation.
        jobs_by_id = {a.job_id: a for a in allocs}
        for t, jid in zip(times, grid):
            if jid:
                a = jobs_by_id[jid]
                assert a.start_time_s <= t < a.end_time_s
            else:
                assert not any(
                    a.start_time_s <= t < a.end_time_s for a in allocs
                )

    def test_allocations_by_node_matches_per_node_lookup(self, log):
        by_node = log.allocations_by_node()
        assert len(by_node) == log.n_nodes
        for node, allocs in enumerate(by_node):
            assert allocs == log.allocations_for_node(node)

    def test_roundtrip_arrays(self, log):
        arrays = log.to_arrays()
        back = SchedulerLog.from_arrays(arrays)
        assert len(back.jobs) == len(log.jobs)
        assert back.jobs[0] == log.jobs[0]
        assert back.allocations[0] == log.allocations[0]
        assert back.n_nodes == log.n_nodes

    def test_save_load(self, log, tmp_path):
        path = tmp_path / "sched.npz"
        log.save(path)
        back = SchedulerLog.load(path)
        assert back.utilization() == pytest.approx(log.utilization())

    def test_allocation_validation(self):
        with pytest.raises(ScheduleError):
            NodeAllocation(node_id=0, job_id=1, start_time_s=5.0, end_time_s=5.0)

    def test_overlap_detection(self):
        jobs = []
        allocs = [
            NodeAllocation(0, 1, 0.0, 10.0),
            NodeAllocation(0, 2, 5.0, 15.0),
        ]
        bad = SchedulerLog(jobs=jobs, allocations=allocs, n_nodes=1, horizon_s=20.0)
        with pytest.raises(ScheduleError):
            bad.validate_no_overlap()
