"""Tests for fleet telemetry generation and the store."""

import numpy as np
import pytest

from repro import constants, units
from repro.errors import TelemetryError
from repro.scheduler import SlurmSimulator, default_mix
from repro.telemetry import FleetTelemetryGenerator, TelemetryStore
from repro.telemetry.schema import TelemetryChunk


@pytest.fixture(scope="module")
def fleet():
    mix = default_mix(fleet_nodes=24)
    log = SlurmSimulator(mix).run(units.days(1), rng=2)
    gen = FleetTelemetryGenerator(log, mix, seed=9)
    return log, gen, gen.generate()


class TestGenerator:
    def test_sample_count(self, fleet):
        log, gen, store = fleet
        expected = int(units.days(1) / constants.TELEMETRY_INTERVAL_S)
        assert gen.n_samples == expected
        assert len(store) == expected * log.n_nodes

    def test_idle_nodes_draw_idle_power(self, fleet):
        log, gen, store = fleet
        # Find a node-time with no allocation and check it reads ~idle.
        times = np.arange(gen.n_samples) * constants.TELEMETRY_INTERVAL_S
        for node in range(log.n_nodes):
            grid = log.job_id_grid(times, node)
            if (grid == 0).any():
                chunk = gen.node_chunk(node)
                idle_samples = chunk.gpu_power_w[grid == 0]
                assert idle_samples.mean() == pytest.approx(
                    constants.GPU_IDLE_POWER_W, abs=3.0
                )
                return
        pytest.skip("no idle interval in this fleet")

    def test_busy_nodes_draw_profile_power(self, fleet):
        log, gen, store = fleet
        assert store.mean_gpu_power_w() > 150.0

    def test_deterministic_per_node(self, fleet):
        _log, gen, _store = fleet
        a = gen.node_chunk(3)
        b = gen.node_chunk(3)
        np.testing.assert_array_equal(a.gpu_power_w, b.gpu_power_w)

    def test_chunked_equals_materialized(self, fleet):
        log, gen, store = fleet
        chunks = list(gen.chunks(nodes_per_chunk=7))
        combined = TelemetryChunk.concatenate(chunks)
        # Same rows, possibly different order: compare sorted totals.
        assert len(combined) == len(store)
        assert combined.gpu_power_w.sum() == pytest.approx(
            store.chunk.gpu_power_w.sum(), rel=1e-6
        )

    def test_unknown_domain_rejected(self, fleet):
        log, _gen, _store = fleet
        from repro.scheduler.workload import WorkloadMix, DEFAULT_DOMAINS

        wrong = WorkloadMix(DEFAULT_DOMAINS[:1], fleet_nodes=log.n_nodes)
        if any(j.domain != DEFAULT_DOMAINS[0].name for j in log.jobs):
            with pytest.raises(TelemetryError):
                FleetTelemetryGenerator(log, wrong)


class TestStore:
    def test_energy_accounting(self, fleet):
        _log, _gen, store = fleet
        expected = (
            store.chunk.gpu_power_w.sum() * constants.TELEMETRY_INTERVAL_S
        )
        assert store.gpu_energy_j() == pytest.approx(expected, rel=1e-6)
        assert store.gpu_energy_mwh() == pytest.approx(
            units.to_mwh(expected), rel=1e-6
        )

    def test_gpu_hours(self, fleet):
        _log, _gen, store = fleet
        assert store.gpu_hours == pytest.approx(
            len(store) * 4 * 15.0 / 3600.0
        )

    def test_filters(self, fleet):
        _log, _gen, store = fleet
        half = store.filter_time(0.0, units.hours(12))
        assert len(half) < len(store)
        assert (half.chunk.time_s < units.hours(12)).all()
        one_node = store.filter_nodes([5])
        assert set(one_node.chunk.node_id.tolist()) == {5}

    def test_save_load_roundtrip(self, fleet, tmp_path):
        _log, _gen, store = fleet
        small = store.filter_nodes([0, 1])
        path = tmp_path / "telemetry.npz"
        small.save(path)
        back = TelemetryStore.load(path)
        assert len(back) == len(small)
        np.testing.assert_allclose(
            back.chunk.gpu_power_w, small.chunk.gpu_power_w
        )

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("cpu", np.nan, "non-finite CPU power"),
            ("cpu", np.inf, "non-finite CPU power"),
            ("cpu", -1.0, "negative CPU power"),
            ("node", -3, "negative node id"),
        ],
    )
    def test_chunk_rejects_bad_cpu_power_and_node_ids(
        self, column, value, message
    ):
        cols = dict(
            time_s=np.zeros(3),
            node_id=np.zeros(3, dtype=np.int32),
            gpu_power_w=np.zeros((3, 4), dtype=np.float32),
            cpu_power_w=np.zeros(3, dtype=np.float32),
        )
        cols["cpu_power_w" if column == "cpu" else "node_id"][1] = value
        with pytest.raises(TelemetryError, match=message):
            TelemetryChunk(**cols)

    def test_chunk_validation(self):
        with pytest.raises(TelemetryError):
            TelemetryChunk(
                time_s=np.zeros(3),
                node_id=np.zeros(2, dtype=np.int32),
                gpu_power_w=np.zeros((3, 4), dtype=np.float32),
                cpu_power_w=np.zeros(3, dtype=np.float32),
            )
        with pytest.raises(TelemetryError):
            TelemetryChunk(
                time_s=np.zeros(3),
                node_id=np.zeros(3, dtype=np.int32),
                gpu_power_w=np.zeros((3, 2), dtype=np.float32),
                cpu_power_w=np.zeros(3, dtype=np.float32),
            )
