"""Tests for CSV telemetry ingest/export."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.io_csv import (
    read_telemetry_csv,
    read_telemetry_csv_chunks,
    write_telemetry_csv,
)


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "telemetry.csv"
    path.write_text(
        "time_s,node_id,gpu0_w,gpu1_w,gpu2_w,gpu3_w,cpu_w\n"
        "0,0,372.1,380.4,91.2,367.9,145.0\n"
        "0,1,500.0,505.0,498.0,510.0,200.0\n"
        "15,0,370.0,379.0,92.0,369.0,150.0\n"
    )
    return path


class TestRead:
    def test_roundtrip_values(self, sample_csv):
        store = read_telemetry_csv(sample_csv)
        assert len(store) == 3
        assert store.chunk.gpu_power_w[0, 0] == pytest.approx(372.1)
        assert store.chunk.cpu_power_w[1] == pytest.approx(200.0)
        assert store.chunk.node_id.tolist() == [0, 1, 0]

    def test_cpu_column_optional(self, tmp_path):
        path = tmp_path / "gpu_only.csv"
        path.write_text(
            "time_s,node_id,gpu0_w,gpu1_w,gpu2_w,gpu3_w\n"
            "0,0,100,100,100,100\n"
        )
        store = read_telemetry_csv(path)
        assert store.chunk.cpu_power_w[0] == 0.0

    def test_chunked_reading(self, sample_csv):
        chunks = list(read_telemetry_csv_chunks(sample_csv, rows_per_chunk=2))
        assert [len(c) for c in chunks] == [2, 1]

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,node_id,gpu0_w\n0,0,100\n")
        with pytest.raises(TelemetryError):
            list(read_telemetry_csv_chunks(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,node_id,gpu0_w,gpu1_w,gpu2_w,gpu3_w\n"
            "0,0,oops,1,1,1\n"
        )
        with pytest.raises(TelemetryError):
            read_telemetry_csv(path)

    def test_nan_cpu_rejected(self, tmp_path):
        path = tmp_path / "nan_cpu.csv"
        path.write_text(
            "time_s,node_id,gpu0_w,gpu1_w,gpu2_w,gpu3_w,cpu_w\n"
            "0,0,100,100,100,100,nan\n"
        )
        with pytest.raises(TelemetryError, match="CPU power"):
            read_telemetry_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TelemetryError):
            read_telemetry_csv(path)

    def test_bad_chunk_size(self, sample_csv):
        with pytest.raises(TelemetryError):
            list(read_telemetry_csv_chunks(sample_csv, rows_per_chunk=0))


class TestWriteRoundtrip:
    def test_simulated_store_roundtrips(self, tmp_path):
        from repro import units
        from repro.scheduler import SlurmSimulator, default_mix
        from repro.telemetry import FleetTelemetryGenerator

        mix = default_mix(fleet_nodes=4)
        log = SlurmSimulator(mix).run(units.hours(3), rng=0)
        store = FleetTelemetryGenerator(log, mix, seed=0).generate()

        path = tmp_path / "export.csv"
        write_telemetry_csv(store, path)
        back = read_telemetry_csv(path)
        assert len(back) == len(store)
        np.testing.assert_allclose(
            back.chunk.gpu_power_w, store.chunk.gpu_power_w, atol=0.01
        )
        assert back.gpu_energy_j() == pytest.approx(
            store.gpu_energy_j(), rel=1e-4
        )

    def test_csv_feeds_the_join(self, tmp_path):
        # The adoption path: external telemetry -> join -> projection.
        from repro import units
        from repro.core import join_campaign
        from repro.scheduler import SlurmSimulator, default_mix
        from repro.telemetry import FleetTelemetryGenerator

        mix = default_mix(fleet_nodes=4)
        log = SlurmSimulator(mix).run(units.hours(3), rng=0)
        store = FleetTelemetryGenerator(log, mix, seed=0).generate()
        path = tmp_path / "export.csv"
        write_telemetry_csv(store, path)

        cube_direct = join_campaign(store, log)
        cube_csv = join_campaign(read_telemetry_csv(path), log)
        np.testing.assert_allclose(
            cube_csv.energy_j, cube_direct.energy_j, rtol=1e-4
        )
