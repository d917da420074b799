"""Observability end-to-end: identical outputs, full traces, manifests.

The acceptance contract: enabling observability must not perturb a
single output bit — ``repro run`` artifacts and drained stream cubes are
compared bitwise against uninstrumented runs — while producing a
manifest, a two-digit set of distinct span names, and the stream ingest
gauges.
"""

from __future__ import annotations

import pytest

from repro import constants, units
from repro.cli import main as cli_main
from repro.core.join import cubes_equal
from repro.experiments import ExperimentConfig
from repro.experiments import run as run_experiment
from repro.experiments._campaign import build_campaign
from repro.gpu.powercap import clear_powercap_cache
from repro.obs import load_manifest, runtime
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import StreamEngine, canonical_windows
from repro.telemetry import FleetTelemetryGenerator

CONFIG = dict(fleet_nodes=24, days=1.0, seed=3)


def _fresh_caches():
    """Clear every cross-run memo so both runs do identical work."""
    build_campaign.cache_clear()
    clear_powercap_cache()


class TestExperimentIdentity:
    def test_table5_is_bitwise_identical_with_obs_enabled(self, tmp_path):
        config = ExperimentConfig(
            **CONFIG, out_dir=str(tmp_path / "plain")
        )
        _fresh_caches()
        plain = run_experiment("table5", config)

        _fresh_caches()
        st = runtime.enable()
        traced = run_experiment(
            "table5", config.with_overrides(out_dir=str(tmp_path / "obs"))
        )

        assert traced.text == plain.text
        assert (
            (tmp_path / "obs" / "table5.txt").read_bytes()
            == (tmp_path / "plain" / "table5.txt").read_bytes()
        )
        names = {rec["name"] for rec in st.tracer.finished}
        assert len(names) >= 10
        assert "experiment.table5" in names
        assert "gpu.run_batch" in names
        assert "join.campaign" in names
        assert st.registry.counter("experiments_total").value == 1

    def test_per_experiment_manifest_written(self, tmp_path):
        _fresh_caches()
        runtime.enable()
        config = ExperimentConfig(**CONFIG, out_dir=str(tmp_path))
        run_experiment("table5", config)
        doc = load_manifest(tmp_path / "table5.manifest.json")
        assert doc["command"] == "repro run table5"
        assert doc["config"]["fleet_nodes"] == CONFIG["fleet_nodes"]
        assert "table5.txt" in doc["outputs"]
        # The slice holds only this experiment's spans.
        assert any(
            s["name"] == "experiment.table5" for s in doc["spans"]
        )


class TestStreamIdentity:
    @pytest.fixture(scope="class")
    def fleet(self):
        mix = default_mix(fleet_nodes=8)
        log = SlurmSimulator(mix).run(units.days(0.25), rng=0)
        gen = FleetTelemetryGenerator(log, mix, seed=1000)
        # Time-major delivery: event-time windows arrive in order, so
        # nothing is late and the drop counters must stay at zero.
        window_s = 40 * constants.TELEMETRY_INTERVAL_S
        return log, list(canonical_windows(gen.generate(), window_s=window_s))

    def _drained(self, log, chunks) -> StreamEngine:
        engine = StreamEngine(
            log, interval_s=constants.TELEMETRY_INTERVAL_S,
        )
        for chunk in chunks:
            engine.ingest(chunk)
        engine.drain()
        return engine

    def test_drained_cube_is_bitwise_identical_with_obs(self, fleet):
        log, chunks = fleet
        plain = self._drained(log, chunks).cube()
        st = runtime.enable()
        traced_engine = self._drained(log, chunks)
        traced = traced_engine.cube()

        assert cubes_equal(plain, traced)

        names = {rec["name"] for rec in st.tracer.finished}
        assert {"stream.ingest", "stream.push", "stream.drain"} <= names
        values = st.registry.counter_values()
        assert values["stream_chunks_in"] == len(chunks)
        assert values["stream_samples_in"] > 0
        assert "stream_watermark_lag_seconds" in values
        assert values["stream_late_dropped"] == 0
        assert values["stream_duplicates_dropped"] == 0

    def test_drained_cube_is_bitwise_identical_with_health(self, fleet):
        # The health layer reads a copied cube and the ingest counters,
        # so attaching a monitor (even a drifting one, with obs off and
        # no --watch) must leave every analytic output byte-identical.
        from repro.obs.health import HealthMonitor

        log, chunks = fleet
        plain = self._drained(log, chunks).cube()
        monitor = HealthMonitor()
        watched_engine = StreamEngine(
            log, interval_s=constants.TELEMETRY_INTERVAL_S,
        ).attach(health=monitor)
        for chunk in chunks:
            watched_engine.ingest(chunk)
        watched_engine.drain()
        watched = watched_engine.cube()

        assert cubes_equal(plain, watched)
        # ...while the monitor really evaluated along the way.
        assert monitor.alerts.evaluations > 0
        assert monitor.drift.last_report is not None


class TestCli:
    def test_run_obs_writes_manifest_and_prom(self, tmp_path, capsys):
        _fresh_caches()
        out = tmp_path / "artifacts"
        rc = cli_main([
            "run", "table1",
            "--nodes", "24", "--days", "1", "--seed", "3",
            "--out", str(out), "--obs",
        ])
        assert rc == 0
        doc = load_manifest(out / "manifest.json")
        assert doc["command"] == "repro run table1"
        assert "table1.txt" in doc["outputs"]
        assert (out / "metrics.prom").read_text()
        assert "observability" in capsys.readouterr().out
        # The CLI tears the global state back down.
        assert not runtime.enabled()

    def test_obs_summary_and_diff_commands(self, tmp_path, capsys):
        _fresh_caches()
        out = tmp_path / "a"
        cli_main([
            "run", "table1",
            "--nodes", "24", "--days", "1", "--seed", "3",
            "--out", str(out), "--obs",
        ])
        capsys.readouterr()

        assert cli_main(["obs", "summary", str(out / "manifest.json")]) == 0
        assert "manifest: repro run table1" in capsys.readouterr().out

        same = cli_main([
            "obs", "diff",
            str(out / "manifest.json"), str(out / "manifest.json"),
        ])
        assert same == 0
        assert "match" in capsys.readouterr().out

        _fresh_caches()
        other = tmp_path / "b"
        cli_main([
            "run", "table1",
            "--nodes", "24", "--days", "1", "--seed", "4",
            "--out", str(other), "--obs",
        ])
        capsys.readouterr()
        drifted = cli_main([
            "obs", "diff",
            str(out / "manifest.json"), str(other / "manifest.json"),
        ])
        assert drifted == 1
        assert "config.seed" in capsys.readouterr().out
