"""Tests for the experiment registry and the CLI."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENT_IDS,
    ExperimentConfig,
    get_experiment,
    run,
)
from repro.cli import main

TINY = ExperimentConfig(
    fleet_nodes=16, days=0.5, seed=0, graph_scale=0.002
)


class TestRegistry:
    def test_all_artifacts_registered(self):
        paper = {f"fig{i}" for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)} | {
            f"table{i}" for i in (1, 2, 3, 4, 5, 6, 7)
        }
        extensions = {"ext_policy", "ext_validation", "ext_robustness",
                      "ext_replay", "ext_proxies", "ext_budget",
                      "ext_governor", "ext_boost", "ext_sensitivity",
                      "ext_stream", "ext_frontier", "ext_controlplane",
                      "ext_incidents", "ext_slo"}
        assert set(EXPERIMENT_IDS) == paper | extensions

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_every_runner_resolves(self):
        for exp_id in EXPERIMENT_IDS:
            assert callable(get_experiment(exp_id))

    def test_config_overrides(self):
        cfg = ExperimentConfig().with_overrides(fleet_nodes=8)
        assert cfg.fleet_nodes == 8
        assert cfg.days == ExperimentConfig().days


class TestStaticTables:
    def test_table1(self):
        result = run("table1", TINY)
        assert "9408" in result.text
        assert "560 W" in result.text

    def test_table2(self):
        result = run("table2", TINY)
        assert "15 s" in result.text

    def test_table7(self):
        result = run("table7", TINY)
        assert "5645 - 9408" in result.text
        assert result.title


class TestCampaignExperiments:
    def test_table4(self):
        result = run("table4", TINY)
        assert "memory intensive" in result.text
        assert abs(sum(result.data["gpu_hours_pct"]) - 100.0) < 1e-6

    def test_table5_headline_fields(self):
        result = run("table5", TINY)
        table = result.data["frequency"]
        assert table.total_energy_mwh == pytest.approx(16820.0)
        assert table.best_row.savings_pct > 0

    def test_fig8_modes(self):
        result = run("fig8", TINY)
        assert len(result.data["mode_powers_w"]) >= 2

    def test_result_persisted(self, tmp_path):
        cfg = TINY.with_overrides(out_dir=str(tmp_path))
        run("table7", cfg)
        assert (tmp_path / "table7.txt").exists()


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table5" in out

    def test_run_static_table(self, capsys):
        code = main(["run", "table7", "--nodes", "16", "--days", "0.5"])
        assert code == 0
        assert "Scheduling policy" in capsys.readouterr().out

    def test_run_unknown_fails(self, capsys):
        code = main(["run", "nope"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "table1", "--out", "sub"],
        ["report", "--out", "r.md"],
    ])
    def test_out_under_a_file_fails_in_one_line(self, tmp_path, capsys,
                                                argv):
        # --out names a path below a regular file, so creating it raises
        # an OSError: one FAILED line, no traceback.
        blocker = tmp_path / "file"
        blocker.write_text("")
        *head, out = argv
        assert main([*head, str(blocker / out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"{argv[0]} FAILED: ")
