"""Health layer: alert state machines, drift math, exporter, CLI.

Everything here is clock-free: alert engines advance on explicit event
times, drift math is checked against hand-computed values, and the HTTP
exporter binds ephemeral ports and is torn down inside every test.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro import constants, units
from repro.cli import main as cli_main
from repro.errors import HealthError
from repro.obs.forensics import Forensics
from repro.obs.health import (
    AlertEngine,
    Dashboard,
    DriftDetector,
    DriftReference,
    HealthMonitor,
    HealthServer,
    RuleSpec,
    default_rules,
    fetch_url,
    load_rules,
    parse_rules,
    tv_distance,
)
from repro.obs.health.drift import REL_ERR_FLOOR_PCT
from repro.obs.history import History
from repro.obs.metrics import MetricsRegistry
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import StreamEngine, canonical_windows
from repro.telemetry import FleetTelemetryGenerator

WINDOW_S = 40 * constants.TELEMETRY_INTERVAL_S


@pytest.fixture(scope="module")
def fleet():
    mix = default_mix(fleet_nodes=8)
    log = SlurmSimulator(mix).run(units.days(0.25), rng=0)
    gen = FleetTelemetryGenerator(log, mix, seed=1000)
    chunks = list(canonical_windows(gen.generate(), window_s=WINDOW_S))
    return log, chunks


def _drained(log, chunks, monitor=None) -> StreamEngine:
    engine = StreamEngine(log, interval_s=constants.TELEMETRY_INTERVAL_S)
    if monitor is not None:
        engine.attach(health=monitor)
    for chunk in chunks:
        engine.ingest(chunk)
    engine.drain()
    return engine


class TestRuleParsing:
    def test_default_ruleset_loads(self):
        rules = default_rules()
        names = {r.name for r in rules}
        assert {
            "stream_late_dropped_spike", "mode_drift", "stream_samples_absent",
        } <= names
        assert all(r.severity in ("warning", "critical") for r in rules)

    def test_bad_kind_op_and_negative_for_raise(self):
        with pytest.raises(HealthError):
            RuleSpec(name="x", metric="m", kind="gradient")
        with pytest.raises(HealthError):
            RuleSpec(name="x", metric="m", kind="threshold", op="!=")
        with pytest.raises(HealthError):
            RuleSpec(name="x", metric="m", kind="threshold", for_s=-1)

    def test_unknown_keys_and_duplicates_rejected(self):
        with pytest.raises(HealthError, match="unknown keys"):
            parse_rules({"rules": [
                {"name": "x", "metric": "m", "threshold": 3},
            ]})
        with pytest.raises(HealthError, match="duplicate"):
            parse_rules({"rules": [
                {"name": "x", "metric": "m"},
                {"name": "x", "metric": "m2"},
            ]})

    def test_load_rules_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "lag", "metric": "stream_watermark_lag_seconds",
             "op": ">", "value": 10.0, "for_s": 5.0},
        ]}))
        (rule,) = load_rules(path)
        assert rule.kind == "threshold"   # the default kind
        assert rule.for_s == 5.0

    def test_load_rules_toml(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\nname = "lag"\nmetric = "m"\nvalue = 1.5\n'
        )
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(HealthError, match="tomllib"):
                load_rules(path)
        else:
            (rule,) = load_rules(path)
            assert rule.value == 1.5

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(HealthError, match="cannot read"):
            load_rules(tmp_path / "nope.json")


class TestAlertEngine:
    def test_threshold_fires_immediately_without_for(self):
        engine = AlertEngine([
            RuleSpec(name="hot", metric="m", kind="threshold",
                     op=">", value=10.0),
        ])
        assert engine.evaluate({"m": 5.0}, 0.0) == []
        events = engine.evaluate({"m": 11.0}, 10.0)
        assert [e["transition"] for e in events] == ["firing"]
        assert not engine.healthy
        events = engine.evaluate({"m": 5.0}, 20.0)
        assert [e["transition"] for e in events] == ["resolved"]
        assert engine.healthy

    def test_pending_firing_resolved_lifecycle(self):
        engine = AlertEngine([
            RuleSpec(name="hot", metric="m", op=">", value=1.0,
                     kind="threshold", for_s=60.0),
        ])
        events = engine.evaluate({"m": 2.0}, 100.0)
        assert [e["transition"] for e in events] == ["pending"]
        # Condition must hold for the full for_s before firing.
        assert engine.evaluate({"m": 2.0}, 159.0) == []
        (state,) = engine.rule_states()
        assert state["state"] == "pending"
        assert state["since_s"] == 100.0
        # Boundary: elapsed == for_s fires.
        events = engine.evaluate({"m": 2.0}, 160.0)
        assert [e["transition"] for e in events] == ["firing"]
        (state,) = engine.rule_states()
        assert state["state"] == "firing"
        assert state["fired_at_s"] == 160.0
        events = engine.evaluate({"m": 0.5}, 200.0)
        assert [e["transition"] for e in events] == ["resolved"]
        # A fresh breach restarts the pending clock from scratch.
        events = engine.evaluate({"m": 2.0}, 300.0)
        assert [e["transition"] for e in events] == ["pending"]

    def test_pending_resets_when_condition_clears(self):
        engine = AlertEngine([
            RuleSpec(name="hot", metric="m", op=">", value=1.0,
                     kind="threshold", for_s=60.0),
        ])
        engine.evaluate({"m": 2.0}, 0.0)
        engine.evaluate({"m": 0.0}, 30.0)      # breach ends: back to inactive
        engine.evaluate({"m": 2.0}, 50.0)      # new breach, new clock
        events = engine.evaluate({"m": 2.0}, 90.0)
        assert events == []                     # 40 s < for_s despite t > 60
        events = engine.evaluate({"m": 2.0}, 110.0)
        assert [e["transition"] for e in events] == ["firing"]

    def test_absence_rule_on_never_reporting_registry(self):
        engine = AlertEngine([
            RuleSpec(name="silent", metric="stream_samples_in",
                     kind="absence", for_s=60.0),
        ])
        registry = MetricsRegistry()   # never reports the metric
        events = engine.evaluate(registry.counter_values(), 0.0)
        assert [e["transition"] for e in events] == ["pending"]
        events = engine.evaluate(registry.counter_values(), 60.0)
        assert [e["transition"] for e in events] == ["firing"]
        # The metric appearing resolves the absence.
        registry.gauge("stream_samples_in").set(5.0)
        events = engine.evaluate(registry.counter_values(), 120.0)
        assert [e["transition"] for e in events] == ["resolved"]

    def test_rate_rule_measures_slope_between_evaluations(self):
        engine = AlertEngine([
            RuleSpec(name="spike", metric="c", kind="rate",
                     op=">", value=0.05),
        ])
        assert engine.evaluate({"c": 0.0}, 0.0) == []      # seeds the sample
        events = engine.evaluate({"c": 10.0}, 100.0)       # 0.1/s > 0.05/s
        assert [e["transition"] for e in events] == ["firing"]
        (state,) = engine.rule_states()
        assert state["value"] == pytest.approx(0.1)
        events = engine.evaluate({"c": 10.0}, 200.0)       # flat: 0/s
        assert [e["transition"] for e in events] == ["resolved"]

    def test_rate_rule_holds_state_without_progress(self):
        engine = AlertEngine([
            RuleSpec(name="spike", metric="c", kind="rate",
                     op=">", value=0.05),
        ])
        engine.evaluate({"c": 0.0}, 0.0)
        engine.evaluate({"c": 10.0}, 100.0)
        # Absent metric or frozen event time: hold, don't flap.
        assert engine.evaluate({}, 150.0) == []
        assert engine.evaluate({"c": 20.0}, 100.0) == []
        assert not engine.healthy

    def test_history_ring_is_bounded(self):
        engine = AlertEngine(
            [RuleSpec(name="hot", metric="m", kind="threshold",
                      op=">", value=0.0)],
            history_size=4,
        )
        for i in range(10):
            # Alternate breach/clear: two transitions per pair of evals.
            engine.evaluate({"m": 1.0 if i % 2 == 0 else -1.0}, float(i))
        assert len(engine.history) == 4
        assert engine.transitions == 10

    def test_export_mirrors_states_into_registry(self):
        engine = AlertEngine([
            RuleSpec(name="hot", metric="m", kind="threshold",
                     op=">", value=0.0),
            RuleSpec(name="cold", metric="m", kind="threshold",
                     op="<", value=-10.0),
        ])
        engine.evaluate({"m": 1.0}, 0.0)
        registry = MetricsRegistry()
        engine.export(registry)
        values = registry.counter_values()
        assert values['health_rule_state{rule="hot"}'] == 2.0
        assert values['health_rule_state{rule="cold"}'] == 0.0
        assert values["health_alerts_firing"] == 1.0
        assert values["health_rule_transitions"] == 1.0


class TestDrift:
    def test_tv_distance_hand_computed(self):
        # 0.5 * (|0.30-0.25| + |0.50-0.55|) = 0.05
        assert tv_distance(
            [30, 50, 15, 5], [25, 55, 15, 5]
        ) == pytest.approx(0.05)
        # Normalization: percentages and fractions agree.
        assert tv_distance(
            [0.30, 0.50, 0.15, 0.05], [25, 55, 15, 5]
        ) == pytest.approx(0.05)
        assert tv_distance([30, 50, 15, 5], [30, 50, 15, 5]) == 0.0
        assert tv_distance([1, 0, 0, 0], [0, 1, 0, 0]) == pytest.approx(1.0)

    def test_tv_distance_rejects_bad_inputs(self):
        with pytest.raises(HealthError, match="shape"):
            tv_distance([1, 2], [1, 2, 3])
        with pytest.raises(HealthError, match="mass"):
            tv_distance([0, 0], [1, 1])

    def test_reference_validation(self):
        with pytest.raises(HealthError):
            DriftReference(gpu_hours_pct=(50.0, 50.0))
        with pytest.raises(HealthError):
            DriftReference(gpu_hours_pct=(50.0, 60.0, -5.0, 1.0))
        ref = DriftReference.paper()
        assert sum(ref.gpu_hours_pct) == pytest.approx(100.0, abs=1.0)

    def test_rel_err_uses_floor_for_tiny_modes(self):
        # Region 4 holds 0.5 % — below the 1-point floor, so its error is
        # measured in absolute points against the floor, not as a ratio.
        detector = DriftDetector(DriftReference(
            gpu_hours_pct=(60.0, 30.0, 9.5, 0.5)
        ))
        report = detector.check(
            SimpleNamespace(gpu_hours_pct=(60.0, 30.0, 9.0, 1.0))
        )
        assert report.rel_err[3] == pytest.approx(0.5 / REL_ERR_FLOOR_PCT)
        # Region 3 sits above the floor: a plain relative error.
        assert report.rel_err[2] == pytest.approx(0.5 / 9.5)
        assert report.tv == pytest.approx(0.005)

    def test_export_writes_per_region_gauges(self):
        detector = DriftDetector()
        detector.check(SimpleNamespace(gpu_hours_pct=(25.0, 50.0, 20.0, 5.0)))
        registry = MetricsRegistry()
        detector.export(registry)
        values = registry.counter_values()
        assert "mode_drift_tv" in values
        assert 'mode_share_pct{region="1"}' in values
        assert values['mode_share_pct{region="2"}'] == pytest.approx(50.0)


class TestHealthServer:
    def _degraded_monitor(self) -> HealthMonitor:
        monitor = HealthMonitor(
            [RuleSpec(name="hot", metric="m", kind="threshold",
                      op=">", value=0.0, severity="critical")],
            drift=False,
        )
        monitor.observe({"m": 1.0}, 0.0)
        return monitor

    def test_endpoints_round_trip(self):
        monitor = self._degraded_monitor()
        with HealthServer(monitor=monitor) as srv:
            status, body = fetch_url(srv.url + "/metrics")
            assert status == 200
            assert 'health_rule_state{rule="hot"} 2' in body

            status, body = fetch_url(srv.url + "/health")
            assert status == 503
            doc = json.loads(body)
            assert doc["status"] == "degraded"
            (rule,) = doc["rules"]
            assert rule["name"] == "hot"
            assert rule["state"] == "firing"

            status, body = fetch_url(srv.url + "/alerts")
            assert status == 200
            doc = json.loads(body)
            assert [r["name"] for r in doc["firing"]] == ["hot"]
            assert [e["transition"] for e in doc["history"]] == ["firing"]

            assert fetch_url(srv.url + "/")[0] == 200
            assert fetch_url(srv.url + "/nope")[0] == 404

    def test_metrics_carry_each_sinks_seconds(self, fleet):
        """The exporter serves the monitor's registry, which must hold
        ``stream_sink_seconds_total`` for every attached sink (the
        ``repro stream --serve`` wiring: no plane, no --obs)."""
        log, chunks = fleet
        monitor = HealthMonitor()
        engine = StreamEngine(log, interval_s=constants.TELEMETRY_INTERVAL_S)
        engine.attach(health=monitor, forensics=Forensics(),
                      history=History())
        for chunk in chunks:
            engine.ingest(chunk)
        engine.drain()
        assert sorted(engine.sink_seconds) == ["forensics", "history"]
        with HealthServer(monitor=monitor) as srv:
            status, body = fetch_url(srv.url + "/metrics")
        assert status == 200
        family = monitor.registry.to_dict()["stream_sink_seconds_total"]
        served = {
            s["labels"]["sink"]: s["value"] for s in family["series"]
        }
        assert served == engine.sink_seconds
        for sink, seconds in engine.sink_seconds.items():
            assert seconds > 0
            assert f'stream_sink_seconds_total{{sink="{sink}"}}' in body

    def test_health_turns_ok_after_resolution(self):
        monitor = self._degraded_monitor()
        with HealthServer(monitor=monitor) as srv:
            monitor.observe({"m": -1.0}, 10.0)
            status, body = fetch_url(srv.url + "/health")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_close_releases_port_and_rebinds(self):
        srv = HealthServer(registry=MetricsRegistry()).start()
        port = srv.port
        srv.close()
        srv.close()   # idempotent
        with pytest.raises(HealthError):
            srv.port
        with pytest.raises(HealthError):
            fetch_url(f"http://127.0.0.1:{port}/metrics", timeout_s=0.5)
        # The listening socket is really gone: the port rebinds at once.
        with HealthServer(registry=MetricsRegistry(), port=port) as srv2:
            assert srv2.port == port
            assert fetch_url(srv2.url + "/metrics")[0] == 200


class TestMonitorAndDashboard:
    def test_seeded_drift_fires_and_check_exits_nonzero(
        self, fleet, tmp_path, capsys
    ):
        # A reference with a shifted mode mix the live fleet can never
        # match: mode_drift must fire deterministically and stay firing.
        log, chunks = fleet
        monitor = HealthMonitor(reference=DriftReference(
            gpu_hours_pct=(5.0, 10.0, 25.0, 60.0), label="shifted mix",
        ))
        _drained(log, chunks, monitor)
        assert monitor.alerts.evaluations > 0
        assert any(
            e["rule"] == "mode_drift" and e["transition"] == "firing"
            for e in monitor.events
        )
        assert not monitor.healthy

        with HealthServer(monitor=monitor) as srv:
            status, body = fetch_url(srv.url + "/health")
            assert status == 503
            doc = json.loads(body)
            assert doc["drift"]["report"]["tv"] > 0.1
            assert cli_main(
                ["obs", "alerts", "--url", srv.url, "--check"]
            ) == 1
            out = capsys.readouterr().out
            assert "mode_drift" in out
            assert "status degraded" in out

        # The same verdict from a persisted health.json.
        path = tmp_path / "health.json"
        path.write_text(json.dumps({
            "schema": 1,
            "health": monitor.to_health_dict(),
            "alerts": monitor.to_alerts_dict(),
        }))
        assert cli_main(["obs", "alerts", str(path), "--check"]) == 1
        assert cli_main(["obs", "alerts", str(path)]) == 0   # report-only
        capsys.readouterr()

    def test_matching_reference_stays_healthy(self, fleet):
        log, chunks = fleet
        # Pin the reference to this fleet's own batch decomposition: the
        # drained stream converges onto it, so mode_drift must resolve.
        probe = HealthMonitor(drift=False)
        engine = _drained(log, chunks, probe)
        from repro.core import decompose_modes

        reference = DriftReference.from_table(
            decompose_modes(engine.cube(copy=True))
        )
        monitor = HealthMonitor(reference=reference)
        _drained(log, chunks, monitor)
        assert monitor.drift.last_report.tv < 0.01
        states = {r["name"]: r["state"] for r in monitor.alerts.rule_states()}
        assert states["mode_drift"] == "inactive"
        assert states["stream_samples_absent"] == "inactive"

    def test_obs_alerts_needs_exactly_one_source(self, capsys):
        assert cli_main(["obs", "alerts"]) == 2
        assert cli_main(
            ["obs", "alerts", "x.json", "--url", "http://127.0.0.1:1"]
        ) == 2
        capsys.readouterr()

    def test_obs_summary_url_reads_live_metrics(self, capsys):
        registry = MetricsRegistry()
        registry.gauge("stream_samples_in").set(42.0)
        with HealthServer(registry=registry) as srv:
            assert cli_main(["obs", "summary", "--url", srv.url]) == 0
        out = capsys.readouterr().out
        assert "stream_samples_in" in out
        assert "42" in out

    def test_dashboard_renders_sequential_frames(self, fleet):
        log, chunks = fleet
        monitor = HealthMonitor()
        engine = _drained(log, chunks, monitor)
        snap = engine.snapshot()
        buf = io.StringIO()
        dashboard = Dashboard(stream=buf)
        dashboard.update(snap, monitor)
        dashboard.update(snap, monitor)
        text = buf.getvalue()
        assert text.count("repro stream — live health") == 2
        assert "=" * 72 in text                    # non-tty frame separator
        assert "mode shares vs paper Table IV" in text
        assert "alerts:" in text
        assert "\x1b[" not in text                 # no ANSI off-terminal
