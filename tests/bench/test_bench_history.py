"""The benchmark gates' shared harness and drift trail.

Loads ``benchmarks/bench_history.py`` and the six gate scripts by path
(the benchmarks dir is not a package) and pins the contract the CI
gates rely on: a timing more than 20 % above its trailing median is
flagged, one at or under 20 % is not; every gate's ``timings`` reads
every tracked figure out of its committed ``BENCH_*.json``; the shared
``run_gate`` records, checks and appends exactly as asked; and each
gate keeps its option strings.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"

#: The figures each gate tracks in the history trail.
GATE_TIMINGS = {
    "bench_batch": {
        "fig4_scalar_ms", "fig4_batched_ms", "join_ms", "stream_ingest_ms",
    },
    "bench_shard": {"shard_serial_ms"},
    "bench_serve": {"serve_p50_ms", "serve_p99_ms"},
    "bench_forensics": {
        "forensics_plain_ms", "forensics_recorded_ms",
        "forensics_reader_view_ms_p50",
    },
    "bench_query": {
        "query_ingest_ms", "query_full_span_p99_ms", "query_mixed_p99_ms",
    },
    "bench_logs": {"logs_bare_ms", "logs_attached_ms", "logs_query_p99_ms"},
}

SHARED = ["-h", "--help", "--record", "--check", "--quick"]
#: Each gate's option strings, in order; scripts and CI depend on them.
GATE_OPTIONS = {
    "bench_batch": SHARED + ["--overhead-only", "--history"],
    "bench_shard": SHARED + ["--history"],
    "bench_serve": SHARED + ["--clients", "--duration", "--history"],
    "bench_forensics": SHARED + ["--rounds", "--history"],
    "bench_query": SHARED + ["--dir", "--history"],
    "bench_logs": SHARED + ["--rounds", "--history"],
}


def _load(name, alias):
    spec = importlib.util.spec_from_file_location(alias, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module    # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bh():
    return _load("bench_history", "bench_history_under_test")


@pytest.fixture(scope="module")
def gates():
    # The gates import bench_history by name, as they do when run as
    # scripts from the benchmarks dir.
    sys.path.insert(0, str(BENCH))
    try:
        return {
            name: _load(name, f"{name}_under_test") for name in GATE_OPTIONS
        }
    finally:
        sys.path.remove(str(BENCH))


def entries(key, values):
    return [
        {"sha": f"s{i}", "time": "t", "quick": False,
         "timings": {key: v}}
        for i, v in enumerate(values)
    ]


class TestDriftFlags:
    def test_over_twenty_percent_is_flagged(self, bh):
        history = entries("join_ms", [10.0, 10.0, 10.0, 10.0])
        flags = bh.drift_flags({"join_ms": 12.1}, history)
        assert len(flags) == 1
        assert "join_ms" in flags[0]
        assert "above the trailing median" in flags[0]

    def test_at_or_under_twenty_percent_is_not_flagged(self, bh):
        history = entries("join_ms", [10.0, 10.0, 10.0, 10.0])
        assert bh.drift_flags({"join_ms": 12.0}, history) == []
        assert bh.drift_flags({"join_ms": 9.0}, history) == []

    def test_median_is_over_the_trailing_window_only(self, bh):
        # Ancient slowness outside the window must not mask new drift.
        values = [100.0] * 5 + [10.0] * bh.WINDOW
        history = entries("join_ms", values)
        assert bh.drift_flags({"join_ms": 12.1}, history)

    def test_too_few_priors_never_flags(self, bh):
        history = entries("join_ms", [10.0] * (bh.MIN_PRIOR - 1))
        assert bh.drift_flags({"join_ms": 1000.0}, history) == []

    def test_keys_are_tracked_independently(self, bh):
        history = entries("join_ms", [10.0] * 5) + entries(
            "fig4_scalar_ms", [5.0] * 5
        )
        flags = bh.drift_flags(
            {"join_ms": 20.0, "fig4_scalar_ms": 5.0}, history
        )
        assert len(flags) == 1 and "join_ms" in flags[0]


class TestQueryWiring:
    RESULTS = {
        "history_query": {
            "ingest_s": 2.0,
            "full_span": {"p99_ms": 0.8},
            "mixed": {"p99_ms": 1.2},
        },
    }

    def test_timings_pick_up_the_query_scalars(self, gates):
        timings = gates["bench_query"].timings(self.RESULTS)
        assert timings == {
            "query_ingest_ms": 2000.0,
            "query_full_span_p99_ms": 0.8,
            "query_mixed_p99_ms": 1.2,
        }

    def test_append_and_reload_roundtrip(self, bh, gates, tmp_path):
        path = tmp_path / "hist.jsonl"
        entry = bh.append_timings(
            gates["bench_query"].timings(self.RESULTS),
            path=path, sha="abc1234", timestamp="T", source="bench_query",
        )
        assert entry["timings"]["query_full_span_p99_ms"] == 0.8
        loaded = bh.load_history(path)
        assert len(loaded) == 1
        assert loaded[0]["timings"] == entry["timings"]

    def test_recorded_baseline_meets_the_latency_bar(self):
        doc = json.loads(
            (ROOT / "benchmarks" / "BENCH_query.json").read_text()
        )["history_query"]
        assert doc["full_span"]["p99_ms"] < 50.0
        assert doc["written_mb"] > doc["rss_ceiling_mb"]
        assert doc["rss_delta_mb"] < doc["rss_ceiling_mb"]
        assert doc["rollup_sample"]["mismatches"] == 0
        assert doc["history_invisible"] is True


class TestGateTimings:
    @pytest.mark.parametrize("name", sorted(GATE_TIMINGS))
    def test_committed_results_yield_every_key(self, gates, name):
        # A renamed result key must fail here, not silently drop a
        # series from drift tracking.
        doc = json.loads(
            (BENCH / f"BENCH_{name.split('_', 1)[1]}.json").read_text()
        )
        timings = gates[name].timings(doc)
        assert set(timings) == GATE_TIMINGS[name]
        assert all(math.isfinite(v) for v in timings.values())

    @pytest.mark.parametrize("name", sorted(GATE_OPTIONS))
    def test_option_strings_are_pinned(self, gates, name):
        gate = gates[name].GATE
        parser = gate.parser()
        options = [o for a in parser._actions for o in a.option_strings]
        assert options == GATE_OPTIONS[name]
        assert gate.source == name


class TestRunGate:
    @pytest.fixture
    def fake(self, bh, tmp_path):
        calls = []

        def check(results):
            calls.append(results)
            return 3

        gate = bh.Gate(
            source="bench_fake",
            doc="a fake gate",
            baseline=tmp_path / "BENCH_fake.json",
            measure=lambda args: {"fake": {"best_ms": 2.5}},
            check=check,
            timings=lambda results: {"fake_ms": results["fake"]["best_ms"]},
            check_help="gate the fake",
            quick_help="fewer fakes",
        )
        return gate, calls, tmp_path / "hist.jsonl"

    def test_record_writes_the_baseline(self, bh, fake):
        gate, calls, hist = fake
        assert bh.run_gate(gate, ["--record"], history=hist) == 0
        doc = json.loads(gate.baseline.read_text())
        assert doc == {"fake": {"best_ms": 2.5}, "quick": False}
        assert calls == [] and not hist.exists()

    def test_check_returns_the_checks_code(self, bh, fake):
        gate, calls, hist = fake
        assert bh.run_gate(gate, ["--check", "--quick"], history=hist) == 3
        assert calls == [{"fake": {"best_ms": 2.5}, "quick": True}]
        assert not gate.baseline.exists()

    def test_history_appends_one_entry_with_its_source(self, bh, fake):
        gate, _calls, hist = fake
        assert bh.run_gate(gate, ["--history"], history=hist) == 0
        entries = bh.load_history(hist)
        assert len(entries) == 1
        assert entries[0]["source"] == "bench_fake"
        assert entries[0]["timings"] == {"fake_ms": 2.5}
        assert entries[0]["quick"] is False
