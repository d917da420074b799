"""Span-linked profiling: sampler, exporters, budgets, CLI, invariance.

The profiling contract mirrors the rest of the observability layer:
attaching any profiler changes no output bit (asserted bitwise against
an unprofiled run), every artifact is a deterministic function of the
recorded samples/spans, and profiles merged across ``chunked_map``
workers account identically for any worker count.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.errors import ObservabilityError
from repro.obs import runtime
from repro.obs.profiling import (
    DEFAULT_BUDGET_PATH,
    ExactProfiler,
    SamplingProfiler,
    check_budget,
    collapse_samples,
    load_budget,
    profile_timings,
    render_attribution,
    to_chrome_trace,
    to_collapsed,
    write_profile_artifacts,
)
from repro.obs.trace import Tracer
from repro.parallel import chunked_map

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSamplingProfiler:
    def test_sample_once_records_callers_stack_root_first(self):
        prof = SamplingProfiler()
        sample = prof.sample_once(t_unix=1.0)
        assert sample is not None
        # Leafmost frame is this test function; the driver's own frame
        # is pruned.  Root side holds the interpreter entry frames.
        assert sample["stack"][-1].endswith(
            "test_sample_once_records_callers_stack_root_first"
        )
        assert "sampler.sample_once" not in sample["stack"]
        assert prof.sample_count == 1 and prof.dropped == 0

    def test_samples_tagged_with_innermost_active_span(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer=tracer)
        assert prof.sample_once(t_unix=1.0)["span"] is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                tagged = prof.sample_once(t_unix=2.0)
        after = prof.sample_once(t_unix=3.0)
        assert tagged["span"] == "inner"
        assert tagged["span_id"] is not None
        assert after["span"] is None

    def test_exception_unwound_span_restores_active_tag(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer=tracer)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                assert prof.sample_once(t_unix=1.0)["span"] == "doomed"
                raise ValueError("boom")
        assert prof.sample_once(t_unix=2.0)["span"] is None
        assert tracer.finished[0]["error"] == "ValueError"

    def test_thread_sampler_profiles_a_busy_loop(self):
        prof = SamplingProfiler(interval_s=0.002).start()
        deadline = time.perf_counter() + 0.2
        x = 0
        while time.perf_counter() < deadline:
            x += 1
        prof.stop()
        assert prof.sample_count >= 1
        assert prof.samples and prof.samples[0]["stack"]
        # Stopping again is a no-op.
        prof.stop()

    def test_max_samples_bounds_memory_but_counts_all(self):
        prof = SamplingProfiler(max_samples=2)
        for i in range(5):
            prof.sample_once(t_unix=float(i))
        assert len(prof.samples) == 2
        assert prof.sample_count == 5
        assert prof.dropped == 3

    def test_deep_recursion_truncates_rootward(self):
        prof = SamplingProfiler(max_depth=10)
        captured = {}

        def recurse(n):
            if n == 0:
                captured["sample"] = prof.sample_once(t_unix=1.0)
                return
            recurse(n - 1)

        recurse(50)
        stack = captured["sample"]["stack"]
        assert stack[0] == "<truncated>"
        assert len(stack) == 11  # max_depth leafmost frames + marker
        assert stack[-1].endswith("recurse")

    def test_absorb_state_folds_counts_and_respects_bound(self):
        parent = SamplingProfiler(max_samples=3)
        parent.sample_once(t_unix=0.0)
        parent.sample_once(t_unix=1.0)
        worker = SamplingProfiler()
        for i in range(4):
            worker.sample_once(t_unix=float(i))
        parent.absorb_state(worker.state_dict())
        assert len(parent.samples) == 3
        assert parent.sample_count == 6
        assert parent.dropped == 3

    def test_export_config_builds_equivalent_worker_profiler(self):
        prof = SamplingProfiler(
            interval_s=0.25, memory=True, max_samples=7, max_depth=9
        )
        config = prof.export_config()
        twin = SamplingProfiler(**config)
        assert twin.interval_s == 0.25
        assert twin.max_samples == 7 and twin.max_depth == 9
        # Memory hooks stay parent-only: tracemalloc in every worker
        # would be pure overhead, so the config never carries it.
        assert twin.memory is False


class TestMemoryHooks:
    def test_spans_gain_memory_attrs_and_sites_are_captured(self):
        tracer = Tracer()
        prof = SamplingProfiler(tracer=tracer, memory=True,
                                interval_s=60.0).start()
        with tracer.span("alloc"):
            blob = bytearray(512 * 1024)
        prof.stop()
        del blob
        [rec] = tracer.finished
        assert rec["attrs"]["mem_net_kb"] >= 400.0
        assert rec["attrs"]["mem_peak_kb"] >= rec["attrs"]["mem_net_kb"]
        assert prof.memory_sites
        assert {"site", "kb", "count"} <= set(prof.memory_sites[0])


class TestExactProfiler:
    def test_function_table_counts_calls(self):
        exact = ExactProfiler().start()
        sum(i * i for i in range(1000))
        exact.stop()
        rows = exact.function_table(top=50)
        assert rows
        assert all(
            {"function", "ncalls", "self_s", "cum_s"} <= set(r)
            for r in rows
        )


class TestCollapsedExport:
    def test_folding_is_deterministic_and_span_rooted(self):
        samples = [
            {"stack": ["a", "b"], "span": "s1"},
            {"stack": ["a", "b"], "span": "s1"},
            {"stack": ["a", "c"], "span": None},
        ]
        folded = collapse_samples(samples)
        assert folded == {"span:s1;a;b": 2, "a;c": 1}
        text = to_collapsed(samples)
        assert text == "a;c 1\nspan:s1;a;b 2\n"
        assert to_collapsed([]) == ""

    def test_empty_stacks_are_skipped(self):
        assert collapse_samples([{"stack": [], "span": "x"}]) == {}


class TestChromeTrace:
    def test_spans_become_relative_complete_events(self):
        spans = [
            {"name": "parent", "span_id": "p", "parent_id": None,
             "pid": 7, "t0_unix": 100.0, "duration_s": 0.5,
             "attrs": {"rows": 3}, "error": None},
            {"name": "child", "span_id": "c", "parent_id": "p",
             "pid": 7, "t0_unix": 100.1, "duration_s": 0.2,
             "attrs": {}, "error": "ValueError"},
        ]
        samples = [{"t_unix": 100.2, "pid": 7,
                    "stack": ["a", "b"], "span": "child", "span_id": "c"}]
        doc = to_chrome_trace(spans, samples)
        events = doc["traceEvents"]
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        parent = next(e for e in events if e["name"] == "parent")
        child = next(e for e in events if e["name"] == "child")
        instant = next(e for e in events if e["ph"] == "i")
        assert parent["ts"] == 0.0 and parent["dur"] == 500000.0
        assert parent["args"]["rows"] == 3 and "error" not in parent["args"]
        assert child["args"]["error"] == "ValueError"
        assert instant["name"] == "b" and instant["args"]["span"] == "child"
        # Valid JSON end to end.
        assert json.loads(json.dumps(doc)) == doc

    def test_unwound_spans_export_from_a_real_tracer(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("unwind both")
        doc = to_chrome_trace(tracer.finished)
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["inner"]["args"]["error"] == "RuntimeError"
        assert by_name["outer"]["args"]["error"] == "RuntimeError"
        assert by_name["inner"]["args"]["parent_id"] == \
            by_name["outer"]["args"]["span_id"]


def _profiled_work(lo, hi):
    # One deterministic sample per chunk, taken inside the
    # parallel.task span so the tag proves span linkage in workers.
    runtime.state().profiler.sample_once()
    return sum(range(lo, hi))


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_profile_accounting_is_worker_count_invariant(self, workers):
        chunks = [(0, 5), (5, 10), (10, 15)]
        # A huge interval keeps the sampler threads quiet: the only
        # samples are the deterministic per-chunk ones in the task.
        prof = runtime.start_profiling(interval_s=3600.0)
        out = chunked_map(_profiled_work, chunks, workers=workers)
        runtime.stop_profiling()
        assert out == [10, 35, 60]
        assert prof.sample_count == len(chunks)
        assert prof.dropped == 0
        assert [s["span"] for s in prof.samples] == ["parallel.task"] * 3
        assert all(s["stack"] for s in prof.samples)


class TestBudget:
    def _spans(self, duration):
        return [{"name": "hot.path", "span_id": "x", "parent_id": None,
                 "duration_s": duration}]

    def test_within_budget_passes(self):
        budget = {"budgets": {"hot.path": {"max_total_s": 1.0}}}
        check = check_budget(self._spans(0.5), budget)
        assert check.ok and "perf budget OK" in check.render()

    def test_total_breach_fails(self):
        budget = {"budgets": {"hot.path": {"max_total_s": 0.1}}}
        check = check_budget(self._spans(0.5), budget)
        assert not check.ok
        assert check.breaches[0]["span"] == "hot.path"
        assert "BREACHED" in check.render()

    def test_mean_breach_fails(self):
        budget = {"budgets": {
            "hot.path": {"max_total_s": 10.0, "max_mean_s": 0.1},
        }}
        assert not check_budget(self._spans(0.5), budget).ok

    def test_absent_span_reports_but_never_fails(self):
        budget = {"budgets": {"never.recorded": {"max_total_s": 1.0}}}
        check = check_budget(self._spans(0.5), budget)
        assert check.ok
        assert check.rows[0]["status"] == "absent"

    def test_shipped_budget_file_is_valid_and_covers_table5(self):
        doc = load_budget(REPO_ROOT / DEFAULT_BUDGET_PATH)
        assert "experiment.table5" in doc["budgets"]

    def test_malformed_budgets_are_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"budgets": {"x": {"max_total_s": -1}}}')
        with pytest.raises(ObservabilityError):
            load_budget(bad)
        bad.write_text('{"budgets": {}}')
        with pytest.raises(ObservabilityError):
            load_budget(bad)
        with pytest.raises(ObservabilityError):
            load_budget(tmp_path / "missing.json")

    @pytest.mark.parametrize("text", ["5", "[1]", "null"])
    def test_non_object_budget_document_is_rejected(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ObservabilityError, match="not a perf budget"):
            load_budget(bad)


class TestArtifacts:
    def test_write_profile_artifacts_round_trips(self, tmp_path):
        tracer = Tracer()
        prof = SamplingProfiler(tracer=tracer)
        with tracer.span("unit.work"):
            prof.sample_once(t_unix=1.0)
        paths = write_profile_artifacts(
            tmp_path, spans=tracer.finished, profiler=prof,
            command="unit-test",
        )
        assert "span:unit.work;" in paths["collapsed"].read_text()
        trace = json.loads(paths["chrome_trace"].read_text())
        assert {e["name"] for e in trace["traceEvents"]} >= {"unit.work"}
        timings = json.loads(paths["timings"].read_text())
        assert timings["command"] == "unit-test"
        assert timings["sample_count"] == 1
        assert "span.unit.work_ms" in timings["timings"]

    def test_profile_timings_namespaces_span_keys(self):
        spans = [{"name": "a.b", "span_id": "1", "parent_id": None,
                  "duration_s": 0.25}]
        assert profile_timings(spans) == {"span.a.b_ms": 250.0}

    def test_render_attribution_includes_self_time_column(self):
        spans = [
            {"name": "child", "span_id": "c", "parent_id": "p",
             "duration_s": 0.3},
            {"name": "parent", "span_id": "p", "parent_id": None,
             "duration_s": 1.0},
        ]
        table = render_attribution(spans)
        assert "self s" in table
        assert "0.7000" in table  # parent self = 1.0 - 0.3


def _fresh_caches():
    from repro.experiments._campaign import build_campaign
    from repro.gpu.powercap import clear_powercap_cache

    build_campaign.cache_clear()
    clear_powercap_cache()


RUN_ARGS = ["--nodes", "24", "--days", "1", "--seed", "3"]


class TestCliProfile:
    def test_run_profile_is_bitwise_identical_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        _fresh_caches()
        plain = tmp_path / "plain"
        assert cli_main(
            ["run", "table5", *RUN_ARGS, "--out", str(plain)]
        ) == 0

        _fresh_caches()
        profiled = tmp_path / "profiled"
        prof_dir = tmp_path / "artifacts"
        assert cli_main([
            "run", "table5", *RUN_ARGS,
            "--out", str(profiled), "--profile",
            "--profile-dir", str(prof_dir),
        ]) == 0
        assert not runtime.enabled()

        assert (
            (profiled / "table5.txt").read_bytes()
            == (plain / "table5.txt").read_bytes()
        )
        assert "===== profile" in capsys.readouterr().out
        trace = json.loads((prof_dir / "trace.json").read_text())
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert len(names) >= 10
        assert {"experiment.table5", "join.campaign",
                "gpu.run_batch"} <= names
        assert (prof_dir / "profile.collapsed").exists()
        timings = json.loads(
            (prof_dir / "profile_timings.json").read_text()
        )
        assert "span.experiment.table5_ms" in timings["timings"]

    def test_obs_profile_check_gates_on_the_budget(self, tmp_path, capsys):
        generous = tmp_path / "generous.json"
        generous.write_text(json.dumps({
            "budgets": {"experiment.table1": {"max_total_s": 600.0}},
        }))
        _fresh_caches()
        rc = cli_main([
            "obs", "profile", "table1", *RUN_ARGS,
            "--out", str(tmp_path / "ok"),
            "--budget", str(generous), "--check",
        ])
        assert rc == 0
        assert "perf budget OK" in capsys.readouterr().out
        assert not runtime.enabled()

        impossible = tmp_path / "impossible.json"
        impossible.write_text(json.dumps({
            "budgets": {"experiment.table1": {"max_total_s": 1e-9}},
        }))
        _fresh_caches()
        rc = cli_main([
            "obs", "profile", "table1", *RUN_ARGS,
            "--out", str(tmp_path / "over"),
            "--budget", str(impossible), "--check",
        ])
        assert rc == 1
        assert "BREACHED" in capsys.readouterr().out
        assert not runtime.enabled()
