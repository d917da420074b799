"""The flight recorder, anomaly detectors, and incident forensics.

The layer's two contracts, asserted here:

* **read-only** — attaching a recorder to a stream engine changes no
  analytic output bit (cube, per-job accumulator, snapshot);
* **deterministic** — the same campaign produces the same records,
  findings, incident ids, and bundles, whatever the chunking was.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants, units
from repro.cli import main
from repro.core import join_campaign
from repro.core.join import cubes_equal
from repro.errors import ForensicsError
from repro.obs import runtime
from repro.obs.forensics import (
    CapViolationDetector,
    EnergyRegressionDetector,
    FlightRecorder,
    Forensics,
    Incident,
    IncidentEngine,
    ModeMixDetector,
    PublicationStallDetector,
    StragglerDetector,
    WindowRecord,
    build_bundle,
    default_detectors,
    forensics_doc,
    load_forensics,
    make_record,
    render_doc,
    render_timeline,
    write_forensics_artifacts,
)
from repro.obs.health.drift import DriftReference
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane
from repro.stream import StreamEngine, canonical_windows, replay_store
from repro.telemetry import FleetTelemetryGenerator
from repro.telemetry.schema import TelemetryChunk

INTERVAL_S = constants.TELEMETRY_INTERVAL_S
GPUS = constants.GPUS_PER_NODE
WINDOW_TICKS = 4
WINDOW_S = WINDOW_TICKS * INTERVAL_S


def make_window(index, *, nodes=8, base_w=300.0, node_w=None):
    """One synthetic sealed window: ``nodes`` flat-power nodes.

    ``node_w`` overrides single nodes: ``{node_id: watts}`` or
    ``{node_id: (gpu_index, watts)}`` for a single hot GCD.
    """
    ticks = WINDOW_TICKS
    t0 = index * WINDOW_S
    time_s = np.repeat(
        t0 + np.arange(ticks, dtype=np.float64) * INTERVAL_S, nodes
    )
    node_id = np.tile(np.arange(nodes, dtype=np.int32), ticks)
    gpu = np.full((ticks * nodes, GPUS), base_w, dtype=np.float64)
    for node, spec in (node_w or {}).items():
        rows = node_id == node
        if isinstance(spec, tuple):
            gpu[rows, spec[0]] = spec[1]
        else:
            gpu[rows, :] = spec
    return TelemetryChunk(
        time_s=time_s,
        node_id=node_id,
        gpu_power_w=gpu.astype(np.float32),
        cpu_power_w=np.full(ticks * nodes, 100.0, dtype=np.float32),
    )


def record_of(window, index=0, **kwargs):
    return make_record(window, index=index, **kwargs)


def digest(doc) -> str:
    """Stable fingerprint of a JSON-ready document.

    Comparing digests (not multi-MB strings) keeps a failure readable —
    pytest would otherwise hand the full documents to difflib.
    """
    import hashlib

    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def campaign():
    mix = default_mix(fleet_nodes=8)
    log = SlurmSimulator(mix).run(units.days(0.25), rng=0)
    store = FleetTelemetryGenerator(log, mix, seed=1000).generate()
    return log, store


class TestFlightRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ForensicsError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_ring_evicts_oldest_and_counts(self):
        ring = FlightRecorder(capacity=4)
        for i in range(6):
            ring.append(record_of(make_window(i), index=i))
        assert len(ring) == 4
        assert ring.windows_seen == 6
        assert ring.evicted == 2
        assert [r.index for r in ring.records] == [2, 3, 4, 5]
        assert ring.last.index == 5
        values = ring.metric_values()
        assert values["forensics_windows_recorded"] == 6.0
        assert values["forensics_records_resident"] == 4.0
        assert values["forensics_records_evicted"] == 2.0

    def test_append_requires_fold_order(self):
        ring = FlightRecorder(capacity=4)
        ring.append(record_of(make_window(0), index=0))
        with pytest.raises(ForensicsError, match="fold order"):
            ring.append(record_of(make_window(2), index=2))

    def test_make_record_compacts_the_window(self):
        window = make_window(2, nodes=4, base_w=250.0,
                             node_w={1: 600.0})
        rec = record_of(window, index=2)
        assert rec.index == 2
        assert rec.t_start_s == 2 * WINDOW_S
        assert rec.t_end_s == 3 * WINDOW_S
        assert rec.samples == len(window)
        assert list(rec.node_ids) == [0, 1, 2, 3]
        # Energy identity: power x interval, per node and fleet-wide.
        expect_j = float(
            window.gpu_power_w.astype(np.float64).sum() * INTERVAL_S
        )
        assert rec.energy_j == pytest.approx(expect_j)
        assert rec.node_energy_j.sum() == pytest.approx(expect_j)
        assert rec.region_energy_j.sum() == pytest.approx(expect_j)
        assert rec.node_mean_power_w[1] == pytest.approx(600.0)
        assert rec.node_mean_power_w[0] == pytest.approx(250.0)
        # Node 1's GPUs sit above the 560 W GCD limit.
        assert rec.over_limit_samples == WINDOW_TICKS * GPUS
        assert rec.max_gpu_power_w == pytest.approx(600.0)

    def test_empty_window_record(self):
        empty = TelemetryChunk(
            time_s=np.empty(0),
            node_id=np.empty(0, dtype=np.int32),
            gpu_power_w=np.empty((0, GPUS), dtype=np.float32),
            cpu_power_w=np.empty(0, dtype=np.float32),
        )
        rec = record_of(empty, index=0)
        assert rec.samples == 0 and rec.energy_j == 0.0
        assert json.dumps(rec.to_dict())  # serializable

    def test_to_dict_trims_to_top_nodes(self):
        rec = record_of(make_window(0, nodes=8, node_w={5: 400.0}))
        doc = rec.to_dict(top_nodes=3)
        assert doc["nodes"] == 8
        assert len(doc["top_nodes"]) == 3
        assert doc["top_nodes"][0]["node"] == 5
        json.dumps(doc)


class TestDetectors:
    def test_straggler_fires_on_outlier_node(self):
        det = StragglerDetector(z_threshold=6.0)
        quiet = make_window(0)
        assert det.observe(record_of(quiet), quiet) == []
        hot = make_window(1, node_w={3: 540.0})
        findings = det.observe(record_of(hot, index=1), hot)
        assert len(findings) == 1
        f = findings[0]
        assert f.detector == "straggler" and f.severity == "warning"
        assert f.nodes == (3,)
        assert f.value >= 6.0
        assert "node 3" in f.summary

    def test_straggler_needs_a_quorum(self):
        det = StragglerDetector(z_threshold=2.0, min_nodes=4)
        tiny = make_window(0, nodes=3, node_w={0: 500.0})
        assert det.observe(record_of(tiny), tiny) == []

    def test_cap_violation_is_critical_with_node_evidence(self):
        det = CapViolationDetector()
        ok = make_window(0, base_w=500.0)
        assert det.observe(record_of(ok), ok) == []
        bad = make_window(1, node_w={6: (2, 575.0)})
        findings = det.observe(record_of(bad, index=1), bad)
        assert len(findings) == 1
        f = findings[0]
        assert f.detector == "cap_violation" and f.severity == "critical"
        assert f.nodes == (6,)
        # One hot GCD out of nodes x GPUS per tick.
        assert f.value == pytest.approx(1.0 / (8 * GPUS))

    def test_mode_mix_tv_distance_vs_reference(self):
        ref = DriftReference(
            gpu_hours_pct=(0.0, 100.0, 0.0, 0.0), label="all MI"
        )
        det = ModeMixDetector(ref, tv_threshold=0.2)
        mi = make_window(0, base_w=300.0)          # region 1 everywhere
        assert det.observe(record_of(mi), mi) == []
        ci = make_window(1, base_w=500.0)          # region 2 everywhere
        findings = det.observe(record_of(ci, index=1), ci)
        assert len(findings) == 1
        assert findings[0].value == pytest.approx(1.0)

    def test_energy_regression_after_pinned_baseline(self):
        det = EnergyRegressionDetector(baseline_windows=3,
                                       deviation_pct=20.0)
        for i in range(3):
            w = make_window(i, base_w=300.0)
            assert det.observe(record_of(w, index=i), w) == []
        steady = make_window(3, base_w=330.0)       # +10 %: inside band
        assert det.observe(record_of(steady, index=3), steady) == []
        hot = make_window(4, base_w=400.0)          # +33 %: fires
        findings = det.observe(record_of(hot, index=4), hot)
        assert len(findings) == 1
        assert findings[0].value == pytest.approx(100.0 / 3.0, rel=1e-3)

    def test_energy_regression_takes_the_baseline_median_once(
        self, monkeypatch
    ):
        # The baseline is frozen once full, so its median is too: the
        # count of np.median calls must not grow with the window count.
        median, calls = np.median, []

        def counting_median(*args, **kwargs):
            calls.append(1)
            return median(*args, **kwargs)

        counts = []
        for n_windows in (10, 40):
            windows = [make_window(i, base_w=300.0 + 5.0 * (i % 4))
                       for i in range(n_windows)]
            records = [record_of(w, index=i) for i, w in enumerate(windows)]
            det = EnergyRegressionDetector(baseline_windows=3)
            calls.clear()
            monkeypatch.setattr(np, "median", counting_median)
            for record, window in zip(records, windows):
                det.observe(record, window)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_publication_stall_needs_a_feed_and_a_lag(self):
        det = PublicationStallDetector(max_lag_windows=2.0)
        det.bind(window_s=WINDOW_S)
        w = make_window(5)
        # No control plane attached: never fires.
        assert det.observe(record_of(w, index=5), w) == []
        fresh = record_of(w, index=5, published_version=4,
                          published_frontier_s=5 * WINDOW_S)
        assert det.observe(fresh, w) == []
        stale = record_of(w, index=5, published_version=4,
                          published_frontier_s=2 * WINDOW_S)
        findings = det.observe(stale, w)
        assert len(findings) == 1
        assert findings[0].severity == "critical"
        assert findings[0].value == pytest.approx(4 * WINDOW_S)

    def test_default_set_order_is_stable(self):
        names = [d.name for d in default_detectors()]
        assert names == [
            "straggler", "cap_violation", "mode_mix",
            "energy_regression", "publication_stall",
        ]


class TestIncidentEngine:
    def fire(self, engine, index, *, nodes=(3,), base_w=300.0,
             node_w=None):
        window = make_window(index, node_w=node_w or {3: 540.0})
        record = record_of(window, index=index)
        det = StragglerDetector(z_threshold=6.0)
        engine.observe(record, det.observe(record, window), window=window)

    def quiet(self, engine, index):
        window = make_window(index)
        engine.observe(record_of(window, index=index), [], window=window)

    def test_merge_within_gap_split_beyond(self):
        engine = IncidentEngine(merge_gap=2)
        for i in (0, 1, 3):          # gaps <= 2 merge
            self.fire(engine, i)
        for i in (4, 5, 6):
            self.quiet(engine, i)    # 3 quiet windows resolve it
        self.fire(engine, 7)         # a new episode, new id
        engine.finalize(last_index=7)
        assert [i.id for i in engine.incidents] == ["inc-001", "inc-002"]
        first, second = engine.incidents
        assert first.status == "resolved"
        assert (first.first_window, first.last_window) == (0, 3)
        assert first.windows_firing == 3
        assert second.open          # still firing at the final window
        assert engine.open_incidents == [second]

    def test_finalize_resolves_everything_without_an_index(self):
        engine = IncidentEngine(merge_gap=2)
        self.fire(engine, 0)
        engine.finalize()
        assert engine.incidents[0].status == "resolved"

    def test_attribution_axes(self):
        engine = IncidentEngine(merge_gap=1, top_k=3)
        self.fire(engine, 0)
        doc = engine.incidents[0].to_dict(top_k=3)
        assert doc["top_nodes"][0]["id"] == 3      # the implicated node
        assert doc["top_nodes"][0]["energy_j"] > 0
        assert doc["top_modes"][0]["name"]         # canonical region name
        assert doc["findings"][0]["detector"] == "straggler"
        json.dumps(doc)

    def test_snapshot_and_timeline_render(self):
        engine = IncidentEngine()
        self.fire(engine, 0)
        engine.finalize()
        snap = engine.render(engine.freeze(), engine.findings_total)
        assert snap["total"] == 1 and snap["open"] == 0
        text = render_timeline(engine.incidents)
        assert "inc-001" in text and "straggler" in text
        # The dict form (what /v1/incidents serves) renders identically.
        assert render_timeline(snap["incidents"]) == text

    def test_get_by_id(self):
        engine = IncidentEngine()
        self.fire(engine, 0)
        assert engine.get("inc-001") is engine.incidents[0]
        assert engine.get("inc-999") is None


class TestForensicsFacade:
    def build(self, **kwargs):
        kwargs.setdefault("detectors", default_detectors(
            reference=DriftReference(
                gpu_hours_pct=(0.0, 100.0, 0.0, 0.0), label="all MI"
            ),
            z_threshold=6.0,
        ))
        return Forensics(interval_s=INTERVAL_S, **kwargs)

    def test_observe_finalize_summary(self):
        forensics = self.build()
        for i in range(10):
            node_w = {3: 540.0} if 4 <= i <= 6 else None
            forensics.observe_window(make_window(i, node_w=node_w))
        forensics.finalize()
        summary = forensics.summary()
        assert summary["windows_recorded"] == 10
        assert summary["incidents_total"] == 1
        assert summary["incidents_open"] == 0
        assert summary["findings_total"] == 3
        assert "straggler" in summary["detectors"]
        values = forensics.metric_values()
        assert values["forensics_incidents_total"] == 1.0
        assert values["forensics_findings_total"] == 3.0

    def test_serve_doc_carries_padded_record_slices(self):
        forensics = self.build()
        for i in range(10):
            node_w = {3: 540.0} if 4 <= i <= 6 else None
            forensics.observe_window(make_window(i, node_w=node_w))
        forensics.finalize()
        doc = forensics.serve_doc(pad=1)
        incident = doc["incidents"][0]
        assert (incident["first_window"], incident["last_window"]) == (4, 6)
        slice_ = doc["records_by_id"][incident["id"]]
        assert [r["index"] for r in slice_] == [3, 4, 5, 6, 7]
        json.dumps(doc)

    def test_attach_recorder_is_bitwise_invisible(self, campaign):
        log, store = campaign
        plain = StreamEngine(log, window_s=WINDOW_S)
        recorded = StreamEngine(log, window_s=WINDOW_S)
        forensics = self.build()
        recorded.attach(forensics=forensics)
        for engine in (plain, recorded):
            for chunk in replay_store(store, chunk_ticks=16):
                engine.ingest(chunk)
            engine.drain()
        assert cubes_equal(
            plain.cube(copy=False), recorded.cube(copy=False)
        )
        assert forensics.recorder.windows_seen > 0
        # The facade's gauges ride the engine's metric export.
        assert "forensics_windows_recorded" in recorded.metric_values()

    def test_identical_campaigns_yield_identical_forensics(self, campaign):
        log, store = campaign

        def one_pass(chunk_ticks):
            forensics = self.build(log=None)
            engine = StreamEngine(log, window_s=WINDOW_S)
            engine.attach(forensics=forensics)
            for chunk in replay_store(store, chunk_ticks=chunk_ticks):
                engine.ingest(chunk)
            engine.drain()
            return forensics

        a = one_pass(16)
        b = one_pass(16)            # identical delivery
        c = one_pass(48)            # different chunking, same windows
        # Identical delivery reproduces the full doc, records included.
        assert digest(a.serve_doc()) == digest(b.serve_doc())
        # Across chunkings the *incident* content is invariant; record
        # ingest deltas legitimately differ (one big chunk seals many
        # windows, charging the whole delta to the first).
        assert digest(a.reader_view().doc) == digest(c.reader_view().doc)

    def test_canonical_windows_replay_matches_engine(self, campaign):
        log, store = campaign
        streamed = self.build(log=log)
        engine = StreamEngine(log, window_s=WINDOW_S)
        engine.attach(forensics=streamed)
        for chunk in replay_store(store, chunk_ticks=16):
            engine.ingest(chunk)
        engine.drain()
        offline = self.build(log=log)
        for detector in offline.detectors:
            detector.bind(window_s=WINDOW_S)
        for window in canonical_windows(store, window_s=WINDOW_S):
            offline.observe_window(window)
        offline.finalize()
        doc = streamed.reader_view().doc
        assert digest(offline.reader_view().doc) == digest(doc)
        # The offline windows were labelled through the log, the
        # engine's by its own join: the same jobs either way.
        assert any(incident["top_jobs"] for incident in doc["incidents"])


def straggler_run(faulty) -> Forensics:
    """Eight finalized windows with node 2 straggling in ``faulty``."""
    forensics = Forensics(
        interval_s=INTERVAL_S,
        detectors=default_detectors(
            reference=DriftReference(
                gpu_hours_pct=(0.0, 100.0, 0.0, 0.0), label="all MI"
            ),
            z_threshold=6.0,
        ),
    )
    for i in range(8):
        node_w = {2: 540.0} if i in faulty else None
        forensics.observe_window(make_window(i, node_w=node_w))
    return forensics.finalize()


class TestBundles:
    @pytest.fixture()
    def forensics(self):
        return straggler_run(range(3, 5))

    def test_doc_bundle_roundtrip(self, forensics, tmp_path):
        doc = forensics_doc(forensics, command="pytest")
        assert doc["kind"] == "forensics" and doc["schema"] == 1
        assert doc["provenance"]["versions"]
        bundle = build_bundle(doc, "inc-001", pad=1)
        assert bundle["kind"] == "incident_bundle"
        assert bundle["incident"]["id"] == "inc-001"
        assert [r["index"] for r in bundle["records"]] == [2, 3, 4, 5]
        path = tmp_path / "bundle.json"
        path.write_text(render_doc(bundle))
        assert render_doc(json.loads(path.read_text())) == render_doc(bundle)

    def test_doc_is_the_served_view_plus_records(self, campaign):
        """``incidents.json`` reads the state ``/v1/incidents`` renders,
        mid-stream (open incidents) and after finalize."""
        log, store = campaign
        forensics = forensics_under_test()
        engine = StreamEngine(log, window_s=WINDOW_S)
        engine.attach(forensics=forensics)
        for chunk in replay_store(store, chunk_ticks=16):
            engine.ingest(chunk)
        for finished in (False, True):
            if finished:
                engine.drain()
            doc = forensics_doc(forensics)
            view = forensics.reader_view()
            assert doc["incidents"] == view.doc["incidents"]
            assert doc["summary"] == view.doc["summary"]
            assert doc["records"] == [
                forensics.recorder.record_doc(r) for r in view.records
            ]
            # ...which is the live state rendered from scratch.
            assert doc["summary"] == forensics.summary()
            assert doc["incidents"] == [
                i.to_dict(top_k=forensics.incidents.top_k)
                for i in forensics.incidents.incidents
            ]
            assert doc["records"] == [
                r.to_dict() for r in forensics.recorder.records
            ]
            assert any(i["status"] == "open" for i in doc["incidents"])

    def test_unknown_incident_raises(self, forensics):
        doc = forensics_doc(forensics)
        with pytest.raises(ForensicsError, match="inc-999"):
            build_bundle(doc, "inc-999")

    def test_write_artifacts_and_load(self, forensics, tmp_path):
        paths = write_forensics_artifacts(
            tmp_path, forensics, command="pytest"
        )
        assert paths["incidents"][0].name == "incidents.json"
        assert [p.name for p in paths["bundles"]] == [
            "incident_inc-001.json"
        ]
        doc = load_forensics(paths["incidents"][0])
        assert doc["summary"]["incidents_total"] == 1
        bundle = load_forensics(paths["bundles"][0])
        assert bundle["incident"]["id"] == "inc-001"

    def test_load_rejects_non_forensics_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"hello\": 1}")
        with pytest.raises(ForensicsError, match="not a forensics"):
            load_forensics(bad)
        missing = tmp_path / "missing.json"
        with pytest.raises(ForensicsError, match="cannot read"):
            load_forensics(missing)

    @pytest.mark.parametrize("doc, reason", [
        ({"incidents": "x"}, "not a list"),
        ({"incidents": [1, 2]}, "incident 0 is not an object"),
        ({"incident": "x"}, "incident 0 is not an object"),
        ({"incidents": [{"id": "inc-001"}]}, "incident 0 lacks detector"),
    ])
    def test_load_rejects_malformed_incidents(
        self, tmp_path, capsys, doc, reason
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ForensicsError, match=reason):
            load_forensics(bad)
        # The CLI reports it on one line and exits non-zero, no traceback.
        assert main(["obs", "incidents", "list", "--from", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("obs FAILED:")
        assert reason in err[0]


class TestBundleAsDocument:
    """``repro obs incidents --from`` a bundle reads its one incident."""

    def bundle(self, tmp_path, faulty) -> str:
        paths = write_forensics_artifacts(
            tmp_path, straggler_run(faulty), command="pytest"
        )
        return str(paths["bundles"][0])

    def test_load_keeps_the_bundle_as_one_incident(self, tmp_path):
        path = self.bundle(tmp_path, range(3, 5))
        bundle = json.loads(Path(path).read_text())
        doc = load_forensics(path)
        assert doc["incidents"] == [bundle["incident"]]
        for key in ("records", "logs", "metrics", "alerts", "provenance"):
            assert doc[key] == bundle[key], key

    def test_list_shows_the_incident(self, tmp_path, capsys):
        path = self.bundle(tmp_path, range(3, 5))
        assert main(["obs", "incidents", "--check", "--from", path]) == 0
        out = capsys.readouterr().out
        assert "0 open / 1 total" in out and "inc-001" in out

    def test_check_fails_on_an_open_incident(self, tmp_path, capsys):
        path = self.bundle(tmp_path, range(6, 8))
        assert main(["obs", "incidents", "--check", "--from", path]) == 1
        captured = capsys.readouterr()
        assert "1 open / 1 total" in captured.out
        assert "inc-001" in captured.err

    def test_show_reads_the_incident(self, tmp_path, capsys):
        path = self.bundle(tmp_path, range(3, 5))
        assert main(["obs", "incidents", "show", "inc-001",
                     "--from", path]) == 0
        out = capsys.readouterr().out
        assert "incident inc-001" in out and "recorder slice" in out

    def test_export_rewrites_the_bundle_byte_for_byte(self, tmp_path, capsys):
        path = self.bundle(tmp_path / "run", range(3, 5))
        out = tmp_path / "export"
        assert main(["obs", "incidents", "export", "--from", path,
                     "--out", str(out)]) == 0
        assert "exported 1 bundle(s)" in capsys.readouterr().out
        assert (out / "incident_inc-001.json").read_bytes() == (
            Path(path).read_bytes()
        )


#: Per-window faults for the incremental serve_doc tests, each tripping
#: a different detector (straggler, cap_violation, mode_mix).
FAULTS = {
    "straggler": dict(node_w={3: 540.0}),
    "hot_gcd": dict(node_w={5: (0, 600.0)}),
    "surge": dict(base_w=450.0),
}


def forensics_under_test(**kwargs) -> Forensics:
    return Forensics(
        interval_s=INTERVAL_S,
        detectors=default_detectors(
            reference=DriftReference(
                gpu_hours_pct=(0.0, 100.0, 0.0, 0.0), label="all MI"
            ),
            z_threshold=6.0,
        ),
        **kwargs,
    )


def reference_serve_doc(forensics, *, pad=1) -> dict:
    """``serve_doc()`` rebuilt from scratch: no memo, ring scans."""
    engine = forensics.incidents
    records = forensics.recorder.records
    summary = forensics.summary()
    summary["incidents_open"] = len(engine.open_incidents)
    return {
        "total": len(engine.incidents),
        "open": len(engine.open_incidents),
        "findings_total": engine.findings_total,
        "incidents": [i.to_dict(top_k=engine.top_k) for i in engine.incidents],
        "summary": summary,
        "records_by_id": {
            i.id: [
                r.to_dict() for r in records
                if i.first_window - pad <= r.index <= i.last_window + pad
            ]
            for i in engine.incidents
        },
    }


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestIncrementalServeDoc:
    @given(
        capacity=st.sampled_from([1, 2, 4, 7, 512]),
        merge_gap=st.integers(min_value=0, max_value=2),
        faults=st.lists(
            st.sampled_from([None, None, *FAULTS]), min_size=1, max_size=24,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_memoized_doc_equals_fresh_rebuild(
        self, capacity, merge_gap, faults,
    ):
        forensics = forensics_under_test(
            capacity=capacity, merge_gap=merge_gap,
        )
        published = []
        for i, fault in enumerate(faults):
            forensics.observe_window(make_window(i, **FAULTS.get(fault, {})))
            doc = forensics.serve_doc()
            assert canonical(doc) == canonical(reference_serve_doc(forensics))
            published.append((doc, canonical(doc)))
        forensics.finalize()
        doc = forensics.serve_doc()
        assert canonical(doc) == canonical(reference_serve_doc(forensics))
        # Memoized parts are shared with later publishes, never mutated:
        # every earlier document still reads as it did when published.
        for doc, text in published:
            assert canonical(doc) == text

    def test_eviction_empties_a_resolved_incidents_slice(self):
        forensics = forensics_under_test(capacity=4)
        slices = []
        for i in range(12):
            fault = "straggler" if 2 <= i <= 3 else None
            forensics.observe_window(make_window(i, **FAULTS.get(fault, {})))
            doc = forensics.serve_doc()
            assert canonical(doc) == canonical(reference_serve_doc(forensics))
            slices.append([r["index"] for r in doc["records_by_id"].get(
                "inc-001", [])])
        assert forensics.incidents.incidents[0].status == "resolved"
        assert slices[3] == [1, 2, 3]       # padded, still growing
        assert slices[5] == [2, 3, 4]       # trimmed from below
        assert slices[-1] == []             # evicted entirely
        # The record memo leaves with its records: it never outgrows
        # the ring.
        resident = {r.index for r in forensics.recorder.records}
        assert set(forensics.recorder._docs) <= resident

    def test_open_count_matches_the_open_list_every_window(self, campaign):
        log, store = campaign
        forensics = forensics_under_test()
        engine = StreamEngine(log, window_s=WINDOW_S)
        engine.attach(forensics=forensics)
        counts = []

        def check(_window):
            incidents = forensics.incidents
            counts.append(len(incidents.open_incidents))
            assert incidents.open_count == counts[-1]
            assert forensics.summary()["incidents_open"] == counts[-1]
            assert forensics.reader_view().doc["open"] == counts[-1]
            assert (
                forensics.metric_values()["forensics_incidents_open"]
                == counts[-1]
            )

        engine.add_window_observer(check)
        for chunk in replay_store(store, chunk_ticks=16):
            engine.ingest(chunk)
        engine.drain()
        assert max(counts) > 0 and len(counts) > 10

    def test_control_plane_renders_each_record_and_resolved_incident_once(
        self, campaign, monkeypatch,
    ):
        log, store = campaign
        record_calls, resolved_calls = {}, {}
        record_to_dict = WindowRecord.to_dict
        incident_to_dict = Incident.to_dict

        def counted_record(self, *args, **kwargs):
            record_calls[self.index] = record_calls.get(self.index, 0) + 1
            return record_to_dict(self, *args, **kwargs)

        def counted_incident(self, *args, **kwargs):
            if not self.open:
                resolved_calls[self.id] = resolved_calls.get(self.id, 0) + 1
            return incident_to_dict(self, *args, **kwargs)

        monkeypatch.setattr(WindowRecord, "to_dict", counted_record)
        monkeypatch.setattr(Incident, "to_dict", counted_incident)
        forensics = forensics_under_test(capacity=16)
        plane = ControlPlane(log, window_s=WINDOW_S, forensics=forensics)

        def read_every_incident():
            # Record documents render on first read, so a reader asks
            # for every incident's slice on every published view.
            view = plane.cache.view
            for incident in view.incidents.doc["incidents"]:
                assert view.body(f"incidents/{incident['id']}")[0] == 200

        try:
            for chunk in replay_store(store, chunk_ticks=16):
                if plane.ingest(chunk):
                    read_every_incident()
            plane.drain()
            read_every_incident()
        finally:
            plane.close()
        assert plane.cache.view.version > 10
        assert forensics.recorder.evicted > 0
        assert record_calls and max(record_calls.values()) == 1
        assert resolved_calls and max(resolved_calls.values()) == 1

    def test_refresh_reports_serve_doc_as_its_own_span(self, campaign):
        log, store = campaign
        st_obs = runtime.enable()
        plane = ControlPlane(log, window_s=WINDOW_S)
        try:
            for chunk in replay_store(store, chunk_ticks=16):
                plane.ingest(chunk)
            plane.drain()
        finally:
            plane.close()
        spans = st_obs.tracer.finished
        refresh = {s["span_id"] for s in spans if s["name"] == "serve.refresh"}
        serve_doc = [s for s in spans if s["name"] == "forensics.serve_doc"]
        assert len(serve_doc) == len(refresh) > 0
        assert all(s["parent_id"] in refresh for s in serve_doc)
