"""The ``/v1/query`` + ``/v1/series`` routes: answers, caching, errors.

A flat synthetic fleet keeps every history row deterministic, so query
responses are exact and — because the route key canonicalizes
parameters — equivalent spellings of one query must share cached bytes.
"""

import json

import numpy as np
import pytest

from repro import constants, units
from repro.cli import main
from repro.obs.history import History
from repro.obs.httpd import fetch_url
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane, ControlPlaneServer
from repro.stream import replay_store
from repro.telemetry import FleetTelemetryGenerator
from repro.telemetry.schema import TelemetryChunk
from repro.telemetry.store import TelemetryStore

NODES = 8
WINDOW_TICKS = 4
WINDOW_S = WINDOW_TICKS * constants.TELEMETRY_INTERVAL_S
N_WINDOWS = 24
GPU_W = 310.0
CPU_W = 120.0


def synthetic_store() -> TelemetryStore:
    ticks = N_WINDOWS * WINDOW_TICKS
    time_s = np.repeat(
        np.arange(ticks, dtype=np.float64)
        * constants.TELEMETRY_INTERVAL_S,
        NODES,
    )
    return TelemetryStore(TelemetryChunk(
        time_s=time_s,
        node_id=np.tile(np.arange(NODES, dtype=np.int32), ticks),
        gpu_power_w=np.full(
            (ticks * NODES, constants.GPUS_PER_NODE), GPU_W,
            dtype=np.float32,
        ),
        cpu_power_w=np.full(ticks * NODES, CPU_W, dtype=np.float32),
    ))


@pytest.fixture(scope="module")
def served():
    log = SlurmSimulator(default_mix(fleet_nodes=NODES)).run(
        units.days(0.2), rng=0
    )
    plane = ControlPlane(log, window_s=WINDOW_S, history=History())
    for chunk in replay_store(synthetic_store(), chunk_ticks=WINDOW_TICKS):
        plane.ingest(chunk)
    plane.drain()
    server = plane.serve(port=0)
    yield plane, server.url
    plane.close()


def get_doc(url: str):
    status, body = fetch_url(url)
    return status, json.loads(body)


class TestSeriesRoute:
    def test_series_catalog_and_frozen_levels(self, served):
        plane, url = served
        status, doc = get_doc(url + "/v1/series")
        assert status == 200
        assert doc["version"] == plane.cache.view.version
        names = [s["name"] for s in doc["series"]]
        assert "energy_j" in names and "over_limit_samples" in names
        assert doc["window_s"] == WINDOW_S
        assert doc["t_first_s"] == 0.0
        assert doc["t_last_s"] == (N_WINDOWS - 1) * WINDOW_S
        assert doc["levels"][0]["rows"] == N_WINDOWS
        assert {s["name"] for s in doc["slos"]} == {
            "cap_violation", "energy_budget", "serve_latency",
        }

    def test_index_advertises_the_routes(self, served):
        _plane, url = served
        _status, body = fetch_url(url + "/")
        assert "/v1/series" in body and "/v1/query" in body

    def test_slo_gauges_ride_the_scrape(self, served):
        _plane, url = served
        status, text = fetch_url(url + "/metrics")
        assert status == 200
        assert "slo_cap_violation_burn_fast" in text
        assert "history_windows_total" in text


class TestQueryRoute:
    def test_energy_query_matches_the_exact_total(self, served):
        _plane, url = served
        status, doc = get_doc(
            url + f"/v1/query?series=energy_j&step={WINDOW_S}&level=0"
        )
        assert status == 200
        q = doc["query"]
        assert q["series"] == "energy_j" and q["agg"] == "sum"
        assert len(q["values"]) == N_WINDOWS
        # Flat profile: every window holds the same exact GPU energy.
        per_window = GPU_W * constants.GPUS_PER_NODE * NODES * WINDOW_S
        assert q["values"] == [pytest.approx(per_window)] * N_WINDOWS

    def test_defaults_cover_the_whole_retained_span(self, served):
        _plane, url = served
        status, doc = get_doc(url + "/v1/query?series=gpu_samples")
        assert status == 200
        q = doc["query"]
        assert q["t0_s"] == 0.0
        assert q["t1_s"] == N_WINDOWS * WINDOW_S
        assert sum(v for v in q["values"] if v is not None) == (
            N_WINDOWS * WINDOW_TICKS * NODES * constants.GPUS_PER_NODE
        )

    def test_agg_override_and_auto_level(self, served):
        _plane, url = served
        status, doc = get_doc(
            url + "/v1/query?series=max_gpu_power_w&agg=mean"
            + f"&step={N_WINDOWS * WINDOW_S}"
        )
        assert status == 200
        q = doc["query"]
        assert q["agg"] == "mean"
        assert q["values"] == [pytest.approx(GPU_W, rel=1e-5)]

    def test_equivalent_spellings_share_cached_bytes(self, served):
        _plane, url = served
        a = fetch_url(
            url + f"/v1/query?series=energy_j&step={WINDOW_S:.0f}"
        )
        b = fetch_url(
            url + f"/v1/query?series=energy_j&step={WINDOW_S:.1f}"
        )
        assert a[0] == b[0] == 200
        assert a[1] == b[1]

    def test_repeat_query_is_byte_stable(self, served):
        _plane, url = served
        route = url + "/v1/query?series=nodes&agg=max"
        assert fetch_url(route) == fetch_url(route)


class TestQueryErrors:
    def test_missing_series_is_400(self, served):
        _plane, url = served
        status, doc = get_doc(url + "/v1/query")
        assert status == 400
        assert "series" in doc["error"]

    def test_unknown_series_is_400(self, served):
        _plane, url = served
        status, doc = get_doc(url + "/v1/query?series=nope")
        assert status == 400
        assert "unknown series" in doc["error"]

    def test_bad_agg_and_bad_floats_are_400(self, served):
        _plane, url = served
        status, doc = get_doc(
            url + "/v1/query?series=energy_j&agg=median"
        )
        assert status == 400
        assert "aggregation" in doc["error"]
        status, doc = get_doc(
            url + "/v1/query?series=energy_j&t0=abc"
        )
        assert status == 400
        assert "bad query parameter" in doc["error"]

    def test_inverted_range_is_400(self, served):
        _plane, url = served
        status, doc = get_doc(
            url + "/v1/query?series=energy_j&t0=100&t1=50"
        )
        assert status == 400
        assert "time range" in doc["error"]


@pytest.fixture(scope="module")
def served_store(tmp_path_factory):
    """A plane whose history persists to a directory, served live."""
    store_dir = tmp_path_factory.mktemp("history")
    mix = default_mix(fleet_nodes=NODES)
    log = SlurmSimulator(mix).run(units.days(0.2), rng=0)
    store = FleetTelemetryGenerator(log, mix, seed=7).generate()
    plane = ControlPlane(
        log, window_s=WINDOW_S, history=History(dir=store_dir)
    )
    for chunk in replay_store(store, chunk_ticks=WINDOW_TICKS):
        plane.ingest(chunk)
    plane.drain()
    server = plane.serve(port=0)
    yield str(store_dir), server.url
    plane.close()


class TestCliQueryIsTheRoute:
    """``repro obs query --dir`` answers like ``/v1/query`` on one store."""

    @pytest.mark.parametrize("params", [
        {},
        {"step": 3 * WINDOW_S, "agg": "max"},
        {"t0": 2.5 * WINDOW_S, "t1": 40 * WINDOW_S},
        {"t0": WINDOW_S, "level": 0},
    ])
    @pytest.mark.parametrize("series", ["energy_j", "cap_w"])
    def test_same_query_dict(self, served_store, series, params, capsys):
        store_dir, url = served_store
        query = "".join(f"&{k}={v}" for k, v in params.items())
        status, doc = get_doc(f"{url}/v1/query?series={series}{query}")
        assert status == 200
        flags = [f"--{k}={v}" for k, v in params.items()]
        assert main(
            ["obs", "query", series, "--dir", store_dir, "--json", *flags]
        ) == 0
        assert json.loads(capsys.readouterr().out) == doc["query"]


class TestHistoryDisabled:
    def test_routes_answer_404_without_a_history(self):
        log = SlurmSimulator(default_mix(fleet_nodes=4)).run(
            units.days(0.1), rng=0
        )
        plane = ControlPlane(log, window_s=WINDOW_S)
        assert plane.history is None
        for chunk in replay_store(
            synthetic_store(), chunk_ticks=WINDOW_TICKS
        ):
            plane.ingest(chunk)
        plane.drain()
        with ControlPlaneServer(plane, port=0) as server:
            for route in ("/v1/series", "/v1/query?series=energy_j"):
                status, doc = get_doc(server.url + route)
                assert status == 404
                assert "history disabled" in doc["error"]
        plane.close()
