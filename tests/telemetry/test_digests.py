"""Pinned digests of generated telemetry.

The stream-vs-batch equality tests compare two renderings of the same
code, so they would still pass if both drifted together.  These tests
pin the generated numbers themselves: any change to a random draw, its
order, or the float operations applied to it changes a digest.  To
re-pin after an intentional change to the generated data, print
``_store_digest`` / ``_trace_digest`` for each case and paste the values.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import units
from repro.rng import substream
from repro.scheduler import SlurmSimulator, default_mix
from repro.telemetry import FleetTelemetryGenerator
from repro.telemetry.profiles import PROFILES


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _store_digest(nodes: int, days: float, seed: int) -> str:
    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=seed)
    chunk = FleetTelemetryGenerator(log, mix, seed=seed).generate().chunk
    return _digest(
        chunk.time_s, chunk.node_id, chunk.gpu_power_w, chunk.cpu_power_w
    )


def _trace_digest(name: str) -> str:
    profile = PROFILES[name]
    traces = []
    for n_samples in (1, 7, 100, 5000):
        for n_streams in (1, 4):
            rng = substream(7, "trace", name, n_samples, n_streams)
            traces.append(
                profile.sample_trace(
                    n_samples, 15.0, rng=rng, n_streams=n_streams
                )
            )
    return _digest(*traces)


STORE_DIGESTS = {
    (8, 0.25, 0): "a76303ab4d02c6bd22948a07e0c2c43c27c34c9871c7c853581b0da29367ce61",
    (8, 0.25, 2): "12220f0a96b4a17793eddbcf965a35335c9542b69361f62eab4586d499d032e0",
    (16, 0.5, 0): "c6b4879615ce84380d52dabbe344a27244c04b1c50b60b4855e33c0187acafc5",
    (32, 1.0, 5): "2b6da3628a57da7091ac2e81c22f3a9ddd643fd2a957a7c64a1006f935b27d10",
}

TRACE_DIGESTS = {
    "compute_heavy": "c7a14e0ad1024ccff5ee40737f09e5de72d976810be8fc1353029f9e83bcc0c8",
    "compute_heavy_alt": "1825c7612399d61923f58e4566e5bf770942dec4c879efe275cb5690c32257e1",
    "latency_bound": "bb0a426443d7a46780e4ab2e2dc4c9045ee9ff429d1f18c63324a97a76007c2c",
    "latency_bound_alt": "19bb519384fae471f5de66a72518eb5c1a2bf36f3ece9ad59ecf9cda797c38f0",
    "memory_bound": "d503404f240ef214a709a43ea47fb9e99294bcd7e6dc119536a8e309be300e9d",
    "memory_bound_alt": "0fb331353625d5a3e8578f68c436748da6598b2328e656a320cceb0fb511eb81",
    "multi_zone": "06db64fc95d00b73464a34cf762f6506cd46b78171dab1538db857d3f6db293c",
    "multi_zone_alt": "ebb0346f1c967cddbf2e9cf5e4d02068d8d9117ed9f78ad3fc8893612c487f1f",
    "mixed_low": "8dd8f22e20926bc471728c87fe680d91d747c07ede0601084c679c6a1f7da226",
}


@pytest.mark.parametrize("config", sorted(STORE_DIGESTS))
def test_generate_digest_pinned(config):
    assert _store_digest(*config) == STORE_DIGESTS[config]


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_sample_trace_digest_pinned(name):
    assert _trace_digest(name) == TRACE_DIGESTS[name]
