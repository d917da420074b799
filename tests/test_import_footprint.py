"""Resident footprint: what a process loads, and what one join fold holds.

Only Fig 8/9's mode finder uses ``scipy.signal`` and only the tests use
networkx, so the entry modules and ``repro --help`` load neither.  The
batch join writes every per-sample key into one int64 buffer, so one
``CampaignAccumulator.update`` holds a few copies of its chunk, not
eight.  The renderer draws each batch of allocations into scratch its
generator reuses, and ``join_campaign`` lets go of each chunk before the
next one renders.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro import units
from repro.core.join import CampaignAccumulator, join_campaign
from repro.scheduler import SlurmSimulator, default_mix
from repro.telemetry import FleetTelemetryGenerator

SRC = Path(__file__).resolve().parents[1] / "src"

_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
)))
"""


def _heavy_modules(body: str) -> list:
    out = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body)],
        cwd=SRC, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_entry_modules_load_no_scipy_or_networkx():
    body = "\n".join(
        f"import {name}" for name in (
            "repro.cli", "repro.serve", "repro.stream", "repro.core",
            "repro.obs",
        )
    )
    assert _heavy_modules(body) == []


def test_help_loads_no_scipy_or_networkx():
    body = (
        "import runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert _heavy_modules(body) == []


@pytest.fixture(scope="module")
def table5_campaign():
    """The table5 workload's campaign: a 96-node fleet over 4 days."""
    mix = default_mix(fleet_nodes=96)
    return mix, SlurmSimulator(mix).run(units.days(4.0), rng=0)


def _nbytes(chunk) -> int:
    return sum(
        col.nbytes for col in (
            chunk.time_s, chunk.node_id, chunk.gpu_power_w,
            chunk.cpu_power_w,
        )
    )


def test_join_update_peak_stays_under_six_chunks(table5_campaign):
    # One chunk of the table5 workload: 16 nodes x 4 days of a 96-node fleet.
    mix, log = table5_campaign
    gen = FleetTelemetryGenerator(log, mix, seed=1000)
    chunks = gen.chunks(nodes_per_chunk=16)
    warm, chunk = next(chunks), next(chunks)
    acc = CampaignAccumulator(log)
    acc.update(warm)   # one-time lookup tables are not per-chunk cost
    chunk_bytes = _nbytes(chunk)
    tracemalloc.start()
    try:
        acc.update(chunk)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chunk) == 16 * gen.n_samples
    assert peak < 6 * chunk_bytes, (
        f"update peaked at {peak / chunk_bytes:.2f}x its chunk"
    )


def test_chunks_render_peak_stays_under_two_and_a_half_chunks(
    table5_campaign,
):
    # The 16 node chunks, their concatenation, and one node's render
    # (the generator's scratch included): no per-batch arrays pile up.
    mix, log = table5_campaign
    tracemalloc.start()
    try:
        gen = FleetTelemetryGenerator(log, mix, seed=1000)
        chunk = next(gen.chunks(nodes_per_chunk=16))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chunk) == 16 * gen.n_samples
    assert peak < 2.5 * _nbytes(chunk), (
        f"render peaked at {peak / _nbytes(chunk):.2f}x its chunk"
    )


def test_join_campaign_renders_each_chunk_without_the_last(
    table5_campaign,
):
    # Traced peak while each chunk renders: chunks 2-6 must peak as the
    # first does, not one whole (11 MB) chunk above it.
    mix, log = table5_campaign
    gen = FleetTelemetryGenerator(log, mix, seed=1000)
    peaks, sizes = [], []

    def measured(chunks):
        # Holds no chunk of its own across the ``next`` it measures.
        it = iter(chunks)
        while True:
            tracemalloc.reset_peak()
            chunk = next(it, None)
            if chunk is None:
                return
            peaks.append(tracemalloc.get_traced_memory()[1])
            sizes.append(_nbytes(chunk))
            yield chunk
            del chunk

    tracemalloc.start()
    try:
        join_campaign(measured(gen.chunks(nodes_per_chunk=16)), log)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 6
    margin = sizes[0] / 8
    assert max(peaks[1:]) <= peaks[0] + margin, [
        f"{p / 2**20:.1f} MB" for p in peaks
    ]
