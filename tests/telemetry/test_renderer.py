"""The batched renderer against one allocation at a time.

``_Renderer`` draws each allocation's phase walk and its two unit-normal
draws from the allocation's own substream, the normals straight into
the generator's scratch, then expands the phases, adds the sensor noise
and clamps once per batch of at most ``_BLOCK_ROWS`` allocation ticks.
The reference below is the body it replaced: one allocation at a time,
``sample_trace`` then ``normal(0.0, noise)``, cast and written on its
own.  Every rendered sample must match it bitwise, in every entry point
and under any row budget.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import constants, units
from repro.rng import substream
from repro.scheduler import SlurmSimulator, default_mix
from repro.telemetry import FleetTelemetryGenerator
from repro.telemetry import generator as generator_mod

GPUS = constants.GPUS_PER_NODE


def _reference_trace(profile, n_samples, interval_s, gen, n_streams):
    """``PowerProfile.sample_trace`` as one function."""
    cdf, mean_dwell, dwell_means, means, stds = profile._walk
    total_t = n_samples * interval_s
    n_draws = max(4, int(np.ceil(total_t / mean_dwell * 2.5)) + 8)
    shape = (n_streams, n_draws)
    phase_idx = cdf.searchsorted(gen.random(shape), side="right")
    dwells = dwell_means[phase_idx] * gen.standard_exponential(shape)
    edges = np.cumsum(dwells, axis=1)
    edges[:, -1] = np.maximum(edges[:, -1], total_t + interval_s)
    t = (np.arange(n_samples) + 0.5) * interval_s
    runs = np.searchsorted(t, edges, side="left")
    runs[:, 1:] -= runs[:, :-1].copy()
    runs = runs.reshape(-1)
    active = phase_idx.reshape(-1)
    out = gen.normal(0.0, 1.0, size=(n_streams, n_samples))
    out *= np.repeat(stds[active], runs).reshape(out.shape)
    out += np.repeat(means[active], runs).reshape(out.shape)
    return np.maximum(out, 0.0, out=out)


def _reference_node(gen, node_id):
    """``(gpu (n, 4), cpu (n,))`` float32 power of one node, rendered
    one allocation at a time."""
    n = gen.n_samples
    spec = gen.node_spec
    noise = spec.gpu.sensor_noise_w / np.sqrt(
        generator_mod._SAMPLES_PER_WINDOW
    )
    idle = substream(gen.seed, "idle", node_id).normal(
        0.0, noise, size=(n, GPUS)
    )
    gpu = (idle + spec.gpu.idle_w).astype(np.float32)
    cpu_load = np.full(n, 0.05)
    for alloc in gen.log.allocations_for_node(node_id):
        lo = int(np.ceil(alloc.start_time_s / gen.interval_s))
        hi = min(int(np.ceil(alloc.end_time_s / gen.interval_s)), n)
        if hi <= lo:
            continue
        profile = gen._profiles[gen._jobs[alloc.job_id].domain]
        rng = substream(gen.seed, "job", alloc.job_id, "node", node_id)
        trace = _reference_trace(profile, hi - lo, gen.interval_s, rng, GPUS)
        trace += rng.normal(0.0, noise, size=trace.shape)
        np.maximum(trace, 0.0, out=trace)
        gpu[lo:hi] = np.ascontiguousarray(trace.T, dtype=np.float32)
        cpu_load[lo:hi] = rng.uniform(0.2, 0.55)
    cpu = spec.cpu_idle_w + (spec.cpu_max_w - spec.cpu_idle_w) * cpu_load
    return gpu, cpu.astype(np.float32)


def _campaign(nodes, days, seed):
    mix = default_mix(fleet_nodes=nodes)
    log = SlurmSimulator(mix).run(units.days(days), rng=seed)
    return log, mix


#: ``(row budget when the generator is built, row budget when it
#: renders)``: the real one; batches split at 64 ticks, where most
#: allocations overflow the budget alone; and batches of up to 100,000
#: ticks against a 64-tick scratch, which then draws into fresh arrays.
BUDGETS = [(None, None), (64, 64), (1000, 1000), (64, 100_000)]


def _budget(rows):
    return mock.patch.object(
        generator_mod, "_BLOCK_ROWS",
        generator_mod._BLOCK_ROWS if rows is None else rows,
    )


@pytest.mark.parametrize("built, rendered", BUDGETS)
@pytest.mark.parametrize("nodes, days, seed", [(4, 0.5, 0), (3, 1.0, 7)])
def test_node_chunk_and_generate_equal_one_allocation_at_a_time(
    nodes, days, seed, built, rendered
):
    log, mix = _campaign(nodes, days, seed)
    with _budget(built):
        gen = FleetTelemetryGenerator(log, mix, seed=seed + 1000)
    with _budget(rendered):
        chunks = [gen.node_chunk(node) for node in range(nodes)]
        store = gen.generate()
    ref = [_reference_node(gen, node) for node in range(nodes)]
    for node, (chunk, (gpu, cpu)) in enumerate(zip(chunks, ref)):
        assert chunk.gpu_power_w.tobytes() == gpu.tobytes(), node
        assert chunk.cpu_power_w.tobytes() == cpu.tobytes(), node
    assert store.chunk.gpu_power_w.tobytes() == np.concatenate(
        [gpu for gpu, _ in ref]
    ).tobytes()
    assert store.chunk.cpu_power_w.tobytes() == np.concatenate(
        [cpu for _, cpu in ref]
    ).tobytes()


@pytest.mark.parametrize("built, rendered", BUDGETS)
@pytest.mark.parametrize("chunk_ticks", [7, 20])
def test_time_chunks_equal_one_allocation_at_a_time(
    chunk_ticks, built, rendered
):
    # Small budgets split the horizon into many blocks, so allocations
    # outlive the block that first renders them and are written from
    # their float32 copies.
    nodes = 4
    log, mix = _campaign(nodes, 0.5, 3)
    with _budget(built):
        gen = FleetTelemetryGenerator(log, mix, seed=1003)
    with _budget(rendered):
        chunks = list(gen.time_chunks(chunk_ticks))
    gpu = np.concatenate([c.gpu_power_w for c in chunks])
    cpu = np.concatenate([c.cpu_power_w for c in chunks])
    ref = [_reference_node(gen, node) for node in range(nodes)]
    # Time-major rows: tick by tick, node by node.
    want_gpu = np.stack([g for g, _ in ref], axis=1).reshape(-1, GPUS)
    want_cpu = np.stack([c for _, c in ref], axis=1).reshape(-1)
    assert gpu.tobytes() == want_gpu.tobytes()
    assert cpu.tobytes() == want_cpu.tobytes()


def test_node_chunk_renders_a_node_in_one_batch():
    # Structural guard against rendering one allocation at a time: at
    # half a day, each node's allocations fit one batch.
    log, mix = _campaign(4, 0.5, 0)
    gen = FleetTelemetryGenerator(log, mix, seed=1000)
    batches = []
    activate = generator_mod._Renderer._activate

    def counted(self, batch):
        batches.append(len(batch))
        return activate(self, batch)

    with mock.patch.object(generator_mod._Renderer, "_activate", counted):
        for node in range(4):
            gen.node_chunk(node)
    busy = [node for node in range(4) if gen._node_allocs[node]]
    assert len(batches) == len(busy)
    assert sum(batches) == sum(len(gen._node_allocs[n]) for n in busy)


@pytest.mark.parametrize("scale", [1.0, 0.3, 5.0 / np.sqrt(7.5), 12.5])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_scaled_standard_normal_out_equals_normal(scale, seed):
    # normal(0.0, s) is 0.0 + s * z on the same bit stream.
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = want_rng.normal(0.0, scale, size=(4, 25_000))
    buf = np.empty(2 * want.size)
    got = got_rng.standard_normal(out=buf[: want.size].reshape(want.shape))
    got *= scale
    assert got.tobytes() == want.tobytes()
    assert got_rng.random() == want_rng.random()
