"""The campaign fold against a reference built from the plain formulas.

``CampaignAccumulator.update`` bins each chunk once and shares the bin
index between the system and the per-domain histograms, and labels
regions by comparison.  The reference below re-derives every piece the
straightforward way — ``searchsorted`` regions, and the histogram bin
formula evaluated separately for the system histogram and for the
grouped per-domain pass — and the two must agree bitwise, clipped
readings (>= 650 W) included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.core.histogram import StreamingHistogram
from repro.core.join import REGION_BOUNDS, CampaignAccumulator
from repro.telemetry.schema import TelemetryChunk


def _bins(values, hist):
    idx = ((values - hist.lo) / hist.bin_width).astype(np.int64)
    clipped = (idx < 0) | (idx >= hist.n_bins)
    return np.clip(idx, 0, hist.n_bins - 1), clipped


class _ReferenceFold:
    """The campaign fold, every step computed on its own."""

    def __init__(self, acc: CampaignAccumulator) -> None:
        self.acc = acc
        self.energy_j = np.zeros_like(acc.energy_j)
        self.gpu_hours = np.zeros_like(acc.gpu_hours)
        self.hist = StreamingHistogram()
        self.domain_hists = [StreamingHistogram() for _ in acc.domains]

    def update(self, chunk: TelemetryChunk) -> None:
        acc = self.acc
        interval = acc.interval_s
        jid = acc.log.job_id_table(chunk.time_s, chunk.node_id)
        d_row = acc._dom_of_job[jid]
        c_row = acc._cls_of_job[jid]
        power = chunk.gpu_power_w
        reg = np.searchsorted(np.asarray(REGION_BOUNDS), power, side="right")
        n_d, n_c = len(acc.domains), len(acc.classes)
        key = ((d_row[:, None] * n_c + c_row[:, None]) * 4 + reg).reshape(-1)
        flat = power.reshape(-1).astype(np.float64)
        m = n_d * n_c * 4
        self.energy_j += (
            np.bincount(key, weights=flat, minlength=m).reshape(n_d, n_c, 4)
            * interval
        )
        self.gpu_hours += np.bincount(key, minlength=m).reshape(
            n_d, n_c, 4
        ) * (interval / 3600.0)

        h = self.hist
        idx, clipped = _bins(flat, h)
        h.n_clipped += int(clipped.sum())
        h.counts += np.bincount(idx, minlength=h.n_bins)
        h.weight_sums += np.bincount(idx, weights=flat, minlength=h.n_bins)

        group = np.repeat(d_row, power.shape[1])
        idx, clipped = _bins(flat, h)
        gkey = group * h.n_bins + idx
        gm = n_d * h.n_bins
        counts = np.bincount(gkey, minlength=gm).reshape(n_d, h.n_bins)
        wsums = np.bincount(gkey, weights=flat, minlength=gm).reshape(
            n_d, h.n_bins
        )
        n_clip = np.bincount(group[clipped], minlength=n_d)
        for g, dh in enumerate(self.domain_hists):
            dh.counts += counts[g]
            dh.weight_sums += wsums[g]
            dh.n_clipped += int(n_clip[g])


def _same_hist(a: StreamingHistogram, b: StreamingHistogram) -> bool:
    return (
        np.array_equal(a.counts, b.counts)
        and np.array_equal(a.weight_sums, b.weight_sums)
        and a.n_clipped == b.n_clipped
    )


def _chunk(log, rng, rows: int, clip_frac: float) -> TelemetryChunk:
    n_ticks = int(log.horizon_s // constants.TELEMETRY_INTERVAL_S)
    gpu = rng.uniform(0.0, 640.0, size=(rows, constants.GPUS_PER_NODE))
    hot = rng.random(gpu.shape) < clip_frac
    gpu[hot] = rng.uniform(650.0, 900.0, size=int(hot.sum()))
    # Exact region and histogram edges, and the clip edge itself.
    edges = np.array([200.0, 420.0, 560.0, 648.0, 650.0, 0.0, 2.0])
    on_edge = rng.random(gpu.shape) < 0.05
    gpu[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
    return TelemetryChunk(
        time_s=rng.integers(0, n_ticks, size=rows)
        * constants.TELEMETRY_INTERVAL_S,
        node_id=rng.integers(0, log.n_nodes, size=rows).astype(np.int32),
        gpu_power_w=gpu.astype(np.float32),
        cpu_power_w=rng.uniform(50.0, 400.0, size=rows).astype(np.float32),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 400), min_size=1, max_size=4),
    clip_frac=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
)
def test_update_matches_reference_fold(campaign, seed, sizes, clip_frac):
    log, _store = campaign
    acc = CampaignAccumulator(log)
    ref = _ReferenceFold(acc)
    rng = np.random.default_rng(seed)
    hot = 0
    for rows in sizes:
        chunk = _chunk(log, rng, rows, clip_frac)
        acc.update(chunk)
        ref.update(chunk)
        hot += int((chunk.gpu_power_w >= 650.0).sum())
    assert np.array_equal(acc.energy_j, ref.energy_j)
    assert np.array_equal(acc.gpu_hours, ref.gpu_hours)
    assert _same_hist(acc.histogram, ref.hist)
    for name, dh in zip(acc.domains, ref.domain_hists):
        assert _same_hist(acc.domain_histograms[name], dh)
    assert acc.histogram.n_clipped == hot
