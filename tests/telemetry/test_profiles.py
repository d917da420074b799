"""Unit tests for power profiles."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.profiles import (
    PROFILES,
    PowerProfile,
    ProfilePhase,
    dwell_runs,
    region_shares,
)


class TestValidation:
    def test_phase_validation(self):
        with pytest.raises(TelemetryError):
            ProfilePhase(-1.0, 1.0, 0.5)
        with pytest.raises(TelemetryError):
            ProfilePhase(100.0, 1.0, 0.0)
        with pytest.raises(TelemetryError):
            ProfilePhase(100.0, 1.0, 0.5, dwell_mean_s=0.0)

    def test_profile_needs_phases(self):
        with pytest.raises(TelemetryError):
            PowerProfile("empty", ())


class TestLibrary:
    def test_all_referenced_profiles_exist(self):
        from repro.scheduler.workload import DEFAULT_DOMAINS

        for d in DEFAULT_DOMAINS:
            assert d.profile in PROFILES

    def test_weights_normalized(self):
        for p in PROFILES.values():
            assert p.weights.sum() == pytest.approx(1.0)

    def test_profile_families_sit_in_their_regions(self):
        # Dominant region by family: latency -> 1, memory -> 2,
        # compute -> 3 (paper Fig 9 panels).
        assert np.argmax(region_shares(PROFILES["latency_bound"])) == 0
        assert np.argmax(region_shares(PROFILES["memory_bound"])) == 1
        assert np.argmax(region_shares(PROFILES["compute_heavy"])) == 2

    def test_compute_profiles_have_boost_mass(self):
        assert region_shares(PROFILES["compute_heavy"])[3] > 0.01
        assert region_shares(PROFILES["latency_bound"])[3] == 0.0

    def test_multi_zone_spans_regions(self):
        shares = region_shares(PROFILES["multi_zone"])
        assert np.count_nonzero(shares > 0.05) >= 3


class TestSampleTrace:
    def test_shape_and_bounds(self):
        p = PROFILES["memory_bound"]
        trace = p.sample_trace(500, 15.0, rng=0, n_streams=3)
        assert trace.shape == (3, 500)
        assert (trace >= 0).all()

    def test_stationary_mean_recovered(self):
        p = PROFILES["compute_heavy"]
        trace = p.sample_trace(40000, 15.0, rng=1, n_streams=4)
        assert trace.mean() == pytest.approx(p.mean_power_w, rel=0.05)

    def test_time_shares_match_weights(self):
        # The dwell-weighted draw must realize `weight` as the *time*
        # share even though phases have very different dwell times.
        p = PROFILES["compute_heavy"]
        trace = p.sample_trace(60000, 15.0, rng=2, n_streams=4)
        boost_frac = (trace > 560.0).mean()
        expected = region_shares(p)[3]
        assert boost_frac == pytest.approx(expected, rel=0.3)

    def test_deterministic(self):
        p = PROFILES["multi_zone"]
        a = p.sample_trace(100, 15.0, rng=7)
        b = p.sample_trace(100, 15.0, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_args(self):
        p = PROFILES["multi_zone"]
        with pytest.raises(TelemetryError):
            p.sample_trace(0, 15.0)
        with pytest.raises(TelemetryError):
            p.sample_trace(10, 15.0, n_streams=0)


def _reference_trace(profile, n_samples, interval_s, gen, n_streams):
    """``sample_trace`` as written with ``choice(p=)`` and ``exponential``."""
    dwell_means = np.array([p.dwell_mean_s for p in profile.phases])
    draw_p = profile.weights / dwell_means
    draw_p = draw_p / draw_p.sum()
    mean_dwell = float(np.dot(draw_p, dwell_means))
    means = np.array([p.mean_w for p in profile.phases])
    stds = np.array([p.std_w for p in profile.phases])
    total_t = n_samples * interval_s
    n_draws = max(4, int(np.ceil(total_t / mean_dwell * 2.5)) + 8)
    phase_idx = gen.choice(
        len(profile.phases), size=(n_streams, n_draws), p=draw_p
    )
    dwells = gen.exponential(dwell_means[phase_idx])
    edges = np.cumsum(dwells, axis=1)
    edges[:, -1] = np.maximum(edges[:, -1], total_t + interval_s)
    t = (np.arange(n_samples) + 0.5) * interval_s
    runs = dwell_runs(edges, t).reshape(-1)
    active = phase_idx.reshape(-1)
    out = gen.normal(0.0, 1.0, size=(n_streams, n_samples))
    out *= np.repeat(stds[active], runs).reshape(out.shape)
    out += np.repeat(means[active], runs).reshape(out.shape)
    return np.maximum(out, 0.0, out=out)


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_sample_trace_draws_like_choice_and_exponential(name):
    # sample_trace draws phases by CDF search and dwells by scaled
    # standard exponentials: the steps numpy's ``choice(p=)`` and
    # ``exponential(scale)`` take.  A numpy whose internals change
    # fails here, before any telemetry digest does.
    profile = PROFILES[name]
    for n_samples in (1, 2, 37, 600, 5000):
        for n_streams in (1, 4):
            for seed in range(20):
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = profile.sample_trace(
                    n_samples, 15.0, rng=got_rng, n_streams=n_streams
                )
                want = _reference_trace(
                    profile, n_samples, 15.0, want_rng, n_streams
                )
                case = (n_samples, n_streams, seed)
                assert got.tobytes() == want.tobytes(), case
                assert got_rng.random() == want_rng.random(), case


def _segment_oracle(edges, t):
    """Active segment of every tick by one search per tick and stream."""
    seg = np.stack([np.searchsorted(e, t, side="right") for e in edges])
    return np.minimum(seg, edges.shape[1] - 1)


class TestDwellRuns:
    def _check(self, edges, t):
        runs = dwell_runs(edges.copy(), t)
        assert runs.shape == edges.shape
        assert (runs >= 0).all() and (runs.sum(axis=1) == len(t)).all()
        segments = np.arange(edges.shape[1])
        expanded = np.stack([np.repeat(segments, r) for r in runs])
        np.testing.assert_array_equal(expanded, _segment_oracle(edges, t))

    def test_edges_on_tick_times(self):
        # Ties: an edge equal to a tick time starts the next segment on
        # that tick; repeated edges give empty segments.
        interval = 15.0
        t = (np.arange(10) + 0.5) * interval
        edges = np.array(
            [
                [t[0], t[0], t[3], t[3] + 1e-9, t[9], 11 * interval],
                [0.1, t[2], t[2], t[5], t[8], 12 * interval],
                [t[9] + 1.0, 20 * interval, 21 * interval,
                 22 * interval, 23 * interval, 24 * interval],
            ]
        )
        self._check(edges, t)

    def test_random_walks_with_snapped_edges(self):
        rng = np.random.default_rng(3)
        interval = 15.0
        for n in (1, 2, 7, 100, 999):
            t = (np.arange(n) + 0.5) * interval
            edges = np.cumsum(rng.exponential(40.0, size=(4, n + 8)), axis=1)
            # Snap a third of the edges onto the nearest tick time.
            snap = rng.random(edges.shape) < 1 / 3
            ticks = np.clip(np.rint(edges / interval - 0.5), 0, n - 1)
            edges[snap] = ((ticks + 0.5) * interval)[snap]
            edges = np.maximum.accumulate(edges, axis=1)
            edges[:, -1] = np.maximum(edges[:, -1], (n + 1) * interval)
            self._check(edges, t)
