"""Extension: multi-window SLO burn-rate alerting over the history store.

The history layer (:mod:`repro.obs.history`) claims the same contract
the flight recorder proved for incidents, now for service-level
objectives: attach a history to a streaming engine and every sealed
window compacts into a columnar row, rolls up deterministically, and
drives multi-window burn-rate SLO rules whose alert timeline is a pure
function of the window sequence — identical across reruns, arrival
chunkings, and in-memory vs on-disk stores.  This experiment proves
the contract by construction.

A 2-node fleet draws a perfectly flat 250 W profile (every GCD far
below both the 560 W hardware limit and the 532 W power budget), so
every shipped SLO is quiet — and then one sustained fault is injected:
for three hours starting at day 1, two of the eight GCDs are pinned to
575 W, above the hardware limit.  That makes 25 % of GPU samples "bad"
for the ``cap_violation`` SLO (objective 99.9 %), a burn rate of 250x
sustainable inside the burst — far over both alert thresholds.

Because the windows are 15 s and the burst spans hours, the standard
multi-window rules order **exactly**: the fast page (5 m and 1 h both
>= 14.4x) fires ~210 s into the burst, the slow ticket (6 h and 3 d
both >= 6x) fires ~35 min in, the fast rule resolves ~5 min after the
burst ends, and the slow ticket resolves only once the 6 h window has
nearly slid off the burst — every timestamp computable by hand from
the burn algebra (see ``_expected_timeline``).

Checks:

* the four transitions appear at the predicted event times and nothing
  else fires (``exact_timeline``), the page leading the ticket both in
  and out (``fast_before_slow``);
* rerunning reproduces the timeline verbatim (``reproducible``) and
  halving the arrival chunk size changes no field (``chunking_
  invariant``);
* an on-disk store and an in-memory store of the same campaign hold
  bitwise-identical columns at every rollup level (``store_parity``),
  and every rollup bucket refolds bitwise from its level-0 rows
  (``rollups_exact``);
* :func:`repro.obs.history.replay` over the written store reproduces
  the live evaluator's gauges exactly (``replay_parity``);
* the fleet cube of the history-enabled engine is bitwise identical to
  a bare engine's (``history_invisible``), and both alerts resolve by
  drain (``all_resolved``).
"""

from __future__ import annotations

import tempfile

import numpy as np

from .. import constants, units
from ..obs.history import History, replay, verify_rollups
from ..scheduler import SlurmSimulator, default_mix
from ..stream import replay_store
from ..stream.engine import StreamEngine
from ..telemetry.schema import TelemetryChunk
from ..telemetry.store import TelemetryStore
from .registry import ExperimentConfig, ExperimentResult

#: Fixed geometry: the experiment asserts an *exact* timeline, so the
#: fleet and campaign length are pinned rather than config-scaled.
NODES = 2
CAMPAIGN_S = 129_600.0                # a day and a half
WINDOW_S = constants.TELEMETRY_INTERVAL_S   # one window per tick

BASE_POWER_W = 250.0                  # flat and far under the cap
CPU_POWER_W = 100.0

#: The injected burst: node 0, GCDs 0-1 pinned over the 560 W limit
#: for three hours — 2 of 8 GCDs, a 25 % violation rate.
BURST_T0, BURST_T1 = 86_400.0, 97_200.0
BURST_W = 575.0
BAD_FRACTION = 2.0 / (NODES * constants.GPUS_PER_NODE)


def _synthetic_store() -> TelemetryStore:
    """The flat two-node profile with the burst stamped in (no RNG)."""
    ticks = int(round(CAMPAIGN_S / constants.TELEMETRY_INTERVAL_S))
    time_s = np.repeat(
        np.arange(ticks, dtype=np.float64) * constants.TELEMETRY_INTERVAL_S,
        NODES,
    )
    node_id = np.tile(np.arange(NODES, dtype=np.int32), ticks)
    gpu = np.full(
        (ticks * NODES, constants.GPUS_PER_NODE), BASE_POWER_W
    )
    burst = (
        (node_id == 0) & (time_s >= BURST_T0) & (time_s < BURST_T1)
    )
    gpu[burst, 0:2] = BURST_W
    chunk = TelemetryChunk(
        time_s=time_s,
        node_id=node_id,
        gpu_power_w=gpu.astype(np.float32),
        cpu_power_w=np.full(ticks * NODES, CPU_POWER_W, dtype=np.float32),
    )
    return TelemetryStore(chunk)


def _run_history(store, log, *, chunk_ticks: int, dir=None):
    """Stream the campaign through an engine with a history attached."""
    engine = StreamEngine(
        log,
        interval_s=constants.TELEMETRY_INTERVAL_S,
        window_s=WINDOW_S,
    )
    history = History(dir=dir)
    engine.attach(history=history)
    for chunk in replay_store(store, chunk_ticks=chunk_ticks):
        engine.ingest(chunk)
    engine.drain()
    return engine, history


def _next_window_end(t: float) -> float:
    """First window end at or after the algebraic crossing ``t``."""
    return float(np.ceil(t / WINDOW_S)) * WINDOW_S


def _expected_timeline() -> list:
    """The four transition times from the burn algebra.

    With a violation ratio ``r`` inside the burst and error budget
    ``b = 0.001``, a trailing window of span ``W`` starting at the
    campaign origin burns at ``(r * overlap / W) / b`` where
    ``overlap`` is the burst time the window has covered.  Each rule
    is the min of its two windows, so the *binding* window is:

    * fast firing  — the 1 h window needs ``overlap >= 14.4 b W / r``;
    * slow firing  — the 3 d window (still anchored at t = 0) needs
      ``(burst elapsed) / now >= 6 b / r``;
    * fast resolve — the 5 m window must drop below threshold as it
      slides off the burst;
    * slow resolve — the 6 h window keeps >= 6x burn the longest.
    """
    budget = 0.001
    rate = BAD_FRACTION
    fast_fire = BURST_T0 + 14.4 * budget * 3_600.0 / rate
    slow_fire = BURST_T0 / (1.0 - 6.0 * budget / rate)
    fast_resolve = BURST_T1 + 300.0 - 14.4 * budget * 300.0 / rate
    slow_resolve = BURST_T1 + 21_600.0 - 6.0 * budget * 21_600.0 / rate
    return [
        ("slo_cap_violation_fast_burn", "firing",
         _next_window_end(fast_fire)),
        ("slo_cap_violation_slow_burn", "firing",
         _next_window_end(slow_fire)),
        ("slo_cap_violation_fast_burn", "resolved",
         _next_window_end(fast_resolve)),
        ("slo_cap_violation_slow_burn", "resolved",
         _next_window_end(slow_resolve)),
    ]


def _events(history) -> list:
    return [
        (e["rule"], e["transition"], e["t_s"]) for e in history.events()
    ]


def _store_columns(store) -> list:
    """Every column of every level as raw bytes (bitwise comparison)."""
    out = []
    for level in range(store.n_levels):
        rows = store.rows(level)
        for name, _agg in store.columns:
            out.append(store.column_slice(name, level, 0, rows).tobytes())
    return out


def run(config: ExperimentConfig) -> ExperimentResult:
    store = _synthetic_store()
    log = SlurmSimulator(default_mix(fleet_nodes=NODES)).run(
        units.days(CAMPAIGN_S / 86_400.0), rng=config.seed
    )

    engine_a, hist_a = _run_history(store, log, chunk_ticks=20)
    _engine_b, hist_b = _run_history(store, log, chunk_ticks=20)
    _engine_c, hist_c = _run_history(store, log, chunk_ticks=40)

    with tempfile.TemporaryDirectory() as tmp:
        _engine_d, hist_d = _run_history(
            store, log, chunk_ticks=20, dir=tmp
        )
        store_parity = (
            _store_columns(hist_a.store) == _store_columns(hist_d.store)
        )
        disk_mismatches = verify_rollups(hist_d.store)
        replay_ev = replay(hist_d.store)
        replay_parity = (
            replay_ev.last_values == hist_a.evaluator.last_values
        )

    # A bare engine, no history: the fold must not change by one bit.
    engine_plain = StreamEngine(
        log, interval_s=constants.TELEMETRY_INTERVAL_S, window_s=WINDOW_S,
    )
    for chunk in replay_store(store, chunk_ticks=20):
        engine_plain.ingest(chunk)
    engine_plain.drain()
    cube_a, cube_p = engine_a.cube(), engine_plain.cube()
    history_invisible = (
        np.array_equal(cube_a.energy_j, cube_p.energy_j)
        and np.array_equal(cube_a.gpu_hours, cube_p.gpu_hours)
        and cube_a.cpu_energy_j == cube_p.cpu_energy_j
    )

    timeline = _events(hist_a)
    expected = _expected_timeline()
    fire_t = {
        (rule, tr): t for rule, tr, t in timeline
    }
    checks = {
        "exact_timeline": timeline == expected,
        "fast_before_slow": (
            fire_t.get(("slo_cap_violation_fast_burn", "firing"), 1e18)
            < fire_t.get(("slo_cap_violation_slow_burn", "firing"), 0)
            and fire_t.get(
                ("slo_cap_violation_fast_burn", "resolved"), 1e18
            )
            < fire_t.get(("slo_cap_violation_slow_burn", "resolved"), 0)
        ),
        "reproducible": timeline == _events(hist_b),
        "chunking_invariant": timeline == _events(hist_c),
        "store_parity": store_parity,
        "rollups_exact": (
            verify_rollups(hist_a.store) == [] and disk_mismatches == []
        ),
        "replay_parity": replay_parity,
        "history_invisible": history_invisible,
        "all_resolved": not hist_a.slo_alerts.firing(),
    }

    burst_h = (BURST_T1 - BURST_T0) / 3_600.0
    lines = [
        f"SLO burn-rate drill: {NODES} nodes x "
        f"{CAMPAIGN_S / 86_400.0:g} days at {WINDOW_S:.0f} s windows "
        f"({hist_a.windows_recorded} windows recorded)",
        "",
        f"injected fault: 2/{NODES * constants.GPUS_PER_NODE} GCDs at "
        f"{BURST_W:.0f} W (> {constants.GCD_MAX_POWER_W:.0f} W limit) "
        f"for {burst_h:g} h from t={BURST_T0:,.0f} s — "
        f"{100 * BAD_FRACTION:.0f} % violation rate, "
        f"{BAD_FRACTION / 0.001:.0f}x burn against the 99.9 % objective",
        "",
        hist_a.timeline(),
        "",
        "expected from the burn algebra:",
    ]
    for rule, transition, t in expected:
        lines.append(f"  t={t:>9,.0f} s  {transition:<9} {rule}")
    lines += [
        "",
        f"determinism: rerun identical={checks['reproducible']}, "
        f"chunk 300 s vs 600 s identical={checks['chunking_invariant']}, "
        f"disk store bitwise-equal to memory={store_parity}",
        f"rollups refold bitwise={checks['rollups_exact']}, "
        f"offline replay matches live gauges={replay_parity}",
        f"history overhead on analytics: fleet cube bitwise identical "
        f"to a history-free engine={history_invisible}",
    ]
    failed = sorted(k for k, ok in checks.items() if not ok)
    lines.append("")
    lines.append("all checks passed" if not failed else f"FAILED: {failed}")

    data = {
        "timeline": [
            {"rule": r, "transition": tr, "t_s": t}
            for r, tr, t in timeline
        ],
        "expected": [
            {"rule": r, "transition": tr, "t_s": t}
            for r, tr, t in expected
        ],
        "slos": hist_a.slo_rows(),
        "checks": checks,
    }
    return ExperimentResult(
        exp_id="ext_slo",
        title="SLO burn-rate alerting over the history store",
        text="\n".join(lines),
        data=data,
    )
