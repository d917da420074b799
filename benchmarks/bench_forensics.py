#!/usr/bin/env python
"""Flight-recorder overhead gate: attached forensics stays bounded.

Streams the same simulated campaign through two :class:`StreamEngine`
instances — one bare, one with a :class:`repro.obs.forensics.Forensics`
facade attached (flight recorder + all five default anomaly detectors +
incident engine) — and compares wall-clock ingest time.  The natural
fleet's heterogeneity keeps the straggler detector firing, so the
measured path includes live finding/incident folding, not an idle
recorder.

Read the two numbers together.  The bare streaming join is a handful of
vectorized numpy passes per chunk, so the recorder's work — compact the
window, run five detectors, fold findings into incidents — reads as a
large *percentage* of a tiny baseline.  The absolute cost is what a
deployment feels: well under a millisecond per sealed window, against
windows that arrive every ten minutes.  The gate therefore bounds both:
``ms_per_window`` is the deployment-facing budget, ``overhead_pct`` the
drift tripwire.

A second measurement streams the same campaign through a
:class:`repro.serve.ControlPlane` (forensics on, its default) and times
every ``Forensics.reader_view()`` call, i.e. the forensics state each
publish freezes into the served view (record documents render later,
on first read).  It reports the median call (``reader_view_ms_p50``)
and ``growth_ratio``: the mean call over the last quarter of publishes
divided by the mean over the first quarter.  An incremental freeze
costs what changed since the last publish, so the ratio stays near 1; a
from-scratch rebuild grows with the incident count and the recorder
slices (~6.8 on this campaign before the document was made
incremental).  Per-call times are the minimum over the rounds, so one
noisy round does not move the ratio.

The hard gate (``--check``) fails when:

* the two runs' analytic outputs differ in any bit (the recorder is
  specified as a pure read of the window stream);
* the *recorded baseline* breaks the per-window budget
  :data:`MS_PER_WINDOW_LIMIT` or the relative budget
  :data:`OVERHEAD_LIMIT_PCT` (re-record on the reference machine after
  intentional changes);
* the live overhead exceeds the disaster bound
  :data:`LIVE_OVERHEAD_LIMIT_PCT` (generous: shared CI runners are
  noisy; slow drift is the history trail's job);
* the live or recorded publish ``growth_ratio`` reaches
  :data:`GROWTH_LIMIT` (publish cost grows along the stream).

Modes::

    python benchmarks/bench_forensics.py            # measure and report
    python benchmarks/bench_forensics.py --record   # (re)write baseline
    python benchmarks/bench_forensics.py --check    # gate (CI)
    python benchmarks/bench_forensics.py --check --quick --history
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_forensics.json"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench_history  # noqa: E402
from repro.core.join import cubes_equal  # noqa: E402
from repro.obs.forensics import Forensics  # noqa: E402
from repro.serve import ControlPlane  # noqa: E402
from repro.stream import StreamEngine, simulated_fleet  # noqa: E402

#: The recorded reference overhead must stay under these bounds.
OVERHEAD_LIMIT_PCT = 150.0
MS_PER_WINDOW_LIMIT = 2.0
#: Live disaster bound for --check (loose: CI runners are shared).
LIVE_OVERHEAD_LIMIT_PCT = 300.0
#: Publish cost, last quarter over first quarter of the stream's
#: reader_view calls, must stay under this (live and recorded).
GROWTH_LIMIT = 2.0

FLEET_NODES = 32
DAYS = 1.0
CHUNK_TICKS = 20
WINDOW_S = 600.0


def _one_pass(log, chunks, *, recorder: bool):
    engine = StreamEngine(log, window_s=WINDOW_S)
    forensics = Forensics() if recorder else None
    engine.attach(forensics=forensics)
    t0 = time.perf_counter()
    for chunk in chunks:
        engine.ingest(chunk)
    engine.drain()
    return (time.perf_counter() - t0) * 1e3, engine, forensics


def _publish_pass(log, chunks) -> list:
    """Wall time (ms) of every reader_view call of one ControlPlane run."""
    plane = ControlPlane(log, window_s=WINDOW_S)
    reader_view = plane.forensics.reader_view
    calls_ms = []

    def timed():
        t0 = time.perf_counter()
        view = reader_view()
        calls_ms.append((time.perf_counter() - t0) * 1e3)
        return view

    plane.forensics.reader_view = timed
    try:
        for chunk in chunks:
            plane.ingest(chunk)
        plane.drain()
    finally:
        plane.close()
    return calls_ms


def measure_publish(log, chunks, *, rounds: int) -> dict:
    per_call = np.min(
        [_publish_pass(log, chunks) for _ in range(rounds)], axis=0
    )
    quarter = max(len(per_call) // 4, 1)
    first = float(per_call[:quarter].mean())
    last = float(per_call[-quarter:].mean())
    return {
        "description": (
            f"Forensics.reader_view per ControlPlane publish, "
            f"{FLEET_NODES} nodes x {DAYS:g} days ({len(chunks)} chunks, "
            f"{WINDOW_S:.0f} s windows); per call the min over rounds"
        ),
        "rounds": rounds,
        "publishes": int(len(per_call)),
        "reader_view_ms_p50": round(float(np.median(per_call)), 4),
        "first_quarter_ms": round(first, 4),
        "last_quarter_ms": round(last, 4),
        "growth_ratio": round(last / first if first > 0 else 0.0, 3),
    }


def measure(*, rounds: int, seed: int = 0) -> dict:
    log, source = simulated_fleet(
        fleet_nodes=FLEET_NODES, days=DAYS, seed=seed,
        chunk_ticks=CHUNK_TICKS,
    )
    chunks = list(source)            # materialized: generation untimed

    plain_ms, recorded_ms = [], []
    bitwise = True
    summary = None
    for _ in range(rounds):
        # Alternate order so cache warmth cannot bias one side.
        t_plain, plain, _ = _one_pass(log, chunks, recorder=False)
        t_rec, rec, forensics = _one_pass(log, chunks, recorder=True)
        plain_ms.append(t_plain)
        recorded_ms.append(t_rec)
        bitwise = bitwise and cubes_equal(
            plain.cube(copy=False), rec.cube(copy=False)
        )
        summary = forensics.summary()

    best_plain = min(plain_ms)
    best_recorded = min(recorded_ms)
    overhead_pct = (
        100.0 * (best_recorded - best_plain) / best_plain
        if best_plain > 0 else 0.0
    )
    windows = summary["windows_recorded"]
    ms_per_window = (
        (best_recorded - best_plain) / windows if windows else 0.0
    )
    return {
        "forensics_overhead": {
            "description": (
                f"streaming ingest of {FLEET_NODES} nodes x {DAYS:g} "
                f"days ({len(chunks)} chunks, {WINDOW_S:.0f} s windows) "
                f"with vs without the flight recorder + default "
                f"detectors attached"
            ),
            "rounds": rounds,
            "plain_ms": round(best_plain, 2),
            "recorded_ms": round(best_recorded, 2),
            "overhead_pct": round(overhead_pct, 2),
            "ms_per_window": round(ms_per_window, 3),
            "bitwise_identical": bitwise,
            "windows_recorded": summary["windows_recorded"],
            "findings_total": summary["findings_total"],
            "incidents_total": summary["incidents_total"],
        },
        "forensics_publish": measure_publish(log, chunks, rounds=rounds),
    }


def check(results: dict) -> int:
    failures = []
    load = results["forensics_overhead"]
    if not load["bitwise_identical"]:
        failures.append(
            "recorder-attached run changed an analytic output bit"
        )
    if load["windows_recorded"] == 0:
        failures.append("recorder saw no windows; the workload is broken")
    if load["overhead_pct"] >= LIVE_OVERHEAD_LIMIT_PCT:
        failures.append(
            f"live recorder overhead {load['overhead_pct']:.1f} % over "
            f"the {LIVE_OVERHEAD_LIMIT_PCT:.0f} % disaster bound"
        )

    publish = results["forensics_publish"]
    if publish["growth_ratio"] >= GROWTH_LIMIT:
        failures.append(
            f"live reader_view cost grows {publish['growth_ratio']:.2f}x "
            f"along the stream (>= {GROWTH_LIMIT:g}x)"
        )

    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text())
        ref = recorded["forensics_overhead"]
        ref_publish = recorded.get("forensics_publish")
        if ref_publish is None:
            failures.append(
                "baseline has no forensics_publish entry; run with --record"
            )
        elif ref_publish["growth_ratio"] >= GROWTH_LIMIT:
            failures.append(
                f"recorded reader_view growth "
                f"{ref_publish['growth_ratio']:.2f}x "
                f"breaks the < {GROWTH_LIMIT:g}x budget"
            )
        if ref["overhead_pct"] >= OVERHEAD_LIMIT_PCT:
            failures.append(
                f"recorded overhead {ref['overhead_pct']:.1f} % breaks "
                f"the < {OVERHEAD_LIMIT_PCT:g} % budget; re-record on "
                f"the reference machine"
            )
        if ref["ms_per_window"] >= MS_PER_WINDOW_LIMIT:
            failures.append(
                f"recorded {ref['ms_per_window']:.2f} ms per window "
                f"breaks the < {MS_PER_WINDOW_LIMIT:g} ms budget"
            )
    else:
        failures.append(f"no baseline at {BASELINE_PATH}; run with --record")

    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


def timings(results: dict) -> dict:
    load = results["forensics_overhead"]
    return {
        "forensics_plain_ms": load["plain_ms"],
        "forensics_recorded_ms": load["recorded_ms"],
        "forensics_reader_view_ms_p50": (
            results["forensics_publish"]["reader_view_ms_p50"]
        ),
    }


def measure_gate(args) -> dict:
    rounds = args.rounds
    if rounds is None:
        rounds = 2 if args.quick else 3
    return measure(rounds=rounds)


GATE = bench_history.Gate(
    source="bench_forensics",
    doc=__doc__,
    baseline=BASELINE_PATH,
    measure=measure_gate,
    check=check,
    timings=timings,
    check_help="gate bitwise identity and the overhead budget",
    quick_help="fewer rounds (CI mode)",
    flags=(
        ("--rounds", dict(
            type=int, default=None,
            help="timed rounds per side (default 3; 2 with --quick)",
        )),
    ),
)


if __name__ == "__main__":
    sys.exit(bench_history.run_gate(GATE))
