"""Policy changes racing ingest.

``set_policy`` republishes from the HTTP thread while the ingest thread
folds windows and runs the window observers (per-job fold, flight
recorder, health).  The plane serializes the two, so neither thread
sees the other's state mid-update: no publish reads the fold frame
inside a fold, nothing raises, every published version follows the
last, and the drained cube is the batch join's.
"""

from __future__ import annotations

import sys
import threading
import time

from repro import constants, units
from repro.core import join_campaign
from repro.core.join import cubes_equal
from repro.obs.health import HealthMonitor
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane
from repro.stream import canonical_windows, perturb
from repro.telemetry import FleetTelemetryGenerator

from tests.serve.conftest import WINDOW_S

LATENESS_S = 4 * constants.TELEMETRY_INTERVAL_S


def test_set_policy_races_ingest_safely():
    mix = default_mix(fleet_nodes=8)
    log = SlurmSimulator(mix).run(units.days(0.25), rng=4)
    store = FleetTelemetryGenerator(log, mix, seed=1004).generate()
    chunks = list(
        perturb(store, seed=4, lateness_s=LATENESS_S, rows_per_chunk=97)
    )
    plane = ControlPlane(
        log,
        window_s=WINDOW_S,
        lateness_s=LATENESS_S,
        monitor=HealthMonitor(drift=False),
        forensics=True,
    )
    published = []
    publish = plane.cache.publish

    def recording_publish(build):
        view = publish(build)
        published.append(view.version)
        return view

    plane.cache.publish = recording_publish
    # Each window fold yields the processor halfway through; a publish
    # meanwhile would copy the accumulator's cube mid-fold.
    folding = threading.Event()
    overlaps = []
    fold, frame = plane.engine.accumulator.update, plane.engine.frame

    def slow_fold(window):
        folding.set()
        time.sleep(0.001)
        fold(window)
        folding.clear()

    def checked_frame():
        if folding.is_set():
            overlaps.append(threading.current_thread().name)
        return frame()

    plane.engine.accumulator.update = slow_fold
    plane.engine.frame = checked_frame
    errors = []
    ingest_done = threading.Event()

    def ingest():
        try:
            for chunk in chunks:
                plane.ingest(chunk)
            plane.drain()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            ingest_done.set()

    def flip_policy(seen):
        objectives = ("energy", "edp", "slowdown")
        i = 0
        try:
            while not ingest_done.is_set():
                view = plane.set_policy(
                    objective=objectives[i % 3], max_slowdown_pct=1.0 + i % 7
                )
                seen.append(view.version)
                i += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    # Two policy threads and the ingest thread: more threads than a
    # small runner has cores, switching every 10 us.
    policy_versions = ([], [])
    threads = [threading.Thread(target=ingest)] + [
        threading.Thread(target=flip_policy, args=(seen,))
        for seen in policy_versions
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert overlaps == []
    assert all(policy_versions), "a policy thread never ran"
    assert published == list(range(1, len(published) + 1))
    for seen in policy_versions:
        assert all(a < b for a, b in zip(seen, seen[1:]))

    want = join_campaign(canonical_windows(store, window_s=WINDOW_S), log)
    got = plane.engine.cube()
    assert cubes_equal(got, want)
    assert plane.engine.stats.late_dropped == 0
