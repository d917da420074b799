"""Shared fixtures for the streaming-engine tests.

One small campaign is generated once per package; the batch reference
cube is the join over its *canonical event-time windows* — the exact
chunk sequence a drained engine folds, which is what makes bitwise
comparison meaningful (float accumulation order is part of the
contract; see docs/streaming.md).
"""

import pytest

from repro import constants, units
from repro.core import join, join_campaign
from repro.scheduler import SlurmSimulator, default_mix
from repro.stream import canonical_windows
from repro.telemetry import FleetTelemetryGenerator

FLEET_NODES = 16
DAYS = 0.5
WINDOW_S = 40 * constants.TELEMETRY_INTERVAL_S
LATENESS_S = 8 * constants.TELEMETRY_INTERVAL_S


@pytest.fixture(scope="package")
def campaign():
    mix = default_mix(fleet_nodes=FLEET_NODES)
    log = SlurmSimulator(mix).run(units.days(DAYS), rng=0)
    gen = FleetTelemetryGenerator(log, mix, seed=1000)
    return log, gen, gen.generate()


@pytest.fixture(scope="package")
def batch_cube(campaign):
    log, _gen, store = campaign
    return join_campaign(canonical_windows(store, window_s=WINDOW_S), log)


@pytest.fixture(scope="package")
def cubes_equal():
    return join.cubes_equal
