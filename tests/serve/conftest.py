"""Shared fixtures for the control-plane tests.

One small campaign is generated once per package.  ``drained_plane`` is
the read-only reference instance — tests that mutate policy or server
state build their own plane from the same campaign (cheap: the folds
dominate and the campaign is tiny).
"""

from __future__ import annotations

import pytest

from repro import constants, units
from repro.scheduler import SlurmSimulator, default_mix
from repro.serve import ControlPlane
from repro.serve.http import ROUTES, cache_key
from repro.stream import canonical_windows
from repro.telemetry import FleetTelemetryGenerator

FLEET_NODES = 16
DAYS = 0.5
WINDOW_S = 40 * constants.TELEMETRY_INTERVAL_S


@pytest.fixture(scope="package")
def campaign():
    mix = default_mix(fleet_nodes=FLEET_NODES)
    log = SlurmSimulator(mix).run(units.days(DAYS), rng=0)
    store = FleetTelemetryGenerator(log, mix, seed=1000).generate()
    return log, store


@pytest.fixture(scope="package")
def windows(campaign):
    _log, store = campaign
    return list(canonical_windows(store, window_s=WINDOW_S))


def build_plane(log, windows, **kwargs) -> ControlPlane:
    """A drained plane over the canonical windows (no HTTP server)."""
    kwargs.setdefault("window_s", WINDOW_S)
    plane = ControlPlane(log, **kwargs)
    for window in windows:
        plane.ingest(window)
    plane.drain()
    return plane


@pytest.fixture(scope="package")
def drained_plane(campaign, windows):
    log, _store = campaign
    plane = build_plane(log, windows)
    yield plane
    plane.close()


def route_key(target: str) -> str:
    """The canonical view cache key of a ``GET`` request target."""
    return cache_key(ROUTES.match("GET", target))
