"""Power-cap feedback controller.

Models firmware power capping (``rocm-smi --setpoweroverdrive`` style): a
feedback loop that lowers the *core* clock until the **metered** power —
the managed domain only — meets the cap.  Three behaviours measured by the
paper fall out of this model:

* the controller cannot see (or throttle) roughly half of the HBM/uncore
  power, so a memory-saturated stream is untouched by a 300 W cap even
  though the module draws ~374 W, while a 200 W cap parks the core at
  f_min and the module *still* draws above the cap — the breached curves
  of Fig 6(d);
* kernels whose metered power is already below the cap are unaffected
  ("a power limit only affects codes surpassing the limit");
* unlike a frequency cap, a power cap never engages the low uncore
  P-state, so it saves less energy on memory-intensive workloads — the
  asymmetry behind Table V(a) vs V(b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import CapError
from .kernel import KernelBatch, KernelSpec
from .perf import ExecutionProfile, execute, power_activities_batch
from .power import (
    metered_power,
    metered_power_from_activities,
    steady_power,
)
from .specs import MI250XSpec

#: Bisection tolerance on frequency, Hz (≈0.1 MHz: far below a DVFS step).
_F_TOL_HZ = 1e5

#: Breach reporting tolerance (W): real controllers regulate to within a
#: few watts, so tiny overshoots from the unmetered domain do not count.
_BREACH_TOL_W = 2.0


@dataclass(frozen=True)
class CapSolution:
    """Outcome of power-cap enforcement for one kernel."""

    f_core_hz: float
    profile: ExecutionProfile
    power_w: float     # actual module power (may exceed the cap)
    metered_w: float   # what the controller's meter reads
    breached: bool     # actual power exceeds the cap


def _solve(spec: MI250XSpec, kernel: KernelSpec, f_hz: float):
    profile = execute(spec, kernel, f_hz)
    metered = metered_power(spec, profile, f_hz)
    actual = steady_power(spec, profile, f_core_hz=f_hz, uncore_capped=False)
    return profile, metered, actual


def enforce_power_cap(
    spec: MI250XSpec, kernel: KernelSpec, cap_w: float
) -> CapSolution:
    """Find the operating point under a power cap for ``kernel``.

    Bisects on the core frequency; the metered power is monotone
    non-decreasing in the clock for every kernel this model can express.

    Solutions are memoized on ``(spec, kernel, cap)`` — both dataclasses
    are frozen, so the triple is a complete fingerprint — because governor
    loops and node accounting re-solve identical inputs constantly and
    each solve costs ~20 model evaluations.
    """
    return _enforce_power_cap_cached(spec, kernel, float(cap_w))


def clear_powercap_cache() -> None:
    """Drop all memoized power-cap solutions (used by timing harnesses)."""
    _enforce_power_cap_cached.cache_clear()


@lru_cache(maxsize=4096)
def _enforce_power_cap_cached(
    spec: MI250XSpec, kernel: KernelSpec, cap_w: float
) -> CapSolution:
    if cap_w <= 0:
        raise CapError(f"power cap must be positive, got {cap_w} W")
    if cap_w < spec.idle_w:
        raise CapError(
            f"power cap {cap_w:.0f} W below idle power {spec.idle_w:.0f} W"
        )

    profile_hi, m_hi, p_hi = _solve(spec, kernel, spec.f_max_hz)
    if m_hi <= cap_w:
        return CapSolution(
            spec.f_max_hz, profile_hi, p_hi, m_hi, breached=p_hi > cap_w + _BREACH_TOL_W
        )

    profile_lo, m_lo, p_lo = _solve(spec, kernel, spec.f_min_hz)
    if m_lo > cap_w:
        # Even the slowest clock breaches the metered cap: HBM floor.
        return CapSolution(
            spec.f_min_hz, profile_lo, p_lo, m_lo, breached=p_lo > cap_w + _BREACH_TOL_W
        )

    lo, hi = spec.f_min_hz, spec.f_max_hz
    while hi - lo > _F_TOL_HZ:
        mid = 0.5 * (lo + hi)
        _, m_mid, _ = _solve(spec, kernel, mid)
        if m_mid <= cap_w:
            lo = mid
        else:
            hi = mid
    profile, metered, actual = _solve(spec, kernel, lo)
    return CapSolution(lo, profile, actual, metered, breached=actual > cap_w + _BREACH_TOL_W)


# -- batched (array-in/array-out) path ------------------------------------------


def _metered_batch(
    spec: MI250XSpec, batch: KernelBatch, f_hz: np.ndarray
) -> np.ndarray:
    """Meter reading only — the bisection loop never needs actual power,
    bound labels, or achieved rates, so it runs the lean activity pass."""
    core, hbm, l2, stall = power_activities_batch(spec, batch, f_hz)
    return metered_power_from_activities(spec, f_hz, core, hbm, l2, stall)


def solve_power_cap_frequencies(
    spec: MI250XSpec, batch: KernelBatch, caps_w: np.ndarray
):
    """The core-clock each grid point's power cap settles at.

    The scalar bisection halves the same ``[f_min, f_max]`` interval for
    every point, so all points stay lock-stepped: one ``(n,)`` lo/hi array
    pair and ~20 whole-array model evaluations replace ~20 scalar
    evaluations *per point*.  Midpoint arithmetic is identical to the
    scalar loop, so the solved frequencies match the scalar oracle
    bitwise.  Returns ``(caps, f_core_hz)``; callers that need powers or
    profiles evaluate at the returned clocks themselves.
    """
    n = len(batch)
    caps = np.broadcast_to(
        np.asarray(caps_w, dtype=np.float64), (n,)
    ).copy()
    if np.any(caps <= 0):
        bad = caps[caps <= 0][0]
        raise CapError(f"power cap must be positive, got {bad} W")
    if np.any(caps < spec.idle_w):
        bad = caps[caps < spec.idle_w][0]
        raise CapError(
            f"power cap {bad:.0f} W below idle power {spec.idle_w:.0f} W"
        )
    f = np.full(n, spec.f_max_hz)
    if n:
        m_hi = _metered_batch(spec, batch, f)
        need = np.flatnonzero(m_hi > caps)
        if need.size:
            # Whole-batch endpoint evaluation: the rows outside ``need``
            # are wasted arithmetic, but a second pass over the same
            # (traffic-memoized) batch is cheaper than materializing a
            # sub-batch for it.
            m_lo_all = _metered_batch(spec, batch, np.full(n, spec.f_min_hz))
            # Even the slowest clock breaches the metered cap: HBM floor.
            floor = m_lo_all[need] > caps[need]
            f[need[floor]] = spec.f_min_hz
            bis = need[~floor]
            if bis.size:
                kb = batch.select(bis)
                cap_b = caps[bis]
                lo = np.full(bis.size, spec.f_min_hz)
                hi = np.full(bis.size, spec.f_max_hz)
                # hi - lo is the same halved interval at every point, so
                # the loop count matches the scalar bisection exactly.
                while (hi - lo).max() > _F_TOL_HZ:
                    mid = 0.5 * (lo + hi)
                    fits = _metered_batch(spec, kb, mid) <= cap_b
                    lo = np.where(fits, mid, lo)
                    hi = np.where(fits, hi, mid)
                f[bis] = lo
    return caps, f
