"""Steady-state power model of one MI250X module.

The model is a calibrated activity-based decomposition::

    P = P_idle
        + core_power * a_core * phi(f_core)
        + l2_power   * a_l2   * phi(f_core)
        + hbm_power  * a_hbm  * psi(f_uncore)
        - cross_power * a_core * a_hbm * phi(f_core)

The negative cross term makes compute+memory overlap *sub-additive*: the
engines share schedulers and data paths, so the fully-saturated ridge
(arithmetic intensity 4) peaks at 540 W rather than the 700+ W a purely
additive model would predict, exactly as the paper measures.  Monotonicity
in each activity is guaranteed by the spec invariant
``cross_power < min(core_power, hbm_power)``.

The ``uncore_capped`` flag implements the asymmetry between the two
management knobs:

* a *frequency cap* engages the low uncore P-state (``uncore_capped=True``),
  so the HBM/uncore term drops by the psi_cap step;
* a *power cap* throttles the core clock only (``uncore_capped=False``),
  leaving the uncore at full scale — which is why HBM-heavy kernels breach
  low power caps in the paper's Fig 6(d).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import voltage
from .perf import BatchProfile, ExecutionProfile
from .specs import MI250XSpec


def steady_power(
    spec: MI250XSpec,
    profile: ExecutionProfile,
    *,
    f_core_hz: float | None = None,
    uncore_capped: bool = False,
) -> float:
    """Steady-state module power (W) for an execution profile.

    ``f_core_hz`` defaults to the profile's frequency.  ``uncore_capped``
    says whether a DVFS ceiling is in force (frequency-cap behaviour).
    """
    f_core = profile.f_hz if f_core_hz is None else f_core_hz
    phi = voltage.core_scale(spec, f_core)
    psi = voltage.uncore_scale(spec, f_core, capped=uncore_capped)
    core_act = min(1.0, profile.core_activity + profile.stall_activity)
    p = (
        spec.idle_w
        + spec.core_power_w * core_act * phi
        + spec.l2_power_w * profile.l2_activity * phi
        + spec.hbm_power_w * profile.hbm_activity * psi
        - spec.cross_power_w * core_act * profile.hbm_activity * phi
    )
    return min(p, spec.tdp_w)


def metered_power(spec: MI250XSpec, profile: ExecutionProfile, f_core_hz: float) -> float:
    """Power as seen by the power-cap controller's meter (W).

    Only ``cap_metered_hbm_fraction`` of the HBM/uncore term is in the
    managed domain; the rest is invisible to the firmware loop.  The
    uncore runs its full P-state under a power cap.
    """
    phi = voltage.core_scale(spec, f_core_hz)
    kappa = spec.cap_metered_hbm_fraction
    core_act = min(1.0, profile.core_activity + profile.stall_activity)
    # The overlap (cross) term is scaled by the same metered fraction so the
    # meter reading stays monotone in the memory activity.
    return (
        spec.idle_w
        + spec.core_power_w * core_act * phi
        + spec.l2_power_w * profile.l2_activity * phi
        + kappa * spec.hbm_power_w * profile.hbm_activity
        - kappa * spec.cross_power_w * core_act
        * profile.hbm_activity * phi
    )


def steady_power_batch(
    spec: MI250XSpec,
    profile: BatchProfile,
    *,
    f_core_hz: Union[np.ndarray, None] = None,
    uncore_capped: Union[bool, np.ndarray] = False,
) -> np.ndarray:
    """Vectorized :func:`steady_power`: one module power per grid point.

    ``uncore_capped`` may be a per-point boolean array (mixed-knob grids).
    The expression mirrors the scalar path term-for-term so batch and
    scalar powers agree bitwise.
    """
    f_core = profile.f_hz if f_core_hz is None else np.asarray(f_core_hz, float)
    phi = voltage.core_scale(spec, f_core)
    psi = voltage.uncore_scale(spec, f_core, capped=uncore_capped)
    core_act = np.minimum(1.0, profile.core_activity + profile.stall_activity)
    p = (
        spec.idle_w
        + spec.core_power_w * core_act * phi
        + spec.l2_power_w * profile.l2_activity * phi
        + spec.hbm_power_w * profile.hbm_activity * psi
        - spec.cross_power_w * core_act * profile.hbm_activity * phi
    )
    return np.minimum(p, spec.tdp_w)


def metered_power_from_activities(
    spec: MI250XSpec,
    f_core_hz: np.ndarray,
    core_activity: np.ndarray,
    hbm_activity: np.ndarray,
    l2_activity: np.ndarray,
    stall_activity: np.ndarray,
) -> np.ndarray:
    """The meter expression on raw activity columns (bisection hot path)."""
    phi = voltage.core_scale(spec, np.asarray(f_core_hz, float))
    kappa = spec.cap_metered_hbm_fraction
    core_act = np.minimum(1.0, core_activity + stall_activity)
    return (
        spec.idle_w
        + spec.core_power_w * core_act * phi
        + spec.l2_power_w * l2_activity * phi
        + kappa * spec.hbm_power_w * hbm_activity
        - kappa * spec.cross_power_w * core_act
        * hbm_activity * phi
    )


def idle_power(spec: MI250XSpec) -> float:
    """Module idle power (W)."""
    return spec.idle_w


def energy(power_w: float, time_s: float) -> float:
    """Energy in joules for a steady power over a duration."""
    return power_w * time_s
