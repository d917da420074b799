"""Benchmark cap-response factors consumed by the projection.

The projection needs, for each cap setting, the energy and runtime
factors of the compute-intensive (CI, from the VAI benchmark) and
memory-intensive (MI, from the memory benchmark) characterizations —
exactly Table III.  Two sources are provided:

* :func:`measured_factors` — run the benchmarks on the simulated device
  (the self-contained reproduction path);
* :func:`paper_factors` — the percentages printed in the paper's
  Table III, for projecting with the authors' own characterization
  (an ablation on how much the substrate's calibration matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ProjectionError
from ..gpu.specs import MI250XSpec
from ..bench.tables import Table3, compute_table3


@dataclass(frozen=True)
class CapFactors:
    """Cap -> (CI, MI) energy and runtime factors, as fractions of 1."""

    knob: str                                   # "frequency" | "power"
    energy: Dict[float, Tuple[float, float]]    # cap -> (ci, mi)
    runtime: Dict[float, Tuple[float, float]]

    def caps(self):
        return sorted(self.energy, reverse=True)

    def energy_at(self, cap: float) -> Tuple[float, float]:
        try:
            return self.energy[cap]
        except KeyError:
            raise ProjectionError(
                f"no {self.knob} characterization at cap {cap}"
            ) from None

    def runtime_at(self, cap: float) -> Tuple[float, float]:
        try:
            return self.runtime[cap]
        except KeyError:
            raise ProjectionError(
                f"no {self.knob} characterization at cap {cap}"
            ) from None

    def effect(self, cap: float, region):
        """(MI saving, CI saving, delay weight) of one cap on a region split.

        The one pricing rule of Tables V/VI and Fig 10: ``region`` is an
        array whose last axis is (latency, MI, CI, boost) — energy,
        or GPU-hours for the delay alone — either one ``(4,)`` vector
        or a ``(..., 4)`` stack priced cell by cell.  The delay weight
        is ``CI * (rt_ci - 1)^+ + MI * (rt_mi - 1)^+``; callers divide
        it by their own total to get a slowdown percentage.
        """
        f_ci, f_mi = self.energy_at(cap)
        rt_ci, rt_mi = self.runtime_at(cap)
        # ``[()]`` turns a vector's 0-d slices into scalars: scalar
        # arithmetic, same bits, a fraction of the 0-d array cost.
        mi = region[..., 1][()]
        ci = region[..., 2][()]
        return (
            mi * (1.0 - f_mi),
            ci * (1.0 - f_ci),
            ci * max(rt_ci - 1.0, 0.0) + mi * max(rt_mi - 1.0, 0.0),
        )


def factors_from_table3(table: Table3) -> CapFactors:
    """Convert a Table III into projection factors."""
    return CapFactors(
        knob=table.knob,
        energy=table.energy_factors(),
        runtime=table.runtime_factors(),
    )


def measured_factors(
    knob: str = "frequency", spec: Optional[MI250XSpec] = None
) -> CapFactors:
    """Measure Table III on the simulated device and convert it."""
    return factors_from_table3(compute_table3(spec, knob=knob))


# Paper Table III, exactly as printed: cap -> (VAI, MB) percentages.
_PAPER_FREQ_ENERGY = {
    1700: (100.0, 100.0),
    1500: (94.4, 86.9),
    1300: (88.6, 84.3),
    1100: (94.0, 83.8),
    900: (97.3, 79.7),
    700: (106.3, 95.7),
}
_PAPER_FREQ_RUNTIME = {
    1700: (100.0, 100.0),
    1500: (112.8, 99.7),
    1300: (129.8, 99.5),
    1100: (152.2, 98.9),
    900: (182.4, 99.0),
    700: (231.0, 99.1),
}
_PAPER_POWER_ENERGY = {
    560: (100.0, 100.0),
    500: (99.7, 92.2),
    400: (95.0, 93.6),
    300: (91.3, 94.7),
    200: (105.7, 84.6),
}
_PAPER_POWER_RUNTIME = {
    560: (100.0, 100.0),
    500: (100.4, 99.9),
    400: (105.2, 100.1),
    300: (128.4, 100.0),
    200: (222.3, 125.7),
}


def paper_factors(knob: str = "frequency") -> CapFactors:
    """The paper's published Table III as projection factors."""
    if knob == "frequency":
        energy, runtime = _PAPER_FREQ_ENERGY, _PAPER_FREQ_RUNTIME
    elif knob == "power":
        energy, runtime = _PAPER_POWER_ENERGY, _PAPER_POWER_RUNTIME
    else:
        raise ProjectionError(f"unknown knob {knob!r}")
    return CapFactors(
        knob=knob,
        energy={
            cap: (ci / 100.0, mi / 100.0) for cap, (ci, mi) in energy.items()
        },
        runtime={
            cap: (ci / 100.0, mi / 100.0)
            for cap, (ci, mi) in runtime.items()
        },
    )
