"""Bandwidth-saturation curves of a NUMA locality domain.

Memory-bound kernels do not scale linearly with the number of active
cores: the aggregate bandwidth of a locality domain saturates (Fig. 3).
STREAM saturates within 2-3 cores; the spMVM, with its partially
irregular access, keeps gaining up to ~4 cores.  We represent a curve as
a measured/calibrated table ``cores -> aggregate bandwidth`` with linear
interpolation between entries and a flat tail, which reproduces the
paper's measured scaling exactly at the calibration points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util import check_positive_float

__all__ = ["SaturationCurve"]


@dataclass(frozen=True)
class SaturationCurve:
    """Aggregate bandwidth (bytes/s) as a function of active cores in an LD.

    ``table`` maps integer core counts (1-based, ascending) to aggregate
    bandwidth.  Queries between entries interpolate linearly; queries
    beyond the last entry return the last value (saturated); fractional
    core counts are allowed (the simulator may account a communication
    thread as a fraction).
    """

    cores: tuple[int, ...]
    bandwidth: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cores) != len(self.bandwidth) or not self.cores:
            raise ValueError("cores and bandwidth must be equal-length, non-empty")
        if list(self.cores) != sorted(set(self.cores)):
            raise ValueError("core counts must be strictly increasing")
        if self.cores[0] < 1:
            raise ValueError("core counts start at 1")
        for b in self.bandwidth:
            check_positive_float(b, "bandwidth")
        # the simulator queries a curve at every rate recomputation:
        # convert the table once, not per call
        object.__setattr__(self, "_xp", np.asarray(self.cores, dtype=float))
        object.__setattr__(self, "_fp", np.asarray(self.bandwidth, dtype=float))

    @classmethod
    def from_table(cls, table: dict[int, float]) -> "SaturationCurve":
        """Build from a ``{cores: bandwidth}`` mapping."""
        items = sorted(table.items())
        return cls(tuple(k for k, _ in items), tuple(float(v) for _, v in items))

    @property
    def saturated(self) -> float:
        """Bandwidth with all calibrated cores active (the plateau)."""
        return self.bandwidth[-1]

    def value(self, active_cores: float) -> float:
        """Aggregate bandwidth for *active_cores* concurrently streaming cores."""
        if active_cores <= 0:
            return 0.0
        return float(np.interp(active_cores, self._xp, self._fp))
