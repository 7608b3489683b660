"""Application-level solvers whose cost is dominated by sparse MVM.

The algorithms the paper's introduction motivates: Lanczos for
low-lying eigenstates, CG for the Poisson systems, Chebyshev time
propagation and the kernel polynomial method for spectral properties.
Every solver works on the operator abstraction, so the same code runs
serially or SPMD on mpilite with the distributed spMVM underneath.
"""

from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.chebyshev import ChebyshevPropagator
from repro.solvers.kpm import KPMSpectrum, chebyshev_moments, jackson_kernel, kpm_spectrum
from repro.solvers.lanczos import LanczosResult, lanczos, spectral_bounds
from repro.solvers.operators import DistributedOperator, LinearOperator, SerialOperator

__all__ = [
    "LinearOperator",
    "SerialOperator",
    "DistributedOperator",
    "LanczosResult",
    "lanczos",
    "spectral_bounds",
    "CGResult",
    "conjugate_gradient",
    "ChebyshevPropagator",
    "KPMSpectrum",
    "kpm_spectrum",
    "chebyshev_moments",
    "jackson_kernel",
]
