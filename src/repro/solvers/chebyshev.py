"""Chebyshev expansion of the quantum time-evolution operator.

One of the paper's motivating workloads: "more recent methods based on
polynomial expansion allow for … time evolution of quantum states"
(Refs. [10, 11]).  The propagator over a time step ``t`` is expanded as

    e^{-i H t} ≈ e^{-i b t} [ J_0(a t) + 2 Σ_{k≥1} (-i)^k J_k(a t) T_k(H̃) ]

where ``H̃ = (H - b)/a`` is the Hamiltonian rescaled to spectrum
⊂ [-1, 1] (``a`` half-width, ``b`` centre) and ``J_k`` are Bessel
functions.  Every term is one sparse MVM — the Chebyshev recurrence —
so long time evolutions are spMVM-dominated, exactly the paper's point.

Complex state vectors are propagated by applying the real operator to
real and imaginary parts separately (the CSR kernel is real).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from repro.solvers.operators import LinearOperator
from repro.util import check_positive_float

__all__ = ["ChebyshevPropagator"]


def _matvec_complex(op: LinearOperator, psi: np.ndarray) -> np.ndarray:
    return op.matvec(psi.real) + 1j * op.matvec(psi.imag)


@dataclass
class ChebyshevPropagator:
    """Time-evolution engine for one Hamiltonian.

    Parameters
    ----------
    op:
        The Hamiltonian as a linear operator.
    bounds:
        ``(E_min, E_max)`` enclosing the spectrum (e.g. from
        :func:`repro.solvers.lanczos.spectral_bounds`).
    tol:
        Truncation threshold on the Bessel coefficients; the expansion
        order grows automatically with the time step.
    """

    op: LinearOperator
    bounds: tuple[float, float]
    tol: float = 1e-12

    def __post_init__(self) -> None:
        lo, hi = self.bounds
        if not hi > lo:
            raise ValueError(f"invalid spectral bounds {self.bounds}")
        self._half_width = 0.5 * (hi - lo)
        self._center = 0.5 * (hi + lo)

    def expansion_order(self, t: float) -> int:
        """Number of Chebyshev terms needed for time step *t*.

        The Bessel coefficients ``J_k(a t)`` decay super-exponentially
        once ``k > a t``; we cut when they fall below ``tol``.
        """
        at = abs(self._half_width * t)
        k = max(4, int(np.ceil(at)))
        while abs(jv(k, at)) > self.tol and k < 10_000:
            k += 1
        return k + 1

    def step(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Propagate ``psi`` by ``exp(-i H t)``.

        The state is returned normalised to its incoming norm (the
        expansion is unitary up to truncation error).
        """
        check_positive_float(abs(t), "t")
        psi = np.asarray(psi, dtype=np.complex128)
        at = self._half_width * t
        order = self.expansion_order(t)
        a = self._half_width

        def h_tilde(v: np.ndarray) -> np.ndarray:
            return (_matvec_complex(self.op, v) - self._center * v) / a

        t_prev = psi.copy()  # T_0 |psi>
        t_curr = h_tilde(psi)  # T_1 |psi>
        out = jv(0, at) * t_prev + 2.0 * (-1j) * jv(1, at) * t_curr
        phase = -1j
        for k in range(2, order):
            t_next = 2.0 * h_tilde(t_curr) - t_prev
            phase *= -1j
            coeff = 2.0 * phase * jv(k, at)
            out += coeff * t_next
            t_prev, t_curr = t_curr, t_next
        return np.exp(-1j * self._center * t) * out
