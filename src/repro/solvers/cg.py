"""Conjugate-gradient solver for symmetric positive definite systems.

The sAMG test case's natural consumer: Poisson systems from irregular
discretisations.  Works on any :class:`~repro.solvers.operators.LinearOperator`
(serial or SPMD over mpilite) with an optional preconditioner — e.g. the
AMG V-cycle from :mod:`repro.solvers.amg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.solvers.operators import LinearOperator
from repro.util import check_positive_int

__all__ = ["CGResult", "conjugate_gradient"]


@dataclass
class CGResult:
    """Outcome of a CG solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    residual_history: list[float] = field(default_factory=list)


def conjugate_gradient(
    op: LinearOperator,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    preconditioner: Callable[[np.ndarray], np.ndarray] | None = None,
) -> CGResult:
    """Solve ``A x = b`` by (preconditioned) conjugate gradients.

    Convergence criterion: ``||r|| <= tol * ||b||`` (relative), with the
    norm taken globally for distributed operators.

    Parameters
    ----------
    op:
        SPD operator.
    b:
        Right-hand side (local slice for distributed operators).
    x0:
        Initial guess (zero by default).
    tol:
        Relative residual tolerance.
    max_iter:
        Iteration cap.
    preconditioner:
        Approximate inverse ``z = M⁻¹ r`` applied once per iteration.

    Raises ``ValueError`` before the first sweep for a *tol* that is not
    ``>= 0`` or a right-hand side whose norm is not finite, and at the
    iteration where ``p·Ap`` stops being positive (an indefinite
    operator, or a NaN from the operator or *x0*).
    """
    check_positive_int(max_iter, "max_iter")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.local_size,):
        raise ValueError(f"b must have shape ({op.local_size},), got {b.shape}")
    b_norm = op.norm(b)
    if not np.isfinite(b_norm):
        raise ValueError(f"right-hand side is not finite (||b|| = {b_norm})")
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(b), iterations=0, converged=True, residual_norm=0.0)
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - op.matvec(x)
    # one r·r per iteration serves the convergence test and, without a
    # preconditioner (z is r), r·z as well: 2 reductions per iteration
    rr = op.dot(r, r)
    z = preconditioner(r) if preconditioner else r
    rz = op.dot(r, z) if preconditioner else rr
    p = z.copy()
    history = [float(np.sqrt(rr)) / b_norm]
    converged = history[-1] <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        ap = op.matvec(p)
        pap = op.dot(p, ap)
        if not pap > 0:  # a NaN must trip this too
            raise ValueError(
                f"operator is not positive definite, or an input is not finite "
                f"(p·Ap = {pap:.3e} at iteration {it})"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rr = op.dot(r, r)
        rel = float(np.sqrt(rr)) / b_norm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        z = preconditioner(r) if preconditioner else r
        rz_new = op.dot(r, z) if preconditioner else rr
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    return CGResult(
        x=x,
        iterations=it,
        converged=converged,
        residual_norm=history[-1] * b_norm,
        residual_history=history,
    )
