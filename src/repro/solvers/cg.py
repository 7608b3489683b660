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

__all__ = ["CGResult", "conjugate_gradient", "sstep_cg"]


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
    """
    check_positive_int(max_iter, "max_iter")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.local_size,):
        raise ValueError(f"b must have shape ({op.local_size},), got {b.shape}")
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - op.matvec(x)
    b_norm = op.norm(b)
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(b), iterations=0, converged=True, residual_norm=0.0)
    z = preconditioner(r) if preconditioner else r
    p = z.copy()
    rz = op.dot(r, z)
    history = [op.norm(r) / b_norm]
    converged = history[-1] <= tol
    it = 0
    while not converged and it < max_iter:
        it += 1
        ap = op.matvec(p)
        pap = op.dot(p, ap)
        if pap <= 0:
            raise ValueError(
                f"operator is not positive definite (p·Ap = {pap:.3e} at iteration {it})"
            )
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        rel = op.norm(r) / b_norm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        z = preconditioner(r) if preconditioner else r
        rz_new = op.dot(r, z)
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


def _check_spd(Q: np.ndarray, it: int) -> None:
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"operator is not positive definite (Gram matrix indefinite at iteration {it})"
        ) from None


def sstep_cg(
    op: LinearOperator,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 1000,
    pipeline: bool = True,
) -> CGResult:
    """Communication-avoiding (s-step, s = 2) conjugate gradients.

    Mathematically equivalent to :func:`conjugate_gradient` — each outer
    step minimises the A-norm error over the same Krylov space as two
    classic iterations — but restructured around the N-sweep program
    pipeline (DESIGN.md §10, §15):

    * the two matvecs of an outer step are ONE 2-sweep matrix-powers
      program (``op.matvec_chain``): sweep 1's halo receives are posted
      before sweep 0's remote kernel, so its exchange latency hides
      behind compute;
    * all inner products of an outer step fuse into ONE elementwise
      allreduce (``op.dot_many``) — at most 10 scalars per step instead
      of 3 collectives per classic iteration.

    Basis: monomial, ``R̃ = [r, Ar]``.  New search directions are kept
    A-conjugate to the previous block via ``B = −Q₋ ⁻¹ (W₋ᵀ R̃)``; the
    2×2 Gram system ``Q a = Pᵀ r`` is solved redundantly on every rank
    (no extra communication).  Convergence is checked on the fused
    ``‖r‖²`` scalar, so the residual history advances in steps of two
    iterations.  ``max_iter`` is rounded up to a whole outer step.

    Raises ``ValueError`` when the Gram matrix stops being positive
    definite (the operator is not SPD).
    """
    check_positive_int(max_iter, "max_iter")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (op.local_size,):
        raise ValueError(f"b must have shape ({op.local_size},), got {b.shape}")
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = b - op.matvec(x)
    b_norm = op.norm(b)
    if b_norm == 0.0:
        return CGResult(x=np.zeros_like(b), iterations=0, converged=True, residual_norm=0.0)
    history: list[float] = []
    P_prev = W_prev = Q_prev = None
    it = 0
    converged = False
    while it < max_iter:
        v1, v2 = op.matvec_chain(r, 2, pipeline=pipeline)
        pairs = [(r, r), (r, v1), (r, v2), (v1, v2)]
        if P_prev is not None:
            pairs += [
                (W_prev[:, 0], r), (W_prev[:, 1], r),
                (W_prev[:, 0], v1), (W_prev[:, 1], v1),
                (P_prev[:, 0], r), (P_prev[:, 1], r),
            ]
        d = op.dot_many(pairs)
        rr, rv1, rv2, v1v2 = d[0], d[1], d[2], d[3]
        rel = float(np.sqrt(max(rr, 0.0))) / b_norm
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        Rt = np.stack([r, v1], axis=1)
        ARt = np.stack([v1, v2], axis=1)
        # R̃ᵀAR̃ in its symmetric form: v1ᵀv1 = rᵀA²r = rᵀv2 for SPD A.
        G = np.array([[rv1, rv2], [rv2, v1v2]])
        if P_prev is None:
            P, W, Q = Rt, ARt, G
            pr = np.array([rr, rv1])
        else:
            Z = np.array([[d[4], d[6]], [d[5], d[7]]])  # W₋ᵀ [r, v1]
            ppr = np.array([d[8], d[9]])  # P₋ᵀ r (0 in exact arithmetic)
            _check_spd(Q_prev, it)
            B = -np.linalg.solve(Q_prev, Z)
            P = Rt + P_prev @ B
            W = ARt + W_prev @ B
            Q = G + Z.T @ B + B.T @ Z + B.T @ Q_prev @ B
            pr = np.array([rr, rv1]) + B.T @ ppr
        _check_spd(Q, it)
        a = np.linalg.solve(Q, pr)
        x += P @ a
        r -= W @ a
        P_prev, W_prev, Q_prev = P, W, Q
        it += 2
    if not converged:
        rel = op.norm(r) / b_norm
        history.append(rel)
        converged = rel <= tol
    return CGResult(
        x=x,
        iterations=it,
        converged=converged,
        residual_norm=history[-1] * b_norm,
        residual_history=history,
    )
