"""Lanczos iteration for extremal eigenvalues of symmetric operators.

The exact-diagonalization use case of the paper's first test matrix:
"Iterative algorithms such as Lanczos or Jacobi-Davidson are used to
compute low-lying eigenstates of the Hamilton matrices … In all those
algorithms, sparse MVM is the most time-consuming step."

Lanczos with optional full reorthogonalisation (recommended at these
modest iteration counts) and Ritz-residual convergence control.  Works
on any :class:`~repro.solvers.operators.LinearOperator`, so the same
code runs serially or SPMD over mpilite.

The basis is one row-major 2-D array ``V`` (row j is vⱼ), so a step
costs two reductions however many vectors it orthogonalises against:
``c = op.dot(V[:k], w)`` is one local ``gemv`` and one allreduce of k
scalars, ``w -= c @ V[:k]`` one stream over the basis (classical
Gram-Schmidt), then ``β = op.norm(w)``.  ``c[-1]`` is αₖ and ``c[-2]``
is βₖ₋₁, so the three-term recurrence is the same expression on the
last two rows, which is all ``reorthogonalize=False`` reads.

**The second pass.**  One classical pass leaves ``w`` with the overlap
``(VVᵀ − I) c`` on the basis: whatever overlap vₖ and vₖ₋₁ already
carry comes back multiplied by ``c[-1]`` and ``c[-2]`` — the only
entries of *c* that are not rounding — and divided by β.  Left alone
that grows geometrically wherever |α| > β (any spectrum far from zero),
so an identical second pass (and norm) runs when the first says the new
vector would carry more than ``_OVERLAP_TOL``.  It is judged from
numbers every rank already holds, never from another reduction: what
the pass removed beyond the recurrence, ``max|c[:-2]|`` and
``|c[-2] − βₖ₋₁|`` (zero in exact arithmetic, the overlap of vₖ in
floating point, scaled by α), plus the same number
from the step before (vₖ₋₁'s), against ``_OVERLAP_TOL · β``; and a β
that collapses against ``‖c[-2:]‖``, which the pass's own rounding
cannot survive.  On the paper's Hamiltonians neither happens in a solve
(HMeP: 2·iterations + 2 reductions); on a Poisson matrix about one step
in seven takes the second pass.  EXPERIMENTS.md "One gemv, one
allreduce" has the survey the constants come from.

**The convergence test.**  Every step, every rank computes the lowest
Ritz pairs of the k × k tridiagonal matrix it holds in full: LAPACK's
``dstebz`` and ``dstein`` called directly (:func:`_lowest_ritz_pairs`),
on α and β kept in preallocated arrays.  That is the computation scipy's
``eigh_tridiagonal(select="i")`` makes, bit for bit, without the
wrapper's argument checks and driver lookup, Python that holds the
GIL the peer rank's thread is waiting for (EXPERIMENTS.md "Findings on
this host" has the per-call and per-solve numbers).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from repro.solvers.operators import LinearOperator
from repro.util import check_positive_int, check_real_array

__all__ = ["LanczosResult", "lanczos", "spectral_bounds"]

#: Estimated overlap with the basis above which a new vector takes a
#: second pass (module docstring): half of the ``max|V Vᵀ − I| <= 1e-12``
#: the tests hold a full-length run to, since the estimate is first-order.
_OVERLAP_TOL = 5e-13
#: β / ‖c[-2:]‖ below which it does whatever the estimate says: a pass
#: rounds at ε‖c‖, the quotient w / β carries that as ε‖c‖ / β, and the
#: next step multiplies it by its own ‖c‖ / β before any *c* shows it.
_COLLAPSE = float(np.sqrt(np.finfo(np.float64).eps / _OVERLAP_TOL))


@dataclass
class LanczosResult:
    """Outcome of a Lanczos run."""

    eigenvalues: np.ndarray  # converged Ritz values (ascending)
    iterations: int
    residuals: np.ndarray  # residual bound per reported Ritz value
    alpha: np.ndarray  # tridiagonal diagonal
    beta: np.ndarray  # tridiagonal off-diagonal
    ritz_vector: np.ndarray | None = None  # local slice, lowest Ritz pair

    @property
    def ground_energy(self) -> float:
        """Lowest converged Ritz value."""
        return float(self.eigenvalues[0])


def _lowest_ritz_pairs(
    alpha: np.ndarray, beta: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The *count* lowest eigenpairs of the Lanczos matrix (diagonal
    *alpha*, off-diagonal ``beta[: len(alpha) - 1]``), ascending.

    LAPACK's ``dstebz`` (bisection, eigenvalues ``1..count`` in block
    order) and ``dstein`` (inverse iteration) called directly, then the
    ``argsort`` into matrix order: the computation
    ``scipy.linalg.eigh_tridiagonal(select="i")`` makes, bit for bit,
    without its argument checks and driver lookup, which run as Python
    under the GIL at every step of every rank.  A 1 × 1 matrix is
    answered here, as scipy does (f2py rejects an empty off-diagonal).
    Imported on first use: ``scipy.linalg`` is 6 MB resident that a
    process which only runs CG or serves sweeps would otherwise pay at
    import.  Raises ``LinAlgError`` naming the routine whose ``info``
    is not zero.
    """
    from scipy.linalg.lapack import dstebz, dstein

    k = len(alpha)
    if k == 1:
        return alpha[:1].copy(), np.ones((1, 1))
    e = beta[: k - 1]
    m, w, iblock, isplit, info = dstebz(alpha, e, 2, 0.0, 1.0, 1, count, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstebz failed on the Lanczos matrix (info = {info})")
    w = w[:m]
    v, info = dstein(alpha, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dstein failed on the Lanczos matrix (info = {info})")
    order = np.argsort(w)
    return w[order], v[:, order]


def _basis(rows: int, n: int) -> np.ndarray:
    """A ``rows × n`` float64 array on an anonymous map, not the heap.

    Rows never written are never resident, and the pages go back to the
    OS when the array is dropped, whatever size glibc's moving mmap
    threshold has reached.  A heap block of ``max_iter + 1`` rows stays
    in the arena of the rank thread that freed it, and every
    ``run_spmd`` starts new threads: +30 % peak RSS on ``hmep-small``
    (EXPERIMENTS.md "One gemv, one allreduce").  A rank that owns no
    rows gets a ``rows × 0`` array.
    """
    buf = mmap.mmap(-1, max(rows * n * 8, 1))
    return np.frombuffer(buf, dtype=np.float64, count=rows * n).reshape(rows, n)


def _project_out(op: LinearOperator, W: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """One classical Gram-Schmidt pass of *w* against the rows of *W*, in
    place: the coefficients removed and the norm left (two reductions)."""
    c = op.dot(W, w)
    w -= c @ W
    return c, op.norm(w)


def _lanczos_with_basis(
    op: LinearOperator,
    max_iter: int,
    tol: float,
    n_eigenvalues: int,
    seed: int,
    reorthogonalize: bool,
    want_vector: bool,
    v0: np.ndarray | None,
) -> tuple[LanczosResult, np.ndarray]:
    """:func:`lanczos`, also returning the basis rows the run holds."""
    check_positive_int(max_iter, "max_iter")
    check_positive_int(n_eigenvalues, "n_eigenvalues")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    n = op.local_size
    if v0 is None:
        v = np.random.default_rng(seed).standard_normal(n)
    else:
        v = check_real_array(v0, "v0")
        if v.shape != (n,):
            raise ValueError(f"v0 must have shape ({n},), got {v.shape}")
    nv = op.norm(v)
    if not np.isfinite(nv):
        raise ValueError(f"starting vector is not finite (||v0|| = {nv})")
    if nv == 0:
        raise ValueError("starting vector must be nonzero")
    # without reorthogonalisation or a Ritz vector only the last two
    # vectors are read: two rows, shifted each step
    V = _basis(max_iter + 1 if reorthogonalize or want_vector else 2, n)
    V[0] = v / nv
    held = 1  # rows of V in use; the newest vector is V[held - 1]
    alpha = np.empty(max_iter)  # α₁..αₖ in alpha[:k]
    beta = np.empty(max_iter)  # β₁..βₖ₋₁ in beta[:k - 1] at step k
    nbeta = 0
    evals = np.zeros(0)
    resid = np.zeros(0)
    stray_prev = 0.0
    k = 0
    for k in range(1, max_iter + 1):
        w = op.matvec(V[held - 1])
        W = V[:held] if reorthogonalize else V[max(held - 2, 0) : held]
        c, b = _project_out(op, W, w)
        a = float(c[-1])
        stray = float(np.abs(c[:-2]).max(initial=0.0))
        if reorthogonalize and nbeta:
            # c[-2] is βₖ₋₁ plus vₖ₋₁'s overlap with vₖ times α
            stray = max(stray, abs(float(c[-2]) - beta[nbeta - 1]))
        if stray + stray_prev > _OVERLAP_TOL * b or b < _COLLAPSE * np.linalg.norm(c[-2:]):
            again, b = _project_out(op, W, w)
            a += float(again[-1])
        stray_prev = stray  # the first pass's: V[held - 1] stays in the basis as it is
        if not np.isfinite(b):
            raise ValueError(
                f"Lanczos vector is not finite (beta = {b} at iteration {k}): "
                f"the operator or the starting vector holds a NaN or Inf"
            )
        alpha[k - 1] = a
        evals, s = _lowest_ritz_pairs(alpha[:k], beta, min(n_eigenvalues, k))
        resid = np.abs(b * s[-1])
        if b <= 1e-14:  # invariant subspace found
            resid = np.zeros(evals.size)
            break
        if evals.size >= n_eigenvalues and np.all(resid <= tol):
            break
        beta[nbeta] = b
        nbeta += 1
        if held == len(V):
            V[:-1] = V[1:]
        else:
            held += 1
        np.divide(w, b, out=V[held - 1])

    vector = None
    if want_vector:
        if min(n_eigenvalues, k) > 1:
            # the last step solved for several pairs: the lone lowest pair
            # is a different LAPACK call, whose vector may differ in bits
            _, s = _lowest_ritz_pairs(alpha[:k], beta, 1)
        vector = s[:, 0] @ V[:k]
        nv = op.norm(vector)
        if nv > 0:
            vector /= nv
    result = LanczosResult(
        eigenvalues=evals,
        iterations=k,
        residuals=resid,
        alpha=alpha[:k].copy(),
        beta=beta[:nbeta].copy(),
        ritz_vector=vector,
    )
    return result, V[:held]


def lanczos(
    op: LinearOperator,
    *,
    max_iter: int = 200,
    tol: float = 1e-8,
    n_eigenvalues: int = 1,
    seed: int = 0,
    reorthogonalize: bool = True,
    want_vector: bool = False,
    v0: np.ndarray | None = None,
) -> LanczosResult:
    """Run Lanczos until the lowest *n_eigenvalues* Ritz values converge.

    Convergence uses the standard bound: the residual of Ritz pair
    ``(theta, y)`` is ``beta_k * |last component of y|``.

    Parameters
    ----------
    op:
        Symmetric linear operator.
    max_iter:
        Maximum Krylov dimension.
    tol:
        Residual tolerance (absolute).
    n_eigenvalues:
        How many of the lowest eigenvalues must converge.
    seed / v0:
        Starting vector (random by default; pass the local slice for
        distributed runs).
    reorthogonalize:
        Orthogonalise each new basis vector against all previous ones,
        not just the last two (essential beyond ~50 iterations).  Either
        way a step posts two reductions — one block ``dot``, one
        ``norm`` — and two more when it needs a second pass (module
        docstring); the flag decides how many basis rows the ``dot``
        reads.
    want_vector:
        Also accumulate the lowest Ritz vector (stores the basis).

    Raises ``ValueError`` before the first sweep for a *tol* that is not
    ``>= 0``, a *v0* of the wrong shape or a starting vector whose norm
    is zero or not finite, and at the iteration where β stops being
    finite (a NaN or Inf out of the operator).
    """
    return _lanczos_with_basis(
        op, max_iter, tol, n_eigenvalues, seed, reorthogonalize, want_vector, v0
    )[0]


def spectral_bounds(op: LinearOperator, *, max_iter: int = 80, seed: int = 1) -> tuple[float, float]:
    """Estimated (min, max) eigenvalues, padded by 1 % — the scaling
    interval the Chebyshev-based methods need."""
    from scipy.linalg import eigh_tridiagonal

    run = lanczos(op, max_iter=max_iter, tol=0.0, seed=seed, reorthogonalize=False)
    theta = eigh_tridiagonal(run.alpha, run.beta[: run.iterations - 1], eigvals_only=True)
    lo, hi = float(theta[0]), float(theta[-1])
    pad = 0.01 * max(hi - lo, 1e-12)
    return lo - pad, hi + pad
