"""The paper's code-balance performance model (Sect. 1.2, Eqs. 1-2).

For the CRS kernel, one inner-loop iteration (one nonzero) moves

* 8 bytes of ``val``                     (matrix data),
* 4 bytes of ``col_idx``                 (32-bit index),
* 16/Nnzr bytes of ``C``                 (write allocate + evict, amortised
  over the row),
* 8/Nnzr bytes of ``B``                  (each RHS element loaded at least
  once), plus ``kappa`` extra bytes for cache-capacity reloads of ``B``,

and performs 2 flops, giving Eq. 1::

    B_CRS(kappa) = 6 + 12/Nnzr + kappa/2          [bytes/flop]

Splitting the kernel into a local and a nonlocal part writes ``C`` twice,
adding 16/Nnzr bytes per iteration — Eq. 2::

    B_splitCRS(kappa) = 6 + 20/Nnzr + kappa/2     [bytes/flop]

The attainable performance is ``P = b / B`` for a memory bandwidth ``b``,
and measuring ``P`` together with the actual bandwidth drawn pins down
``kappa`` experimentally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_positive_float

__all__ = [
    "code_balance",
    "code_balance_split",
    "code_balance_block",
    "code_balance_block_split",
    "block_speedup",
    "max_performance",
    "kappa_from_measurement",
    "split_penalty",
    "CodeBalanceModel",
]


def _check_block_width(k: int) -> int:
    if k < 1:
        raise ValueError(f"block width k must be >= 1, got {k}")
    return int(k)


def code_balance(nnzr: float, kappa: float = 0.0) -> float:
    """Eq. 1: bytes per flop of the unsplit CRS spMVM kernel."""
    nnzr = check_positive_float(nnzr, "nnzr")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return 6.0 + 12.0 / nnzr + kappa / 2.0


def code_balance_split(nnzr: float, kappa: float = 0.0) -> float:
    """Eq. 2: bytes per flop when the kernel is split (result written twice)."""
    nnzr = check_positive_float(nnzr, "nnzr")
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return 6.0 + 20.0 / nnzr + kappa / 2.0


def code_balance_block(nnzr: float, k: int, kappa: float = 0.0) -> float:
    """Block extension of Eq. 1: bytes per flop with k right-hand sides.

    Processing k RHS vectors per sweep streams ``val``/``col_idx`` once
    per *block*, so the 6 bytes/flop of matrix data amortise over the k
    columns; the RHS/result traffic and the ``kappa`` cache-reload term
    belong to each column and stay per-flop unchanged::

        B_CRS_block(k, kappa) = 6/k + 12/Nnzr + kappa/2   [bytes/flop]

    ``k = 1`` recovers Eq. 1 exactly.  This is the node-level half of
    the batching win; the message-count half is in the simulator.
    """
    nnzr = check_positive_float(nnzr, "nnzr")
    k = _check_block_width(k)
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return 6.0 / k + 12.0 / nnzr + kappa / 2.0


def code_balance_block_split(nnzr: float, k: int, kappa: float = 0.0) -> float:
    """Block extension of Eq. 2 (split kernel, result written twice)::

        B_splitCRS_block(k, kappa) = 6/k + 20/Nnzr + kappa/2
    """
    nnzr = check_positive_float(nnzr, "nnzr")
    k = _check_block_width(k)
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return 6.0 / k + 20.0 / nnzr + kappa / 2.0


def block_speedup(nnzr: float, k: int, kappa: float = 0.0, *, split: bool = False) -> float:
    """Attainable memory-bound speedup of a k-wide block sweep over k
    single-vector sweeps: ``B(k=1) / B(k)`` (≥ 1, saturating as the
    amortisable matrix traffic vanishes against the per-column terms)."""
    if split:
        return code_balance_block_split(nnzr, 1, kappa) / code_balance_block_split(nnzr, k, kappa)
    return code_balance_block(nnzr, 1, kappa) / code_balance_block(nnzr, k, kappa)


def max_performance(bandwidth: float, nnzr: float, kappa: float = 0.0, *, split: bool = False) -> float:
    """Attainable spMVM performance in flop/s for a memory bandwidth in bytes/s.

    With ``kappa = 0`` this is the paper's *upper limit* (e.g. 21.2 GB/s
    STREAM on a Nehalem socket → 3.12 GFlop/s for Nnzr = 15).
    """
    bandwidth = check_positive_float(bandwidth, "bandwidth")
    balance = code_balance_split(nnzr, kappa) if split else code_balance(nnzr, kappa)
    return bandwidth / balance


def kappa_from_measurement(performance: float, bandwidth_drawn: float, nnzr: float) -> float:
    """Determine ``kappa`` from measured performance and drawn bandwidth.

    The measured code balance is ``bandwidth / performance`` bytes/flop;
    subtracting the compulsory traffic leaves the RHS reload term::

        kappa = 2 * (b/P - 6 - 12/Nnzr)

    The paper's Nehalem example: P = 2.25 GFlop/s at b = 18.1 GB/s and
    Nnzr = 15 gives kappa ≈ 2.5 (37.3 bytes per row on B).  Negative
    results (measurement noise) are clamped to zero.
    """
    performance = check_positive_float(performance, "performance")
    bandwidth_drawn = check_positive_float(bandwidth_drawn, "bandwidth_drawn")
    nnzr = check_positive_float(nnzr, "nnzr")
    kappa = 2.0 * (bandwidth_drawn / performance - 6.0 - 12.0 / nnzr)
    return max(0.0, kappa)


def split_penalty(nnzr: float, kappa: float = 0.0) -> float:
    """Relative node-level performance penalty of the split kernel.

    ``1 - B_CRS/B_splitCRS``: between 15 % (Nnzr = 7) and 8 % (Nnzr = 15)
    for κ = 0, and less for κ > 0 — exactly the paper's Sect. 3.1 numbers.
    """
    return 1.0 - code_balance(nnzr, kappa) / code_balance_split(nnzr, kappa)


@dataclass(frozen=True)
class CodeBalanceModel:
    """Bundled model for one matrix on one machine.

    Parameters
    ----------
    nnzr:
        Average nonzeros per row of the matrix.
    kappa:
        Machine- and problem-specific RHS reload parameter (bytes per
        inner-loop iteration).
    """

    nnzr: float
    kappa: float = 0.0

    def balance(self, *, split: bool = False) -> float:
        """Bytes/flop (Eq. 1 or Eq. 2)."""
        return code_balance_split(self.nnzr, self.kappa) if split else code_balance(self.nnzr, self.kappa)

    def performance(self, bandwidth: float, *, split: bool = False) -> float:
        """Attainable flop/s at the given bandwidth (bytes/s)."""
        return max_performance(bandwidth, self.nnzr, self.kappa, split=split)
