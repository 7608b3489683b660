"""Memory-traffic accounting for the phases of one distributed spMVM.

Extends the paper's code-balance model (Eqs. 1-2) from a whole-matrix
statement to the *per-rank, per-phase* quantities the simulator needs.
Per inner-loop iteration (one nonzero) the unsplit kernel moves
``8 (val) + 4 (col_idx) + kappa`` bytes plus, per row, 16 bytes of
result traffic (write allocate + evict) and 8 bytes per distinct RHS
element touched.  Splitting the kernel writes the result twice: the
local and remote phases each carry the 16 bytes/row term, which summed
over both phases reproduces Eq. 2's extra ``16/Nnzr``.

``kappa`` (cache-capacity reloads of the RHS) is charged to the *local*
phase: the reload traffic is caused by streaming through the large
owned part of the RHS; the halo buffer is small and cache-resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.halo import RankHalo

__all__ = ["PhaseCosts", "phase_costs", "GATHER_BYTES_PER_ELEMENT"]

#: Gathering one RHS element into a send buffer: 8 B read + 8 B write
#: (the write-allocate of the freshly touched buffer is folded into the
#: store figure, as the buffers are reused across iterations).
GATHER_BYTES_PER_ELEMENT = 16.0


@dataclass(frozen=True)
class PhaseCosts:
    """Bytes of memory traffic per phase of one MVM on one rank."""

    gather: float
    full_spmv: float
    local_spmv: float
    remote_spmv: float


def phase_costs(
    halo: RankHalo,
    kappa: float = 0.0,
    *,
    block_k: int = 1,
    gather_elements: int | None = None,
) -> PhaseCosts:
    """Per-phase traffic of *halo*'s rank for one MVM sweep.

    ``full_spmv`` is the Fig. 4a kernel (result written once);
    ``local_spmv``/``remote_spmv`` are the two phases of the split
    kernel used by both overlap schemes (Fig. 4 b/c).

    With ``block_k > 1`` the sweep applies the operator to a block of k
    right-hand sides: the matrix data (``12`` bytes per nonzero) is
    streamed once per *block*, while gather, RHS, result and the
    ``kappa`` reload term scale with the k columns — the traffic form
    of the block code balance (:func:`repro.model.code_balance_block`).

    ``gather_elements`` overrides the number of RHS elements packed into
    send buffers — a node-aware communication plan packs deduplicated
    per-node sets instead of one segment per peer rank.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if block_k < 1:
        raise ValueError(f"block_k must be >= 1, got {block_k}")
    k = float(block_k)
    nrows = halo.n_rows
    packed = halo.n_send_elements if gather_elements is None else gather_elements
    gather = GATHER_BYTES_PER_ELEMENT * packed * k
    full = (
        (12.0 + kappa * k) * halo.nnz
        + 16.0 * nrows * k
        + 8.0 * (nrows + halo.n_halo) * k
    )
    local = (12.0 + kappa * k) * halo.nnz_local + 16.0 * nrows * k + 8.0 * nrows * k
    remote = 12.0 * halo.nnz_remote + 16.0 * nrows * k + 8.0 * halo.n_halo * k
    return PhaseCosts(
        gather=gather, full_spmv=full, local_spmv=local, remote_spmv=remote
    )
