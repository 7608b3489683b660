"""Communication bookkeeping for distributed spMVM (paper Sect. 3.1).

"Due to off-diagonal nonzeros, every process requires some parts of the
RHS vector from other processes to complete its own chunk of the result,
and must send parts of its own RHS chunk to others.  The resulting
communication pattern depends only on the sparsity structure, so the
necessary bookkeeping needs to be done only once."

:func:`build_halo_plan` performs that bookkeeping for a row-block
partition: per rank it determines

* which RHS elements must arrive from which other rank (the *halo*),
* which of its own elements must be gathered into send buffers for whom,
* the split of its row block into a **local** part (columns it owns) and
  a **remote** part (halo columns), with column indices compressed to
  local/halo buffer positions — the two sub-matrices the overlap schemes
  multiply separately — in passes linear in the rank's nonzeros.

With ``with_matrices=False`` only the metadata (byte counts, message
lists, nonzero counts) is produced — that is all the performance
simulator needs, and it keeps large scaling sweeps cheap.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.comm.plan import ELEMENT_BYTES
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import RowPartition

__all__ = [
    "RankHalo",
    "HaloPlan",
    "PlanHit",
    "build_halo_plan",
    "cached_halo_plan",
    "lookup_halo_plan",
    "plan_witness",
    "rebuild_halo_plan",
]


@dataclass
class RankHalo:
    """Per-rank piece of the communication plan.

    ``recv_from``/``send_to`` list ``(peer_rank, element_count)`` pairs in
    ascending peer order.  ``halo_columns`` holds the global column index
    of every halo-buffer slot (ascending — contiguous per source rank);
    it is populated even for metadata-only plans, because communication
    planning (:mod:`repro.comm`) needs it to deduplicate per-node halo
    sets.  ``send_indices`` maps each destination to the *local* indices
    of the owned elements to gather for it.
    """

    rank: int
    row_lo: int
    row_hi: int
    nnz_local: int
    nnz_remote: int
    recv_from: list[tuple[int, int]] = field(default_factory=list)
    send_to: list[tuple[int, int]] = field(default_factory=list)
    halo_columns: np.ndarray | None = None
    send_indices: dict[int, np.ndarray] = field(default_factory=dict)
    A_local: CSRMatrix | None = None
    A_remote: CSRMatrix | None = None

    @property
    def n_rows(self) -> int:
        """Rows (and owned RHS elements) of this rank."""
        return self.row_hi - self.row_lo

    @property
    def n_halo(self) -> int:
        """Halo (remote RHS) elements this rank receives per MVM."""
        return sum(c for _, c in self.recv_from)

    @property
    def n_send_elements(self) -> int:
        """Owned elements gathered into send buffers per MVM."""
        return sum(c for _, c in self.send_to)

    @property
    def recv_bytes(self) -> int:
        """Bytes received per MVM."""
        return ELEMENT_BYTES * self.n_halo

    @property
    def send_bytes(self) -> int:
        """Bytes sent per MVM."""
        return ELEMENT_BYTES * self.n_send_elements

    @property
    def nnz(self) -> int:
        """Total nonzeros of the rank's row block."""
        return self.nnz_local + self.nnz_remote


@dataclass
class HaloPlan:
    """The full communication plan of one matrix on one partition."""

    partition: RowPartition
    nrows: int
    nnz: int
    ranks: list[RankHalo]

    @property
    def nranks(self) -> int:
        """Number of ranks."""
        return len(self.ranks)

    def total_comm_bytes(self) -> int:
        """Bytes moved over the interconnect per MVM (all messages)."""
        return sum(r.send_bytes for r in self.ranks)

    def total_messages(self) -> int:
        """Point-to-point messages per MVM."""
        return sum(len(r.send_to) for r in self.ranks)


def _rank_split(
    A: CSRMatrix, lo: int, hi: int, halo_cols: np.ndarray, slot: np.ndarray | None
) -> tuple[int, int, CSRMatrix | None, CSRMatrix | None]:
    """Split one row block into local/remote parts with compressed columns,
    in passes linear in its nonzeros and with no row id per nonzero: row
    pointers from a search of the remote positions at the row bounds, one
    gather per kept array, halo-buffer positions from *slot* (the plan's
    column-indexed table).  Without *slot* only the two counts are taken."""
    p0, p1 = int(A.row_ptr[lo]), int(A.row_ptr[hi])
    cols = A.col_idx[p0:p1]
    local_mask = (cols >= lo) & (cols < hi)
    nnz_local = int(np.count_nonzero(local_mask))
    nnz_remote = cols.size - nnz_local
    if slot is None:
        return nnz_local, nnz_remote, None, None

    remote_mask, vals = ~local_mask, A.val[p0:p1]
    ptr_local = A.row_ptr[lo : hi + 1] - p0
    ptr_remote = np.searchsorted(np.flatnonzero(remote_mask), ptr_local)
    ptr_local -= ptr_remote
    local_cols = cols[local_mask]
    local_cols -= lo
    slot[halo_cols] = np.arange(halo_cols.size)  # owner_of range-checked every column
    A_local = CSRMatrix(ptr_local, local_cols, vals[local_mask], ncols=hi - lo, check=False)
    A_remote = CSRMatrix(
        ptr_remote, slot[cols[remote_mask]], vals[remote_mask], ncols=halo_cols.size, check=False
    )
    return nnz_local, nnz_remote, A_local, A_remote


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by sort plus adjacent difference: the same
    array (values and dtype), without numpy's hash-based path, which costs
    about ten times the sort on a halo-sized integer set."""
    values = np.sort(values)
    if values.size > 1:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def build_halo_plan(
    A: CSRMatrix, partition: RowPartition, *, with_matrices: bool = True
) -> HaloPlan:
    """Perform the one-time communication bookkeeping.

    Parameters
    ----------
    A:
        Square CSR matrix.
    partition:
        Row-block partition (also partitions the RHS/result vectors).
    with_matrices:
        Build the per-rank local/remote sub-matrices (needed for actual
        numerical execution; skip for timing-only studies).
    """
    if A.nrows != A.ncols:
        raise ValueError("distributed spMVM requires a square matrix")
    if partition.nrows != A.nrows:
        raise ValueError(
            f"partition covers {partition.nrows} rows, matrix has {A.nrows}"
        )
    nranks = partition.nparts
    # per-rank halo needs: needs[p] = {q: sorted unique global cols from q}
    needs: list[dict[int, np.ndarray]] = []
    halo_cols_per_rank: list[np.ndarray] = []
    for p in range(nranks):
        lo, hi = partition.bounds(p)
        p0, p1 = int(A.row_ptr[lo]), int(A.row_ptr[hi])
        cols = A.col_idx[p0:p1]
        remote = _sorted_unique(cols[(cols < lo) | (cols >= hi)])
        halo_cols_per_rank.append(remote)
        owners = partition.owner_of(remote)
        need: dict[int, np.ndarray] = {}
        if remote.size:
            boundaries = np.flatnonzero(np.diff(owners)) + 1
            segment_owners = owners[np.r_[0, boundaries]]
            for seg_cols, seg_owner in zip(np.split(remote, boundaries), segment_owners):
                need[int(seg_owner)] = seg_cols
        needs.append(need)

    slot = np.empty(A.ncols, dtype=np.int64) if with_matrices else None  # column -> halo slot
    ranks: list[RankHalo] = []
    for p in range(nranks):
        lo, hi = partition.bounds(p)
        nnz_local, nnz_remote, A_local, A_remote = _rank_split(
            A, lo, hi, halo_cols_per_rank[p], slot
        )
        rh = RankHalo(
            rank=p,
            row_lo=lo,
            row_hi=hi,
            nnz_local=nnz_local,
            nnz_remote=nnz_remote,
            recv_from=[(q, int(c.size)) for q, c in sorted(needs[p].items())],
            halo_columns=halo_cols_per_rank[p],
            A_local=A_local,
            A_remote=A_remote,
        )
        ranks.append(rh)

    # invert the needs to obtain send lists: walking receivers in
    # ascending order appends every send list in ascending peer order,
    # in time linear in the messages rather than in rank pairs
    for q in range(nranks):
        for p, cols in needs[q].items():
            ranks[p].send_to.append((q, int(cols.size)))
            if with_matrices:
                ranks[p].send_indices[q] = (cols - ranks[p].row_lo).astype(np.int64)
    return HaloPlan(partition=partition, nrows=A.nrows, nnz=A.nnz, ranks=ranks)


# ----------------------------------------------------------------------
# plan cache: solvers and benchmarks re-multiply the same matrix on the
# same partition thousands of times; the bookkeeping "needs to be done
# only once" (Sect. 3.1), so key it on the matrix *identity* — guarded
# by a witness of whatever the plan copied, so in-place mutation
# rebuilds the plan
# ----------------------------------------------------------------------
_PLAN_CACHE: dict[tuple[int, int, bool], tuple[weakref.ref, tuple, HaloPlan]] = {}
_PLAN_CACHE_MAX = 32
#: Serialises lookup, eviction and insertion: the dead-entry scan must
#: not interleave with another thread's insert or eviction.
_PLAN_LOCK = threading.Lock()


class PlanHit(NamedTuple):
    """A cached plan as :func:`lookup_halo_plan` found it: not yet checked."""

    plan: HaloPlan
    #: the witness of the matrix taken when *plan* was built
    witness: tuple

    def layout_matches(self, A: CSRMatrix) -> bool:
        """Whether *A* still has the shape, nonzero count and dtypes of
        the plan's matrix: the head of
        :meth:`~repro.sparse.csr.CSRMatrix.content_fingerprint`, read
        without the checksum pass.  A plan with sub-matrices whose layout
        matches runs on any *x* of *A* without failing, on its own
        copies; only its witness says whether its product is *A*'s.
        (A metadata-only plan's witness has no ``val`` dtype: never.)"""
        head = (A.nrows, A.ncols, A.nnz, A.row_ptr.dtype.str, A.col_idx.dtype.str, A.val.dtype.str)
        return self.witness[: len(head)] == head


def plan_witness(A: CSRMatrix, *, with_matrices: bool = True) -> tuple:
    """The witness that guards a plan of *A*: the checksum pass over
    what such a plan copies (see :func:`cached_halo_plan`)."""
    return A.content_fingerprint() if with_matrices else A.index_fingerprint()


def lookup_halo_plan(A: CSRMatrix, nparts: int, *, with_matrices: bool = True) -> PlanHit | None:
    """The cached plan of *A* on *nparts* ranks, without checking it.

    ``None`` on a miss, or when the entry's matrix was garbage collected
    and *A* merely reuses its id.  A hit may be stale: compare its
    ``witness`` with :func:`plan_witness` of *A* before its product is
    used.
    """
    with _PLAN_LOCK:
        entry = _PLAN_CACHE.get((id(A), int(nparts), with_matrices))
    if entry is None or entry[0]() is not A:
        return None
    return PlanHit(entry[2], entry[1])


def rebuild_halo_plan(
    A: CSRMatrix, nparts: int, witness: tuple, *, with_matrices: bool = True
) -> HaloPlan:
    """Build *A*'s plan on *nparts* ranks and cache it under *witness*
    (:func:`plan_witness` of *A* as it is now)."""
    from repro.sparse.partition import partition_nnz_balanced

    key = (id(A), int(nparts), with_matrices)
    plan = build_halo_plan(A, partition_nnz_balanced(A, nparts), with_matrices=with_matrices)
    with _PLAN_LOCK:
        dead = [k for k, (ref, _fp, _p) in _PLAN_CACHE.items() if ref() is None]
        for k in dead:
            del _PLAN_CACHE[k]
        # only evict when actually inserting a new key — refreshing an entry
        # already present at capacity must not push out a live neighbour
        if key not in _PLAN_CACHE:
            while len(_PLAN_CACHE) >= _PLAN_CACHE_MAX:
                del _PLAN_CACHE[next(iter(_PLAN_CACHE))]
        _PLAN_CACHE[key] = (weakref.ref(A), witness, plan)
    return plan


def cached_halo_plan(A: CSRMatrix, nparts: int, *, with_matrices: bool = True) -> HaloPlan:
    """Partition *A* by balanced nonzeros and build (or reuse) its halo plan.

    The partition is the paper's (footnote 2:
    :func:`~repro.sparse.partition.partition_nnz_balanced`).  Plans are
    cached keyed on ``(id(A), nparts, with_matrices)``, with two guards
    on each hit: a weak reference against id reuse after the matrix is
    garbage collected, and a
    witness of the matrix against in-place mutation.  A long-lived
    service may legitimately rebuild a matrix between requests;
    returning the old plan then silently computes with the wrong
    sparsity pattern or the wrong values, so a witness mismatch
    rebuilds the plan instead.  The witness covers what the plan
    copied, in one compiled checksum pass (crc32 without the library):
    a metadata-only plan holds structure alone, so it is guarded by
    :meth:`~repro.sparse.csr.CSRMatrix.index_fingerprint` over
    ``row_ptr`` and ``col_idx`` and survives a value-only update; one
    ``with_matrices`` also copied ``val`` into ``A_local`` /
    ``A_remote``, so it is guarded by
    :meth:`~repro.sparse.csr.CSRMatrix.content_fingerprint` over all
    three arrays.  The cache is bounded; oldest entries fall out first.

    This is :func:`lookup_halo_plan`, the check and
    :func:`rebuild_halo_plan` in one, the check first; the one-shot
    drivers of :mod:`repro.core.spmvm` run the same three steps with
    the check beside the sweep.
    """
    # hashing and building run outside the lock, so threads with distinct
    # matrices overlap; only the dictionary is serialised
    witness = plan_witness(A, with_matrices=with_matrices)
    hit = lookup_halo_plan(A, nparts, with_matrices=with_matrices)
    if hit is not None and hit.witness == witness:
        return hit.plan
    return rebuild_halo_plan(A, nparts, witness, with_matrices=with_matrices)
