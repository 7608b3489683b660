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
  local/halo buffer positions — exactly the two sub-matrices the overlap
  schemes multiply separately.

With ``with_matrices=False`` only the metadata (byte counts, message
lists, nonzero counts) is produced — that is all the performance
simulator needs, and it keeps large scaling sweeps cheap.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.comm.plan import ELEMENT_BYTES
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import RowPartition

__all__ = ["RankHalo", "HaloPlan", "build_halo_plan", "cached_halo_plan"]


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
    A: CSRMatrix, lo: int, hi: int, halo_cols: np.ndarray, with_matrices: bool
) -> tuple[int, int, CSRMatrix | None, CSRMatrix | None]:
    """Split one row block into local/remote parts with compressed columns."""
    p0, p1 = int(A.row_ptr[lo]), int(A.row_ptr[hi])
    cols = A.col_idx[p0:p1]
    local_mask = (cols >= lo) & (cols < hi)
    nnz_local = int(np.count_nonzero(local_mask))
    nnz_remote = cols.size - nnz_local
    if not with_matrices:
        return nnz_local, nnz_remote, None, None

    sub_ptr = A.row_ptr[lo : hi + 1] - p0
    vals = A.val[p0:p1]
    nrows = hi - lo

    def filtered(mask: np.ndarray, new_cols: np.ndarray, ncols: int) -> CSRMatrix:
        rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(sub_ptr))[mask]
        ptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(ptr, rows + 1, 1)
        np.cumsum(ptr, out=ptr)
        return CSRMatrix(ptr, new_cols, vals[mask].copy(), ncols=ncols, check=False)

    A_local = filtered(local_mask, (cols[local_mask] - lo).copy(), nrows)
    remote_cols = cols[~local_mask]
    # halo_cols is globally sorted (sources own disjoint ascending ranges),
    # so the buffer position of each remote column is its sorted rank
    buffer_pos = np.searchsorted(halo_cols, remote_cols)
    A_remote = filtered(~local_mask, buffer_pos.astype(np.int64), halo_cols.size)
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

    ranks: list[RankHalo] = []
    for p in range(nranks):
        lo, hi = partition.bounds(p)
        nnz_local, nnz_remote, A_local, A_remote = _rank_split(
            A, lo, hi, halo_cols_per_rank[p], with_matrices
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
# by a fingerprint of whatever the plan copied, so in-place mutation
# rebuilds the plan
# ----------------------------------------------------------------------
_PLAN_CACHE: dict[tuple[int, int, bool], tuple[weakref.ref, tuple, HaloPlan]] = {}
_PLAN_CACHE_MAX = 32
#: Serialises lookup, eviction and insertion: the dead-entry scan must
#: not interleave with another thread's insert or eviction.
_PLAN_LOCK = threading.Lock()


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
    """
    from repro.sparse.partition import partition_nnz_balanced

    key = (id(A), int(nparts), with_matrices)
    # hashing and building run outside the lock, so threads with distinct
    # matrices overlap; only the dictionary is serialised
    fingerprint = A.content_fingerprint() if with_matrices else A.index_fingerprint()
    with _PLAN_LOCK:
        hit = _PLAN_CACHE.get(key)
    if hit is not None and hit[0]() is A and hit[1] == fingerprint:
        return hit[2]
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
        _PLAN_CACHE[key] = (weakref.ref(A), fingerprint, plan)
    return plan
