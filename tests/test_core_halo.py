"""Halo-plan bookkeeping verified against a brute-force reference."""

import numpy as np
import pytest

from repro.core import build_halo_plan
from repro.matrices import random_banded, random_sparse
from repro.sparse import partition_matrix, partition_rows_balanced


def _brute_force_needs(A, partition):
    """For each pair (p, q): the set of q-owned columns p's rows touch."""
    needs = {}
    dense_cols = [set() for _ in range(partition.nparts)]
    for p in range(partition.nparts):
        lo, hi = partition.bounds(p)
        cols = set()
        for i in range(lo, hi):
            for j in A.col_idx[A.row_ptr[i] : A.row_ptr[i + 1]]:
                j = int(j)
                if j < lo or j >= hi:
                    cols.add(j)
        for q in range(partition.nparts):
            qlo, qhi = partition.bounds(q)
            subset = sorted(c for c in cols if qlo <= c < qhi)
            if subset:
                needs[(p, q)] = subset
    return needs


@pytest.fixture(scope="module")
def matrix():
    return random_sparse(120, nnzr=6, seed=7)


def test_halo_plan_against_brute_force(matrix):
    partition = partition_matrix(matrix, 5)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    needs = _brute_force_needs(matrix, partition)
    for p, rh in enumerate(plan.ranks):
        # receive counts
        expected_recv = {q: len(cols) for (pp, q), cols in needs.items() if pp == p}
        assert dict(rh.recv_from) == expected_recv
        # send counts are the transpose
        expected_send = {pp: len(cols) for (pp, q), cols in needs.items() if q == p}
        assert dict(rh.send_to) == expected_send
        # halo columns enumerate exactly the needed set, sorted
        all_needed = sorted(c for (pp, _q), cols in needs.items() if pp == p for c in cols)
        assert rh.halo_columns.tolist() == all_needed
        # send indices address the correct owned elements
        lo, _hi = partition.bounds(p)
        for q, idx in rh.send_indices.items():
            assert (idx + lo).tolist() == needs[(q, p)]


def test_nnz_split_conserved(matrix):
    partition = partition_matrix(matrix, 4)
    plan = build_halo_plan(matrix, partition, with_matrices=False)
    assert sum(r.nnz for r in plan.ranks) == matrix.nnz
    for r in plan.ranks:
        assert r.nnz_local >= 0 and r.nnz_remote >= 0


def test_send_recv_volumes_globally_consistent(matrix):
    partition = partition_matrix(matrix, 6)
    plan = build_halo_plan(matrix, partition, with_matrices=False)
    assert sum(r.send_bytes for r in plan.ranks) == sum(r.recv_bytes for r in plan.ranks)
    assert plan.total_comm_bytes() == sum(r.send_bytes for r in plan.ranks)
    assert plan.total_messages() == sum(len(r.recv_from) for r in plan.ranks)


def test_single_rank_has_no_communication(matrix):
    plan = build_halo_plan(matrix, partition_rows_balanced(matrix.nrows, 1))
    rh = plan.ranks[0]
    assert rh.recv_from == [] and rh.send_to == []
    assert rh.nnz_remote == 0
    assert rh.n_halo == 0


def test_local_matrix_columns_compressed(matrix):
    partition = partition_matrix(matrix, 3)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    for rh in plan.ranks:
        assert rh.A_local.ncols == rh.n_rows
        if rh.A_local.nnz:
            assert int(rh.A_local.col_idx.max()) < rh.n_rows
        if rh.A_remote.nnz:
            assert int(rh.A_remote.col_idx.max()) < max(1, rh.n_halo)


def test_split_reproduces_matvec(matrix, rng):
    partition = partition_matrix(matrix, 4)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    x = rng.standard_normal(matrix.nrows)
    ref = matrix @ x
    for rh in plan.ranks:
        local_x = x[rh.row_lo : rh.row_hi]
        halo_x = x[rh.halo_columns] if rh.n_halo else np.zeros(1)
        y = rh.A_local @ local_x + rh.A_remote @ halo_x
        assert np.allclose(y, ref[rh.row_lo : rh.row_hi])


def test_banded_matrix_talks_to_neighbors_only():
    A = random_banded(400, halfwidth=20, nnzr=5, seed=1)
    partition = partition_rows_balanced(400, 8)
    plan = build_halo_plan(A, partition, with_matrices=False)
    for rh in plan.ranks:
        for q, _c in rh.recv_from:
            assert abs(q - rh.rank) == 1  # band < block size: nearest-neighbour


def test_comm_to_comp_ratio_orders_matrices(hmep_tiny, samg_tiny):
    p_h = build_halo_plan(hmep_tiny, partition_matrix(hmep_tiny, 6), with_matrices=False)
    p_s = build_halo_plan(samg_tiny, partition_matrix(samg_tiny, 6), with_matrices=False)
    # the paper's fundamental contrast: HMeP is communication-heavy
    assert p_h.comm_to_comp_ratio() > 2 * p_s.comm_to_comp_ratio()


def test_requires_square_and_matching_partition(matrix):
    from repro.sparse import CSRMatrix

    rect = CSRMatrix.from_dense(np.ones((4, 6)))
    with pytest.raises(ValueError, match="square"):
        build_halo_plan(rect, partition_rows_balanced(4, 2))
    with pytest.raises(ValueError, match="partition covers"):
        build_halo_plan(matrix, partition_rows_balanced(50, 2))


def test_halo_columns_always_populated(matrix):
    # metadata-only plans still carry the global halo column sets —
    # the communication planners (repro.comm) need them
    plan = build_halo_plan(matrix, partition_matrix(matrix, 4), with_matrices=False)
    for rh in plan.ranks:
        assert rh.halo_columns is not None
        assert rh.halo_columns.size == rh.n_halo


def test_cached_plan_refresh_keeps_live_neighbours(monkeypatch):
    import weakref

    from repro.core import halo as halo_mod

    monkeypatch.setattr(halo_mod, "_PLAN_CACHE_MAX", 2)
    monkeypatch.setattr(halo_mod, "_PLAN_CACHE", {})
    A = random_sparse(60, nnzr=4, seed=21)
    B = random_sparse(60, nnzr=4, seed=22)
    pb = halo_mod.cached_halo_plan(B, 2, with_matrices=False)
    pa = halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # cache is now at capacity.  Sour A's entry in place: the key exists
    # but its weakref resolves to a different live object (the id-reuse
    # case the weakref guards against), forcing a rebuild-and-refresh.
    key = (id(A), 2, "nnz", False)
    assert key in halo_mod._PLAN_CACHE
    halo_mod._PLAN_CACHE[key] = (weakref.ref(B), A.structure_fingerprint(), pa)
    halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # refreshing an existing key at capacity must not evict B's live plan
    assert halo_mod.cached_halo_plan(B, 2, with_matrices=False) is pb


class TestStaleCacheGuard:
    """The in-place-mutation bug the serve work flushed out: the plan
    cache used to key on matrix identity alone, so mutating the arrays
    of a cached matrix kept serving the *old* halo plan — wrong halos,
    wrong sub-matrices, silently wrong results."""

    def test_unchanged_matrix_still_hits(self):
        from repro.core.halo import cached_halo_plan

        A = random_sparse(80, nnzr=5, seed=31)
        plan = cached_halo_plan(A, 2)
        assert cached_halo_plan(A, 2) is plan  # identity + fingerprint match

    def test_in_place_mutation_rebuilds_plan(self):
        from repro.core.halo import cached_halo_plan

        A = random_sparse(80, nnzr=5, seed=31)
        B = random_sparse(80, nnzr=7, seed=32)
        stale = cached_halo_plan(A, 2)
        # mutate A's structure in place: same object, new sparsity
        A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
        fresh = cached_halo_plan(A, 2)
        assert fresh is not stale  # pre-fix: identity hit returned `stale`
        assert fresh.nnz == B.nnz
        np.testing.assert_array_equal(
            fresh.ranks[0].A_local.col_idx,
            build_halo_plan(B, partition_matrix(B, 2)).ranks[0].A_local.col_idx,
        )

    def test_mutated_matrix_multiplies_correctly(self):
        # the end-to-end symptom: distributed results disagreed with the
        # serial kernel after an in-place structure change
        from repro.core.spmvm import distributed_spmv
        from repro.sparse import spmv

        A = random_sparse(120, nnzr=5, seed=33)
        x = np.arange(120, dtype=float)
        distributed_spmv(A, x, 3)  # populate the cache
        B = random_sparse(120, nnzr=8, seed=34)
        A.row_ptr, A.col_idx, A.val = B.row_ptr, B.col_idx, B.val
        # split local/remote summation order differs from serial by ulps;
        # the pre-fix bug produced *structurally* wrong results here
        np.testing.assert_allclose(distributed_spmv(A, x, 3), spmv(A, x), rtol=1e-12)

    def test_value_only_mutation_multiplies_correctly(self):
        # a plan built with_matrices copied A.val into A_local/A_remote,
        # so the structure guard alone served the *old* values: y2 == y1
        from repro.core.halo import cached_halo_plan
        from repro.core.spmvm import distributed_spmv
        from repro.serve import build_model

        A = random_sparse(120, nnzr=5, seed=36)
        x = np.arange(120, dtype=float)
        y1 = distributed_spmv(A, x, 2)
        m1 = build_model(A, 2)
        meta_plan = cached_halo_plan(A, 2, with_matrices=False)
        A.val *= 2.0
        np.testing.assert_array_equal(distributed_spmv(A, x, 2), 2.0 * y1)
        m2 = build_model(A, 2)
        assert m2.plan is not m1.plan
        np.testing.assert_array_equal(
            m2.plan.ranks[0].A_local.val, 2.0 * m1.plan.ranks[0].A_local.val
        )
        # a metadata-only plan holds no values: the structure guard still hits
        assert cached_halo_plan(A, 2, with_matrices=False) is meta_plan
