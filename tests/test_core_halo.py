"""Halo-plan bookkeeping verified against a brute-force reference."""

import collections
import sys
import threading

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_halo_plan, simulate_from_plan, simulate_spmvm
from repro.core import halo as halo_mod
from repro.core.halo import cached_halo_plan
from repro.machine import westmere_cluster
from repro.matrices import random_banded, random_sparse
from repro.sparse import (
    CSRMatrix,
    native,
    partition_matrix,
    partition_nnz_balanced,
    partition_rows_balanced,
)


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
            assert int(rh.A_remote.col_idx.max()) < rh.n_halo


def test_split_reproduces_matvec(matrix, rng):
    partition = partition_matrix(matrix, 4)
    plan = build_halo_plan(matrix, partition, with_matrices=True)
    x = rng.standard_normal(matrix.nrows)
    ref = matrix @ x
    for rh in plan.ranks:
        local_x = x[rh.row_lo : rh.row_hi]
        halo_x = x[rh.halo_columns]
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
    # (halo bytes per flop of one MVM)
    ratio_h, ratio_s = (p.total_comm_bytes() / (2 * p.nnz) for p in (p_h, p_s))
    assert ratio_h > 2 * ratio_s


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


def _assert_plans_identical(got, want):
    """Every array of two plans: same values, same dtype, same peers."""
    assert (got.nrows, got.nnz, got.nranks) == (want.nrows, want.nnz, want.nranks)
    for g, w in zip(got.ranks, want.ranks, strict=True):
        assert (g.row_lo, g.row_hi, g.nnz_local, g.nnz_remote) == (
            w.row_lo, w.row_hi, w.nnz_local, w.nnz_remote
        )
        assert g.halo_columns.dtype == w.halo_columns.dtype == np.int64
        np.testing.assert_array_equal(g.halo_columns, w.halo_columns)
        assert g.recv_from == w.recv_from and g.send_to == w.send_to
        assert list(g.send_indices) == list(w.send_indices)
        for q, idx in w.send_indices.items():
            assert g.send_indices[q].dtype == idx.dtype
            np.testing.assert_array_equal(g.send_indices[q], idx)
        for part in ("A_local", "A_remote"):
            gm, wm = getattr(g, part), getattr(w, part)
            if wm is None:
                assert gm is None
                continue
            assert gm.ncols == wm.ncols
            for array in ("row_ptr", "col_idx", "val"):
                ga, wa = getattr(gm, array), getattr(wm, array)
                assert ga.dtype == wa.dtype
                np.testing.assert_array_equal(ga.view(np.uint64), wa.view(np.uint64))


def _assert_build_matches_unique_reference(A, nranks, strategy):
    # the reference is the same bookkeeping with numpy's own np.unique
    partition = partition_matrix(A, nranks, strategy=strategy)
    for with_matrices in (True, False):
        got = build_halo_plan(A, partition, with_matrices=with_matrices)
        with mock.patch.object(halo_mod, "_sorted_unique", np.unique):
            want = build_halo_plan(A, partition, with_matrices=with_matrices)
        _assert_plans_identical(got, want)


@st.composite
def _halo_cases(draw):
    """A small square matrix (optionally with one column every row
    touches), a rank count from 1 to nrows, and a partition strategy."""
    n = draw(st.integers(min_value=1, max_value=30))
    rows = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=6),
        min_size=n, max_size=n,
    ))
    hub = draw(st.none() | st.integers(min_value=0, max_value=n - 1))
    rows = [sorted(set(r) | ({hub} if hub is not None else set())) for r in rows]
    row_ptr = np.cumsum([0] + [len(r) for r in rows])
    col_idx = np.array([c for r in rows for c in r], dtype=np.int64)
    val = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=col_idx.size, max_size=col_idx.size,
    ))
    A = CSRMatrix(row_ptr, col_idx, np.array(val, dtype=np.float64), ncols=n)
    nranks = draw(st.integers(min_value=1, max_value=n))
    return A, nranks, draw(st.sampled_from(["nnz", "rows"]))


@settings(max_examples=150, deadline=None)
@given(case=_halo_cases())
def test_plan_build_is_bit_identical_to_unique_reference(case):
    _assert_build_matches_unique_reference(*case)


def _hub_matrix(n=40):
    # column 0 in every row: one column shared by all rows, sent to every rank
    A = random_banded(n, halfwidth=3, nnzr=3, seed=5).to_dense()
    A[:, 0] = 1.0
    return CSRMatrix.from_dense(A)


def _block_diagonal(coupled=False, n=24, block=6):
    # ranks aligned to the blocks have an empty halo; coupling the first
    # and last row leaves only the ranks in between without one
    dense = np.zeros((n, n))
    for b in range(0, n, block):
        dense[b : b + block, b : b + block] = 1.0
    if coupled:
        dense[0, n - 1] = dense[n - 1, 0] = 1.0
    return CSRMatrix.from_dense(dense)


@pytest.mark.parametrize(
    "name, build, nranks, strategy",
    [
        ("random-5-ranks", lambda: random_sparse(120, nnzr=6, seed=7), 5, "nnz"),
        ("one-rank", lambda: random_sparse(50, nnzr=4, seed=8), 1, "nnz"),
        ("rank-per-row", lambda: random_sparse(30, nnzr=4, seed=9), 30, "rows"),
        ("column-shared-by-all-rows", _hub_matrix, 6, "nnz"),
        ("empty-halos", _block_diagonal, 4, "rows"),
        ("some-empty-halos", lambda: _block_diagonal(coupled=True), 4, "rows"),
    ],
)
def test_plan_build_named_cases_match_unique_reference(name, build, nranks, strategy):
    A = build()
    if name.endswith("empty-halos"):
        plan = build_halo_plan(A, partition_matrix(A, nranks, strategy=strategy))
        empty = [rh.n_halo == 0 for rh in plan.ranks]
        assert all(empty) if name == "empty-halos" else empty == [False, True, True, False]
    _assert_build_matches_unique_reference(A, nranks, strategy)


def test_cached_plan_refresh_keeps_live_neighbours(monkeypatch):
    import weakref

    monkeypatch.setattr(halo_mod, "_PLAN_CACHE_MAX", 2)
    monkeypatch.setattr(halo_mod, "_PLAN_CACHE", {})
    A = random_sparse(60, nnzr=4, seed=21)
    B = random_sparse(60, nnzr=4, seed=22)
    pb = halo_mod.cached_halo_plan(B, 2, with_matrices=False)
    pa = halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # cache is now at capacity.  Sour A's entry in place: the key exists
    # and its witness matches, but its weakref resolves to a different
    # live object (the id-reuse case the weakref guards against), forcing
    # a rebuild-and-refresh.
    key = (id(A), 2, False)
    assert halo_mod._PLAN_CACHE[key][1] == A.index_fingerprint()
    halo_mod._PLAN_CACHE[key] = (weakref.ref(B), A.index_fingerprint(), pa)
    halo_mod.cached_halo_plan(A, 2, with_matrices=False)
    # refreshing an existing key at capacity must not evict B's live plan
    assert halo_mod.cached_halo_plan(B, 2, with_matrices=False) is pb


def test_concurrent_plan_caches_stay_consistent():
    # the dead-entry scan used to iterate the cache while another thread
    # inserted ("dictionary keys changed during iteration"), for the halo
    # plan cache and the comm plan cache alike
    from repro.comm import plan as plan_mod

    nthreads, per_thread = 8, 500
    errors = []
    start = threading.Barrier(nthreads)

    def work():
        # each thread keeps its last four matrices alive: eight threads fill
        # the 32 slots, so every insert scans a full cache and evicts
        alive = collections.deque(maxlen=4)
        try:
            start.wait(timeout=30)
            for _ in range(per_thread):
                alive.append(CSRMatrix.identity(64))
                plan_mod.cached_comm_plan(cached_halo_plan(alive[-1], 2), (0, 1))
        except Exception as exc:  # handed to the test thread, which asserts on it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # an evict-then-insert interleaved with another thread's overfills
    assert len(halo_mod._PLAN_CACHE) <= halo_mod._PLAN_CACHE_MAX
    assert len(plan_mod._COMM_CACHE) <= plan_mod._COMM_CACHE_MAX


#: Base matrices of the mutation table.  ``ragged`` holds a 0.0 and a
#: -0.0 and has nnz % 4 != 0, so its last value sits in the checksum's
#: tail loop; ``tiny`` is shorter than one four-lane stripe.
ZERO, NEGATIVE_ZERO = 11, 12


@pytest.fixture(scope="module")
def mutation_bases():
    ragged = random_sparse(120, nnzr=5, seed=37)
    ragged.val[ZERO], ragged.val[NEGATIVE_ZERO] = 0.0, -0.0
    assert ragged.nnz % 4 != 0 and min(ragged.row_nnz()) >= 2
    tiny = CSRMatrix(
        np.array([0, 1, 2, 3]), np.array([1, 2, 0]), np.array([1.5, -2.0, 3.25])
    )
    return {"ragged": ragged, "tiny": tiny}


def _set_value(index, new):
    def mutate(A):
        A.val[index] = new(A.val[index])

    return mutate


def _swap(name, i, j):
    def mutate(A):
        array = getattr(A, name)
        array[[i, j]] = array[[j, i]]

    return mutate


def _flip_low_bit(index):
    def mutate(A):
        A.val.view(np.uint64)[index] ^= 1

    return mutate


def _flip_low_index_bit(index):
    def mutate(A):
        A.col_idx[index] ^= 1  # stays in range: ncols is even or the column is 0

    return mutate


def _shift_row_start(A):
    A.row_ptr[60] += 1  # one entry of row 60 moves to row 59


def _double(A):
    A.val *= 2.0


def _view_as_int64(A):
    A.val = A.val.view(np.int64)


MUTATIONS = {
    "sign-flip": ("ragged", _set_value(7, np.negative)),
    "ulp-up": ("ragged", _set_value(7, lambda v: np.nextafter(v, np.inf))),
    "ulp-down": ("ragged", _set_value(7, lambda v: np.nextafter(v, -np.inf))),
    "zero-to-negative-zero": ("ragged", _set_value(ZERO, lambda v: -0.0)),
    "negative-zero-to-zero": ("ragged", _set_value(NEGATIVE_ZERO, lambda v: 0.0)),
    "values-swapped": ("ragged", _swap("val", 3, 9)),
    "columns-swapped-in-row": ("ragged", _swap("col_idx", 0, 1)),
    "row-ptr-shift": ("ragged", _shift_row_start),
    "val-doubled": ("ragged", _double),
    "first-word": ("ragged", _flip_low_bit(0)),
    "last-word": ("ragged", _flip_low_bit(-1)),
    "under-four-nonzeros": ("tiny", _flip_low_bit(-1)),
    "dtype-view": ("ragged", _view_as_int64),
    "last-column-index": ("ragged", _flip_low_index_bit(-1)),
    "last-column-index-under-four": ("tiny", _flip_low_index_bit(-1)),
}

#: The cases that change ``row_ptr`` or ``col_idx``: the only ones a
#: metadata-only plan (structure alone) must rebuild on.
STRUCTURAL = frozenset(
    {"columns-swapped-in-row", "row-ptr-shift", "last-column-index", "last-column-index-under-four"}
)


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

    @pytest.mark.parametrize("witness", ["active", "crc32"])
    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_every_mutation_rebuilds_the_plan(self, case, witness, mutation_bases, monkeypatch):
        # the table runs under the checksum this process loaded and under
        # the crc32 fallback (the only one without the library)
        if witness == "crc32":
            monkeypatch.setattr(native, "_checksum", None)
        base, mutate = MUTATIONS[case]
        A = mutation_bases[base].copy()
        stale = cached_halo_plan(A, 2)
        assert cached_halo_plan(A, 2) is stale
        mutate(A)
        fresh = cached_halo_plan(A, 2)
        assert fresh is not stale
        want = build_halo_plan(A, partition_nnz_balanced(A, 2))
        for got, ref in zip(fresh.ranks, want.ranks, strict=True):
            for part in ("A_local", "A_remote"):
                for array in ("row_ptr", "col_idx", "val"):
                    np.testing.assert_array_equal(
                        getattr(getattr(got, part), array).view(np.uint64),
                        getattr(getattr(ref, part), array).view(np.uint64),
                    )

    def test_dtype_view_multiplies_correctly(self):
        # same bytes, other numbers: a byte checksum alone kept serving
        # the float plan, and distributed_spmv disagreed with serial spmv
        from repro.core.spmvm import distributed_spmv
        from repro.sparse import spmv

        A = random_sparse(120, nnzr=5, seed=37)
        A.val = np.abs(A.val)  # no cancellation among the ~1e18 integers
        x = np.arange(1, 121, dtype=float)
        before = distributed_spmv(A, x, 2)
        A.val = A.val.view(np.int64)
        after = distributed_spmv(A, x, 2)
        np.testing.assert_allclose(after, spmv(A, x), rtol=1e-12)
        assert not np.allclose(after, before)


class TestMetadataPlanCache:
    """Metadata-only plans (what the simulator consumes) are cached per
    (matrix, rank count) and guarded by the index arrays alone."""

    @pytest.mark.parametrize("witness", ["active", "crc32"])
    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_only_structural_mutations_rebuild(self, case, witness, mutation_bases, monkeypatch):
        if witness == "crc32":
            monkeypatch.setattr(native, "_checksum", None)
        base, mutate = MUTATIONS[case]
        A = mutation_bases[base].copy()
        before = (A.row_ptr.copy(), A.col_idx.copy())
        stale = cached_halo_plan(A, 2, with_matrices=False)
        assert cached_halo_plan(A, 2, with_matrices=False) is stale
        mutate(A)
        changed = any(
            a.dtype != b.dtype or a.tobytes() != b.tobytes()
            for a, b in zip(before, (A.row_ptr, A.col_idx))
        )
        assert changed == (case in STRUCTURAL)
        fresh = cached_halo_plan(A, 2, with_matrices=False)
        if case not in STRUCTURAL:
            assert fresh is stale  # a value-only mutation keeps the plan
            return
        assert fresh is not stale
        want = build_halo_plan(A, partition_nnz_balanced(A, 2), with_matrices=False)
        _assert_plans_identical(fresh, want)

    def test_sweep_builds_one_plan_per_rank_count(self, hmep_tiny, monkeypatch):
        built = []
        real_build = halo_mod.build_halo_plan

        def counting_build(A, partition, **kw):
            built.append(partition.nparts)
            return real_build(A, partition, **kw)

        monkeypatch.setattr(halo_mod, "_PLAN_CACHE", {})
        monkeypatch.setattr(halo_mod, "build_halo_plan", counting_build)
        A = hmep_tiny.copy()

        def sweep():
            return [
                simulate_spmvm(A, westmere_cluster(nodes), scheme=scheme, kappa=2.5).total_seconds
                for nodes in (1, 2, 4)
                for scheme in ("no_overlap", "naive_overlap", "task_mode")
            ]

        first = sweep()
        assert sorted(built) == [2, 4, 8]  # three schemes share each build
        assert sweep() == first
        assert len(built) == 3  # the second pass builds nothing

    def test_simulation_after_column_mutation_matches_fresh_plan(self):
        A = random_banded(400, halfwidth=10, nnzr=5, seed=2)
        cluster = westmere_cluster(2)
        kw = dict(mode="per-ld", scheme="task_mode", kappa=2.5)
        before = simulate_spmvm(A, cluster, **kw)
        A.col_idx[0] = A.ncols - 1  # rank 0 now needs the last rank's element
        after = simulate_spmvm(A, cluster, **kw)
        fresh = simulate_from_plan(
            build_halo_plan(A, partition_nnz_balanced(A, before.n_ranks), with_matrices=False),
            cluster, **kw,
        )
        assert after.comm_bytes_per_mvm != before.comm_bytes_per_mvm
        for field in ("total_seconds", "comm_bytes_per_mvm", "messages_per_mvm", "bytes_transferred"):
            assert float(getattr(after, field)).hex() == float(getattr(fresh, field)).hex()
