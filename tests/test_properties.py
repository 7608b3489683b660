"""Property-based tests (hypothesis) on the core data structures.

Invariants exercised on randomly generated inputs:

* COO→CSR conversion preserves the dense matrix and CSR invariants,
* spMVM agrees with the dense product for arbitrary sparsity,
* partitions cover all rows disjointly and ownership is consistent,
* halo plans are globally consistent (send volume = recv volume, the
  split reproduces the matvec) for any matrix and any partition,
* (R)CM always yields a permutation,
* the code balance is monotone in κ and decreasing in Nnzr,
* max-min fair rates conserve work in the flow network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_halo_plan
from repro.model import code_balance, code_balance_split
from repro.sparse import (
    COOMatrix,
    cuthill_mckee,
    partition_nnz_balanced,
    partition_rows_balanced,
    spmv,
)

# keep the generated problems small: the value is in the variety, not size
_DIM = st.integers(min_value=1, max_value=30)
_SEED = st.integers(min_value=0, max_value=2**31 - 1)


def _random_coo(nrows: int, ncols: int, nnz: int, seed: int) -> COOMatrix:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, nnz)
    cols = rng.integers(0, ncols, nnz)
    vals = rng.standard_normal(nnz)
    return COOMatrix(nrows, ncols, rows, cols, vals)


@settings(max_examples=40, deadline=None)
@given(nrows=_DIM, ncols=_DIM, nnz=st.integers(0, 120), seed=_SEED)
def test_coo_to_csr_preserves_matrix(nrows, ncols, nnz, seed):
    coo = _random_coo(nrows, ncols, nnz, seed)
    csr = coo.to_csr()
    assert np.allclose(csr.to_dense(), coo.to_dense())
    # CSR invariants
    assert csr.row_ptr[0] == 0
    assert csr.row_ptr[-1] == csr.nnz
    assert np.all(np.diff(csr.row_ptr) >= 0)
    for i in range(csr.nrows):
        cols = csr.col_idx[csr.row_ptr[i] : csr.row_ptr[i + 1]]
        assert np.all(np.diff(cols) > 0)


@settings(max_examples=40, deadline=None)
@given(n=_DIM, nnz=st.integers(0, 150), seed=_SEED)
def test_spmv_matches_dense_product(n, nnz, seed):
    csr = _random_coo(n, n, nnz, seed).to_csr()
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    assert np.allclose(spmv(csr, x), csr.to_dense() @ x, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(nrows=st.integers(0, 200), nparts=st.integers(1, 17))
def test_row_partition_covers_disjointly(nrows, nparts):
    p = partition_rows_balanced(nrows, nparts)
    sizes = p.sizes()
    assert int(sizes.sum()) == nrows
    assert np.all(sizes >= 0)
    assert int(sizes.max()) - int(sizes.min()) <= 1
    if nrows:
        owners = p.owner_of(np.arange(nrows))
        for q in range(nparts):
            lo, hi = p.bounds(q)
            assert np.all(owners[lo:hi] == q)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 25), nnz=st.integers(1, 150), nparts=st.integers(1, 40),
    surplus=st.integers(0, 3), seed=_SEED,
)
def test_nnz_partition_and_halo_consistency(n, nnz, nparts, surplus, seed):
    # nparts may exceed nrows: surplus parts must come out empty, not crash
    A = _random_coo(n, n, nnz, seed).to_csr()
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal(n)
    ref = A.to_dense() @ x
    for nranks in (nparts, n + surplus):
        part = partition_nnz_balanced(A, nranks)
        plan = build_halo_plan(A, part, with_matrices=True)
        # global consistency
        assert sum(r.send_bytes for r in plan.ranks) == sum(r.recv_bytes for r in plan.ranks)
        assert sum(r.nnz for r in plan.ranks) == A.nnz
        # every send list is the all-pairs inversion of the halos: for each
        # receiver in ascending order, the sender's columns it needs
        for rh in plan.ranks:
            want = [
                (q.rank, cols - rh.row_lo)
                for q in plan.ranks
                for cols in [q.halo_columns[part.owner_of(q.halo_columns) == rh.rank]]
                if cols.size
            ]
            assert rh.send_to == [(q, cols.size) for q, cols in want]
            assert list(rh.send_indices) == [q for q, _ in want]
            for q, cols in want:
                assert np.array_equal(rh.send_indices[q], cols)
        # the split reproduces the matvec on every rank
        for rh in plan.ranks:
            xl = x[rh.row_lo : rh.row_hi]
            xh = x[rh.halo_columns]
            y = rh.A_local @ xl + rh.A_remote @ xh
            assert np.allclose(y, ref[rh.row_lo : rh.row_hi], atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 25), nnz=st.integers(0, 100), seed=_SEED)
def test_cuthill_mckee_is_always_a_permutation(n, nnz, seed):
    A = _random_coo(n, n, nnz, seed).to_csr()
    perm = cuthill_mckee(A)
    assert sorted(perm.tolist()) == list(range(n))


@settings(max_examples=60, deadline=None)
@given(
    nnzr=st.floats(min_value=1.0, max_value=100.0),
    k1=st.floats(min_value=0.0, max_value=10.0),
    k2=st.floats(min_value=0.0, max_value=10.0),
)
def test_code_balance_monotonicity(nnzr, k1, k2):
    lo, hi = sorted((k1, k2))
    assert code_balance(nnzr, lo) <= code_balance(nnzr, hi)
    # split kernel always costs at least as much
    assert code_balance_split(nnzr, lo) > code_balance(nnzr, lo)
    # balance decreases with denser rows
    assert code_balance(nnzr + 1.0, lo) < code_balance(nnzr, lo)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=12),
    cap=st.floats(min_value=0.5, max_value=50.0),
)
def test_flow_network_conserves_work(sizes, cap):
    from repro.frame import FlowNetwork, Simulator

    sim = Simulator()
    net = FlowNetwork(sim, {"r": lambda w: cap})
    finish = []
    for s in sizes:
        f = net.start_flow(s, {"r": 1.0})
        f.done.add_callback(lambda _f: finish.append(sim.now))
    sim.run()
    assert len(finish) == len(sizes)
    total = sum(sizes)
    # the single shared resource processes exactly total/cap seconds of work
    assert max(finish) == pytest.approx(total / cap, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40), seed=_SEED)
def test_trace_gantt_never_crashes(n, seed):
    from repro.frame import TraceRecorder

    rng = np.random.default_rng(seed)
    tr = TraceRecorder()
    for k in range(n):
        t0 = float(rng.uniform(0, 10))
        tr.record(f"actor{k % 3}", f"label{k % 4}", t0, t0 + float(rng.uniform(0, 5)))
    out = tr.render_gantt(width=50)
    assert isinstance(out, str) and out
