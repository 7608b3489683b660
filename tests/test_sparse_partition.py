"""Row partitioners: coverage, balance, ownership queries."""

import numpy as np
import pytest

from repro.matrices import random_sparse
from repro.sparse import (
    RowPartition,
    partition_matrix,
    partition_nnz_balanced,
    partition_rows_balanced,
)


def _nnz_per_part(p, A):
    return np.diff(A.row_ptr[p.offsets])


def _imbalance(weights):
    return weights.max() / weights.mean()


def test_rows_balanced_sizes():
    p = partition_rows_balanced(10, 3)
    assert p.sizes().tolist() == [4, 3, 3]
    assert p.nrows == 10
    assert p.nparts == 3


def test_rows_balanced_more_parts_than_rows():
    p = partition_rows_balanced(2, 5)
    assert p.sizes().sum() == 2
    assert p.nparts == 5  # some parts empty


def test_nnz_balanced_beats_rows_on_skewed_matrix(rng):
    # first rows dense, rest sparse: nnz balancing must move the boundary
    import numpy as np

    from repro.sparse.coo import COOMatrix

    rows = np.concatenate([np.repeat(np.arange(10), 30), np.arange(10, 100)])
    cols = np.concatenate([np.tile(np.arange(30), 10), np.zeros(90, dtype=int)])
    m = COOMatrix(100, 100, rows, cols, np.ones(rows.size)).to_csr()
    p_rows = partition_rows_balanced(100, 4)
    p_nnz = partition_nnz_balanced(m, 4)
    imb_rows = _imbalance(_nnz_per_part(p_rows, m))
    imb_nnz = _imbalance(_nnz_per_part(p_nnz, m))
    assert imb_nnz < imb_rows
    assert imb_nnz < 1.5


def test_nnz_balanced_covers_all_rows():
    A = random_sparse(500, nnzr=5, seed=2)
    for nparts in (1, 3, 7, 16):
        p = partition_nnz_balanced(A, nparts)
        assert p.nrows == 500
        assert p.nparts == nparts
        assert int(_nnz_per_part(p, A).sum()) == A.nnz


def test_nnz_balanced_more_parts_than_rows():
    # regression: nrows < 2 with nparts > 1 used to crash broadcasting an
    # empty cuts array into offsets[1:-1]
    A = random_sparse(1, nnzr=1, seed=0)
    for nparts in (2, 3, 7):
        p = partition_nnz_balanced(A, nparts)
        assert p.nparts == nparts
        assert p.nrows == 1
        assert int(_nnz_per_part(p, A).sum()) == A.nnz
        assert p.sizes().tolist() == [1] + [0] * (nparts - 1)


def test_nnz_balanced_single_row_single_part():
    A = random_sparse(1, nnzr=1, seed=0)
    p = partition_nnz_balanced(A, 1)
    assert p.offsets.tolist() == [0, 1]


def test_nnz_balanced_empty_matrix_many_parts():
    import numpy as np

    from repro.sparse import CSRMatrix

    A = CSRMatrix(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), ncols=0)
    p = partition_nnz_balanced(A, 4)
    assert p.nparts == 4
    assert p.nrows == 0
    assert p.sizes().tolist() == [0, 0, 0, 0]


def test_owner_of():
    p = RowPartition(np.array([0, 4, 9, 12]))
    rows = np.array([0, 3, 4, 8, 11])
    assert p.owner_of(rows).tolist() == [0, 0, 1, 1, 2]
    with pytest.raises(ValueError, match="out of range"):
        p.owner_of(np.array([12]))


def test_bounds_and_size():
    p = RowPartition(np.array([0, 4, 9]))
    assert p.bounds(0) == (0, 4)
    assert p.bounds(1) == (4, 9)
    assert p.size(1) == 5
    with pytest.raises(IndexError):
        p.bounds(2)


def test_partition_matrix_strategies(random_300):
    nnz = partition_matrix(random_300, 5, strategy="nnz")
    rows = partition_matrix(random_300, 5, strategy="rows")
    assert nnz.nparts == rows.nparts == 5
    with pytest.raises(ValueError, match="strategy"):
        partition_matrix(random_300, 5, strategy="metis")
