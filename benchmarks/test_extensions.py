"""Extension studies beyond the paper's evaluation section.

1. **Load balancing** — the paper's announced future work ("a more
   complete investigation of load balancing effects"), quantifying the
   computation/communication balancing tension of footnote 2.
2. **Symmetric CRS storage** — the optimization the paper names but
   forgoes (Sect. 1.3.1): traffic nearly halves, but the scatter updates
   make the kernel unfit for straightforward shared-memory threading.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.experiments import run_load_balance
from repro.model import code_balance
from repro.sparse import SymmetricCSR, spmv, spmv_symmetric, symmetric_code_balance
from repro.util import Table


@pytest.fixture(scope="module")
def balance():
    return run_load_balance(scale="medium")


def test_load_balance_report(balance):
    write_report("extension_load_balance", balance.render())


def test_nnz_balancing_balances_computation(balance):
    for matrix in ("HMeP", "sAMG"):
        for nodes in (4, 8):
            nnz_row = balance.get(matrix, "nnz", nodes)
            rows_row = balance.get(matrix, "rows", nodes)
            # balanced-nonzeros keeps compute imbalance tiny
            assert nnz_row.nnz_imbalance < 1.05
            assert nnz_row.nnz_imbalance <= rows_row.nnz_imbalance + 1e-9


def test_no_strategy_balances_communication_too(balance):
    # the footnote-2 tension: even perfect nnz balance leaves the
    # communication skewed (boundary ranks talk less)
    row = balance.get("HMeP", "nnz", 8)
    assert row.comm_imbalance > 1.05


def test_symmetric_storage_study(hmep_matrix):
    sym = SymmetricCSR.from_csr(hmep_matrix, check=False)
    x = np.random.default_rng(0).standard_normal(hmep_matrix.ncols)
    assert np.allclose(spmv_symmetric(sym, x), spmv(hmep_matrix, x), atol=1e-9)
    mem_ratio = sym.memory_bytes() / hmep_matrix.memory_bytes()
    balance_ratio = symmetric_code_balance(hmep_matrix.nnzr, 2.5) / code_balance(
        hmep_matrix.nnzr, 2.5
    )
    t = Table(["quantity", "value"], title="extension: symmetric CRS storage (Sect. 1.3.1)",
              float_fmt=".3f")
    t.add_row(["matrix memory ratio (upper/full)", mem_ratio])
    t.add_row(["code balance ratio (Eq. 1 extended)", balance_ratio])
    t.add_row(["implied speed-up at fixed bandwidth", 1.0 / balance_ratio])
    write_report("extension_symmetric_storage", t.render())
    # "the data transfer volume is then reduced by almost a factor of two"
    assert 0.5 < mem_ratio < 0.62
    assert 0.5 < balance_ratio < 0.75
