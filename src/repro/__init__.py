"""repro — hybrid MPI+OpenMP sparse matrix-vector multiplication, reproduced.

A production-quality Python reproduction of

    G. Schubert, G. Hager, H. Fehske, G. Wellein,
    "Parallel sparse matrix-vector multiplication as a test case for
    hybrid MPI+OpenMP programming", IPPS 2011 (arXiv:1101.0091).

Subpackages
-----------
``repro.sparse``       CRS/CSR storage, spMVM kernels, reordering, partitioning
``repro.matrices``     Holstein-Hubbard and sAMG-like matrix generators
``repro.model``        code-balance node performance model (Eqs. 1-2), STREAM
``repro.machine``      multicore node topologies and network models
``repro.frame``        discrete-event simulation kernel
``repro.smpi``         simulated MPI with configurable progress semantics
``repro.mpilite``      real, runnable MPI-like message-passing runtime
``repro.core``         the paper's contribution: hybrid spMVM schemes
``repro.solvers``      Lanczos / CG / KPM / Chebyshev / AMG on top of spMVM
``repro.experiments``  per-figure/table reproduction harnesses
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
