"""mpilite: a real, runnable MPI-like runtime over in-process threads.

Functional twin of the simulated MPI (:mod:`repro.smpi`): the
distributed spMVM executes on mpilite to verify numerics; the simulator
predicts its timing on the paper's machines.
"""

from repro.mpilite.comm import CollectiveState, Comm, Request
from repro.mpilite.procs import ProcComm, run_spmd_processes
from repro.mpilite.router import ANY_SOURCE, ANY_TAG, Router, WorldAbortedError
from repro.mpilite.world import PerRank, World, run_spmd

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "Request",
    "CollectiveState",
    "Router",
    "WorldAbortedError",
    "run_spmd",
    "World",
    "PerRank",
    "ProcComm",
    "run_spmd_processes",
]
