"""Shared calibration constants for the paper-reproduction experiments.

Everything that ties the reduced-scale reproduction to the paper's
full-scale setup is collected here, with the reasoning:

* ``KAPPA`` — the RHS cache-reload parameter per matrix on the Intel
  systems.  HMeP = 2.5 and HMEp = 3.79 are *measured values quoted in
  the paper* (Sect. 2).  sAMG's κ is not printed; its banded, low-Nnzr
  structure reloads little of the RHS, and κ = 1.0 makes the single-node
  model consistent with the ~120 GFlop/s @ 32 nodes of Fig. 6.
* ``REDUCED_EAGER_THRESHOLD`` — the experiments run matrices ~15x
  smaller than the paper's (a 6.2M-row Hamiltonian needs ~35 GB to
  assemble here).  Halo messages shrink proportionally: the paper's
  multi-hundred-kB rendezvous messages become a few kB, which a real
  MPI would send eagerly, hiding the progress problem the paper is
  about.  Scaling the library's eager threshold by the same factor
  (16 KiB → 1 KiB) restores the correct protocol regime — a documented
  substitution, not a tuning knob.
* ``PAPER_FIG3A`` etc. — the numbers printed in the paper, used for
  side-by-side "paper vs ours" tables.
"""

from __future__ import annotations

__all__ = [
    "KAPPA",
    "REDUCED_EAGER_THRESHOLD",
    "PAPER_FIG3A_PERF",
    "PAPER_FIG3A_NODE_PERF",
    "PAPER_STREAM_SOCKET",
    "PAPER_SPMV_BANDWIDTH",
    "PAPER_KAPPA_HMEP",
    "PAPER_KAPPA_HMEP_BAD",
    "PAPER_NNZR",
    "DEFAULT_NODE_COUNTS",
    "TORUS_MESSAGE_OVERHEAD",
    "kappa_for",
]

#: Cache-reload parameter κ (bytes per inner-loop iteration) per matrix.
KAPPA: dict[str, float] = {"HMeP": 2.5, "HMEp": 3.79, "sAMG": 1.0}

#: Eager/rendezvous cutoff used with the reduced-scale matrices (bytes).
REDUCED_EAGER_THRESHOLD = 1024

#: Fig. 3(a) annotations: Nehalem EP spMVM GFlop/s at 1..4 cores.
PAPER_FIG3A_PERF = (0.91, 1.50, 1.95, 2.25)

#: Fig. 3(a): full Nehalem node (2 sockets).
PAPER_FIG3A_NODE_PERF = 4.29

#: Sect. 2: STREAM triad on one Nehalem socket (GB/s).
PAPER_STREAM_SOCKET = 21.2

#: Sect. 2: bandwidth drawn by the spMVM on one socket (GB/s).
PAPER_SPMV_BANDWIDTH = 18.1

#: Sect. 2: measured κ for the two Hamiltonian orderings.
PAPER_KAPPA_HMEP = 2.5
PAPER_KAPPA_HMEP_BAD = 3.79

#: Average nonzeros per row of the paper's matrices.
PAPER_NNZR = {"HMeP": 15.0, "HMEp": 15.0, "sAMG": 7.0}

#: Node counts of the strong-scaling figures.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 24, 32)

#: Per-message NIC occupancy on the loaded Gemini torus (seconds).
#: The communication-plan experiments run the torus with the NIC's
#: injection-rate limit switched on (``message_overhead``, see
#: :class:`repro.machine.network.Interconnect`): a Gemini NIC sustains
#: roughly 1-2 M MPI messages/s, and under the same production load
#: that motivates ``CRAY_BACKGROUND_LOAD`` (0.35) the effective per-message
#: cost sits at the slow end.  2 us/message reproduces the pure-MPI
#: message-rate wall the node-aware plan is designed to remove; the
#: default presets keep 0 (bytes-only model) so every other experiment
#: is unchanged.
TORUS_MESSAGE_OVERHEAD = 2.0e-6


def kappa_for(matrix_name: str) -> float:
    """κ for a registry matrix name (0 for unknown matrices)."""
    return KAPPA.get(matrix_name, 0.0)
