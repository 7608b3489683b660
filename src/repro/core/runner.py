"""Driving a full spMVM simulation: cluster + matrix + mode + scheme → GFlop/s.

This is the top-level entry the experiments use.  It

1. places MPI ranks on the cluster per the hybrid mode (per core / per
   LD / per node, Sect. 4),
2. partitions the matrix over the ranks with balanced nonzeros
   (footnote 2) and performs the halo bookkeeping — once per (matrix,
   rank count): :func:`simulate_spmvm` takes the metadata plan from
   :func:`~repro.core.halo.cached_halo_plan`, so every scheme and every
   later pass at that rank count reuses it,
3. instantiates the flow network (memory buses with their saturation
   curves + all interconnect resources) and the simulated MPI,
4. runs every rank's scheme process for a few iterations and reports
   wall time and aggregate GFlop/s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.plan import PLAN_KINDS, build_comm_plan
from repro.comm.sim import SimExchange
from repro.core.costs import phase_costs
from repro.core.halo import HaloPlan, cached_halo_plan
from repro.core.schemes import RankContext, rank_process
from repro.frame.core import Simulator
from repro.frame.resources import FlowNetwork, ResourceStats
from repro.frame.trace import TraceRecorder
from repro.machine.affinity import plan_placement, ranks_for_mode
from repro.machine.topology import ClusterSpec
from repro.program.build import PROGRAM_SCHEMES
from repro.smpi.api import MPIConfig, SimMPI
from repro.sparse.csr import CSRMatrix
from repro.util import check_in, check_positive_int

__all__ = ["SimulationResult", "simulate_spmvm", "simulate_from_plan"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated spMVM configuration."""

    scheme: str
    mode: str
    n_nodes: int
    n_ranks: int
    iterations: int
    total_seconds: float
    nnz: int
    comm_bytes_per_mvm: float
    messages_per_mvm: float
    bytes_transferred: float = 0.0  # actually moved through the simulated MPI
    block_k: int = 1  # right-hand sides per sweep (batched multi-RHS)
    comm_plan: str = "direct"  # comm-plan kind (repro.comm)
    trace: TraceRecorder | None = None
    resource_stats: dict[object, ResourceStats] | None = None

    @property
    def seconds_per_sweep(self) -> float:
        """Wall time of one sweep (= ``block_k`` MVMs when batched)."""
        return self.total_seconds / self.iterations

    @property
    def seconds_per_mvm(self) -> float:
        """Wall time of one MVM (a batched sweep amortises over its columns)."""
        return self.total_seconds / (self.iterations * self.block_k)

    @property
    def gflops(self) -> float:
        """Aggregate performance in GFlop/s (2 flops per nonzero per RHS)."""
        return 2.0 * self.nnz / self.seconds_per_mvm / 1e9

    def describe(self) -> str:
        """One-line summary."""
        batch = f" | k={self.block_k}" if self.block_k > 1 else ""
        plan = f" | {self.comm_plan}" if self.comm_plan != "direct" else ""
        return (
            f"{self.scheme:>14} | {self.mode:>8} | {self.n_nodes:3d} nodes "
            f"({self.n_ranks:4d} ranks) | {self.gflops:7.2f} GFlop/s | "
            f"{self.seconds_per_mvm * 1e3:8.3f} ms/MVM{batch}{plan}"
        )


def _build_membus_resources(cluster: ClusterSpec) -> dict:
    resources = {}
    for n in range(cluster.n_nodes):
        for ld_idx, dom in enumerate(cluster.node.domains):
            curve = dom.spmv_curve
            resources[("membus", n, ld_idx)] = curve.value
    return resources


def simulate_from_plan(
    plan: HaloPlan,
    cluster: ClusterSpec,
    *,
    mode: str = "per-ld",
    scheme: str = "task_mode",
    kappa: float = 0.0,
    comm_thread: str | None = None,
    iterations: int = 2,
    async_progress: bool = False,
    eager_threshold: int = 16384,
    block_k: int = 1,
    comm_plan: str = "direct",
    trace: bool = False,
    op_logs: dict[int, list[str]] | None = None,
) -> SimulationResult:
    """Simulate a prepared halo plan on *cluster*.

    The plan's rank count must equal what the hybrid *mode* yields on the
    cluster.  ``comm_thread`` defaults to ``"smt"`` for task mode on SMT
    hardware (``"dedicated"`` otherwise) and ``None`` for vector modes.
    ``block_k > 1`` simulates batched multi-RHS sweeps: each iteration
    applies the operator to k right-hand sides, with one k-column halo
    message per peer (same message count, k× payload) and block-kernel
    memory traffic.  ``comm_plan`` picks the plan kind
    (:mod:`repro.comm`): ``"direct"`` replays one message per rank pair,
    ``"node-aware"`` aggregates inter-node traffic through per-node
    leader ranks (gather/forward/scatter, priced on the ``intra_*``
    resources and the NIC/torus respectively).  ``op_logs``, when given,
    collects each rank's executed sweep-op sequence (rank → signature
    tokens in issue order, all iterations) — the simulated half of the
    golden cross-backend comparison in ``tests/test_program_golden.py``.
    """
    check_in(scheme, PROGRAM_SCHEMES, "scheme")
    check_in(comm_plan, PLAN_KINDS, "comm_plan")
    check_positive_int(iterations, "iterations")
    check_positive_int(block_k, "block_k")
    if scheme == "task_mode" and comm_thread is None:
        comm_thread = "smt" if cluster.node.smt_per_core > 1 else "dedicated"
    if scheme != "task_mode":
        comm_thread = None
    placements = plan_placement(cluster, mode, comm_thread=comm_thread)
    if len(placements) != plan.nranks:
        raise ValueError(
            f"plan has {plan.nranks} ranks but mode {mode!r} on {cluster.n_nodes} "
            f"nodes yields {len(placements)}"
        )
    sim = Simulator()
    resources = dict(cluster.network.resources(cluster.n_nodes))
    resources.update(_build_membus_resources(cluster))
    net = FlowNetwork(sim, resources)
    recorder = TraceRecorder() if trace else None
    rank_node = [p.node for p in placements]
    mpi = SimMPI(
        sim,
        net,
        cluster.network,
        rank_node=rank_node,
        config=MPIConfig(eager_threshold=eager_threshold, async_progress=async_progress),
        trace=recorder,
        n_nodes=cluster.n_nodes,
    )
    cplan = build_comm_plan(plan, rank_node, kind=comm_plan)
    contexts = []
    for placement, halo in zip(placements, plan.ranks):
        script = cplan.scripts[placement.rank]
        ctx = RankContext(
            sim=sim,
            net=net,
            mpi=mpi,
            placement=placement,
            halo=halo,
            costs=phase_costs(
                halo, kappa, block_k=block_k,
                gather_elements=script.n_packed_elements,
            ),
            trace=recorder,
            block_k=block_k,
            comm=SimExchange(cplan, placement.rank),
        )
        contexts.append(ctx)
        op_log = op_logs.setdefault(placement.rank, []) if op_logs is not None else None
        sim.spawn(
            rank_process(ctx, scheme, iterations, op_log=op_log),
            name=f"rank{placement.rank}",
        )
    sim.run()
    stuck = [ctx.rank for ctx in contexts if len(ctx.finish_times) < iterations]
    if stuck:
        flows = "; ".join(
            f"{f.label} ({f.remaining:g} B left, rate {f.rate:g} B/s)" for f in net.live_flows()
        )
        raise RuntimeError(
            f"simulation stalled at t={sim.now:g} s: rank(s) {stuck} never finished "
            f"their {iterations} sweep(s); live flows: {flows or 'none'}"
        )
    total = max(ctx.finish_times[-1] for ctx in contexts)
    return SimulationResult(
        scheme=scheme,
        mode=mode,
        n_nodes=cluster.n_nodes,
        n_ranks=plan.nranks,
        iterations=iterations,
        total_seconds=total,
        nnz=plan.nnz,
        comm_bytes_per_mvm=plan.total_comm_bytes(),
        # the same halo bytes move per MVM, but a batched sweep needs
        # only 1/k of the messages — the latency amortisation
        messages_per_mvm=cplan.total_messages() / block_k,
        bytes_transferred=mpi.bytes_transferred,
        block_k=block_k,
        comm_plan=comm_plan,
        trace=recorder,
        resource_stats=net.resource_stats(),
    )


def simulate_spmvm(
    A: CSRMatrix,
    cluster: ClusterSpec,
    *,
    mode: str = "per-ld",
    scheme: str = "task_mode",
    kappa: float = 0.0,
    **kwargs,
) -> SimulationResult:
    """Partition *A* for the hybrid *mode* on *cluster* and simulate it.

    Convenience wrapper around :func:`simulate_from_plan`; see there for
    the remaining keyword arguments.  The partition balances nonzeros
    and its metadata plan is cached per (matrix, rank count); to
    simulate any other partition, build its plan and call
    :func:`simulate_from_plan`.
    """
    nranks = ranks_for_mode(cluster, mode)
    plan = cached_halo_plan(A, nranks, with_matrices=False)
    return simulate_from_plan(
        plan, cluster, mode=mode, scheme=scheme, kappa=kappa, **kwargs
    )
