"""Observability exporters for the discrete-event simulator.

The simulator records two complementary data sets (see
:class:`repro.frame.trace.TraceRecorder`): coarse *intervals* (what each
actor did, and when) and a structured *event stream* (message lifecycle,
compute-phase boundaries, barrier waits, MPI progress-gate transitions).
This package turns them into artefacts a human or a test can consume:

* :mod:`repro.obs.chrome` — Chrome/Perfetto ``trace_event`` JSON
  (load the file in ``chrome://tracing`` or https://ui.perfetto.dev),
* :mod:`repro.obs.metrics` — one flat ``{name: value}`` dict per
  simulation run (makespan, GFlop/s, event counts, per-resource-class
  utilization),
* :mod:`repro.obs.summary` — a per-phase ASCII summary table,
* :mod:`repro.obs.analysis` — transfer-segment reconstruction: how many
  bytes each rendezvous message moved inside any time window, the basis
  of the Fig. 4 overlap validation,
* :mod:`repro.obs.latency` — request-latency percentile summaries and
  throughput rates for the solver service (:mod:`repro.serve`).
"""

from repro.obs.analysis import (
    TransferSegment,
    bytes_moved_during,
    merge_windows,
    overlap_bytes_with_phase,
    transfer_segments,
)
from repro.obs.chrome import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.obs.latency import latency_summary, percentile, throughput
from repro.obs.metrics import (
    comm_phase_messages,
    per_op_costs,
    render_op_costs,
    simulation_metrics,
)
from repro.obs.summary import phase_summary

__all__ = [
    "TransferSegment",
    "transfer_segments",
    "bytes_moved_during",
    "merge_windows",
    "overlap_bytes_with_phase",
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "simulation_metrics",
    "comm_phase_messages",
    "per_op_costs",
    "render_op_costs",
    "phase_summary",
    "latency_summary",
    "percentile",
    "throughput",
]
