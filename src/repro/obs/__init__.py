"""Observability exporters for the discrete-event simulator.

The simulator records two data sets (see
:class:`repro.frame.trace.TraceRecorder`): one *span* per executed op
(what each actor did, and when) and the *MPI instants* (message
lifecycle and progress-gate transitions).  Every reader here is a view
of those two lists, turning them into artefacts a human or a test can
consume:

* :mod:`repro.obs.chrome` — Chrome/Perfetto ``trace_event`` JSON
  (load the file in ``chrome://tracing`` or https://ui.perfetto.dev),
* :mod:`repro.obs.metrics` — one flat ``{name: value}`` dict per
  simulation run (makespan, GFlop/s, instant counts, barrier spans,
  per-resource-class utilization) and the per-op costs,
* :mod:`repro.obs.summary` — the per-op summary table,
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
    "phase_summary",
    "latency_summary",
    "percentile",
    "throughput",
]
