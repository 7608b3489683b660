"""Discrete-event simulation kernel: events, processes, shared resources, traces."""

from repro.frame.core import Process, Simulator
from repro.frame.events import SimEvent, all_of
from repro.frame.resources import Flow, FlowNetwork, ResourceStats
from repro.frame.trace import Span, TraceEvent, TraceRecorder

__all__ = [
    "Simulator",
    "Process",
    "SimEvent",
    "all_of",
    "Flow",
    "FlowNetwork",
    "ResourceStats",
    "Span",
    "TraceEvent",
    "TraceRecorder",
]
