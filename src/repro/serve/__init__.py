"""repro.serve: build-once, serve-many distributed spMVM.

The paper's observation that the communication bookkeeping "needs to be
done only once" (Sect. 3.1), taken to its production conclusion: a
:class:`BuiltModel` captures *all* one-time work — partition, halo
plan, comm plan, compiled sweep program —
behind one constructor (:func:`build_model`; a ``repro-model/2`` file
stores its inputs, not its outputs), and a
:class:`SolverService` keeps a persistent mpilite worker pool alive
across requests, streaming right-hand sides through an async
``submit``/``poll``/``gather`` API with automatic spmm coalescing of
concurrent requests.  :func:`run_request_stream` is the ``repro serve``
driver.  See DESIGN.md §12.
"""

from repro.serve.driver import StreamReport, run_request_stream
from repro.serve.model import MODEL_SCHEMA, BuiltModel, build_model
from repro.serve.service import (
    ServeRequest,
    ServiceClosedError,
    ServiceError,
    SolverService,
)

__all__ = [
    "MODEL_SCHEMA",
    "BuiltModel",
    "build_model",
    "ServeRequest",
    "ServiceError",
    "ServiceClosedError",
    "SolverService",
    "StreamReport",
    "run_request_stream",
]
