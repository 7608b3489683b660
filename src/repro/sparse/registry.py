"""Pluggable kernel registry: sparse formats and their spMVM kernels.

The block-kernel slowdown fixed in :mod:`repro.sparse.spmm` showed that
kernel choice is a measurable, regression-prone degree of freedom — so
it is now an explicit, *benchmarked* one.  A :class:`KernelSpec` bundles
a storage format (a build function from the canonical CSR matrix) with
the four kernels every caller needs (``spmv``/``spmv_add`` and the
block ``spmm``/``spmm_add``), under a ``"format/variant"`` name:

* ``"csr/reference"`` (default) — the paper's CRS kernels, bit-exact
  per column between ``spmv`` and ``spmm`` (``exact=True``).  Its row
  sums have two executors that compute the same bits — the numpy
  definition and the compiled loop of :mod:`repro.sparse.native` — and
  that is *not* a registry axis: a key selects a result class, and
  there is only one here;
* ``"sell/matmul"`` — SELL-C-sigma with batched-``matmul`` block
  kernels (:mod:`repro.sparse.sell`), tolerance-equivalent
  (``exact=False``: vectorised reductions sum in a different order).
  It beat the numpy CSR kernels per column; it does not beat the
  compiled executor (``repro bench``: 0.5x at k = 1, 1.0-1.2x at
  k = 4/16 of one CSR spmv per column, where CSR's block kernel reads
  2.1-4.3x).  It stays as the registry's tolerance-class example;
  whether it stays at all is a later simplicity PR's question.

Lookup accepts a bare format (``"sell"`` resolves that format's default
variant), a fully qualified ``"sell/matmul"``, or a spec instance.  The
distributed engine (``repro.core.spmvm``), the sweep-IR op handlers
(``repro.program.exec``) and the benchmark suite (``repro.bench.suite``)
all dispatch through this registry, so a newly registered format is
exercised end to end — and benchmarked against the code-balance model —
without touching any call site.

Format conversion happens once per matrix via :func:`build_operator`,
which memoises the built operator per (kernel, matrix) with weak
references — dropping the CSR matrix frees the converted copy too.  A
kernel whose operator *is* the CSR matrix (``csr/reference``) converts
nothing, so it is neither memoised nor fingerprinted.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.sell import (
    SellMatrix,
    sell_spmm,
    sell_spmm_add,
    sell_spmv,
    sell_spmv_add,
)
from repro.sparse.spmm import spmm as csr_spmm
from repro.sparse.spmm import spmm_add as csr_spmm_add
from repro.sparse.spmv import spmv as csr_spmv
from repro.sparse.spmv import spmv_add as csr_spmv_add

__all__ = [
    "DEFAULT_KERNEL",
    "KernelSpec",
    "available_kernels",
    "build_operator",
    "get_kernel",
    "register_kernel",
    "unregister_kernel",
]

#: Name resolved when callers do not ask for a specific kernel.
DEFAULT_KERNEL = "csr"


@dataclass(frozen=True)
class KernelSpec:
    """A sparse format plus the kernels that operate on it.

    ``build`` converts the canonical :class:`CSRMatrix` into the
    format's operator object; the four kernels take that operator in
    place of the CSR matrix, with the same signatures as the CSR
    kernels.  ``exact`` records whether each result column is
    *bit-identical* to the CRS reference (the equivalence bar the
    registry's tests and the bench correctness gate apply; non-exact
    kernels are held to a relative tolerance instead).
    """

    format: str
    variant: str
    description: str
    exact: bool
    build: Callable[[CSRMatrix], object]
    spmv: Callable[..., np.ndarray]
    spmv_add: Callable[..., np.ndarray]
    spmm: Callable[..., np.ndarray]
    spmm_add: Callable[..., np.ndarray]

    @property
    def key(self) -> str:
        return f"{self.format}/{self.variant}"


_REGISTRY: dict[str, KernelSpec] = {}
_DEFAULT_VARIANT: dict[str, str] = {}
#: Per-kernel memo of built operators as ``{matrix: (fingerprint, op)}``,
#: weak so matrices can be collected.  The fingerprint covers structure
#: *and* values: converted operators (e.g. SELL) copy both, so an
#: in-place update of either must invalidate the cached conversion.
_OPERATOR_CACHE: dict[
    str, "weakref.WeakKeyDictionary[CSRMatrix, tuple[tuple, object]]"
] = {}


def register_kernel(spec: KernelSpec, *, format_default: bool = False) -> KernelSpec:
    """Add *spec* to the registry under ``spec.key``.

    The first variant registered for a format becomes the format's
    default; pass ``format_default=True`` to take over that role.
    Re-registering an existing key raises — unregister it first.
    """
    if spec.key in _REGISTRY:
        raise ValueError(f"kernel {spec.key!r} is already registered")
    _REGISTRY[spec.key] = spec
    if format_default or spec.format not in _DEFAULT_VARIANT:
        _DEFAULT_VARIANT[spec.format] = spec.variant
    return spec


def unregister_kernel(key: str) -> None:
    """Remove a registered kernel (e.g. one added by a test or plugin).

    The built-in default ``"csr/reference"`` cannot be removed: every
    caller that does not opt into a format depends on it, and it is the
    reference all other kernels are validated against.
    """
    spec = _REGISTRY.get(key)
    if spec is None:
        raise ValueError(f"unknown kernel {key!r}")
    if spec.key == "csr/reference":
        raise ValueError("the csr/reference kernel cannot be unregistered")
    del _REGISTRY[key]
    _OPERATOR_CACHE.pop(key, None)
    if _DEFAULT_VARIANT.get(spec.format) == spec.variant:
        remaining = [s.variant for s in _REGISTRY.values() if s.format == spec.format]
        if remaining:
            _DEFAULT_VARIANT[spec.format] = remaining[0]
        else:
            del _DEFAULT_VARIANT[spec.format]


def get_kernel(name: str | KernelSpec | None = None) -> KernelSpec:
    """Resolve *name* to a :class:`KernelSpec`.

    Accepts ``None`` (the default kernel), a bare format name
    (``"sell"`` — resolves the format's default variant), a qualified
    ``"format/variant"`` key, or a spec instance (returned unchanged,
    registered or not).
    """
    if isinstance(name, KernelSpec):
        return name
    if name is None:
        name = DEFAULT_KERNEL
    if "/" not in name:
        variant = _DEFAULT_VARIANT.get(name)
        if variant is None:
            raise ValueError(
                f"unknown kernel format {name!r}; available: {available_kernels()}"
            )
        name = f"{name}/{variant}"
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown kernel {name!r}; available: {available_kernels()}")
    return spec


def available_kernels() -> list[str]:
    """Sorted ``"format/variant"`` keys of every registered kernel."""
    return sorted(_REGISTRY)


def build_operator(spec: str | KernelSpec, A: CSRMatrix) -> object:
    """Convert *A* into *spec*'s operator format, memoised per matrix.

    The same (kernel, matrix) pair returns the same operator object, so
    format conversion is paid once per matrix no matter how many engines
    or benchmarks share it.  Entries are weak (collecting the CSR matrix
    collects the converted operator) and guarded by the matrix's
    :meth:`~repro.sparse.csr.CSRMatrix.content_fingerprint`: mutating
    the matrix in place — structure *or* values — rebuilds the operator
    instead of serving a stale converted copy.

    A ``build`` that returns its argument (``csr/reference``) made no
    copy that could go stale: the matrix is returned as is, without the
    checksum pass the guard costs.
    """
    spec = get_kernel(spec)
    cache = _OPERATOR_CACHE.setdefault(spec.key, weakref.WeakKeyDictionary())
    hit = cache.get(A)
    if hit is None:
        op = spec.build(A)
        if op is not A:
            cache[A] = (A.content_fingerprint(), op)
        return op
    fingerprint = A.content_fingerprint()
    if hit[0] != fingerprint:
        hit = cache[A] = (fingerprint, spec.build(A))
    return hit[1]


register_kernel(
    KernelSpec(
        format="csr",
        variant="reference",
        description=(
            "CRS segmented-sum kernels; spmm is bit-identical per column "
            "to spmv (the equivalence reference for every other kernel)"
        ),
        exact=True,
        build=lambda A: A,
        spmv=csr_spmv,
        spmv_add=csr_spmv_add,
        spmm=csr_spmm,
        spmm_add=csr_spmm_add,
    )
)

register_kernel(
    KernelSpec(
        format="sell",
        variant="matmul",
        description=(
            "SELL-C-sigma (sorted, chunked, padded) with batched-matmul "
            "block kernels; tolerance-equivalent, requires a finite RHS"
        ),
        exact=False,
        build=lambda A: SellMatrix.from_csr(A),
        spmv=sell_spmv,
        spmv_add=sell_spmv_add,
        spmm=sell_spmm,
        spmm_add=sell_spmm_add,
    )
)
