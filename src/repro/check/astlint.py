"""Repo-invariant lint: a pluggable AST rule engine over ``src/repro``.

The static prong of the thread-analysis subsystem.  Invariants that
previously existed only as convention — hot paths allocate nothing,
everything is float64, every mutable ``SolverService`` field is touched
under ``self._lock``, compute-side op handlers never speak mpilite —
are enforced here as AST rules with file/line provenance, reported as
``ast-lint`` :class:`~repro.check.findings.Finding` records (the same
currency as every other detector, so ``repro lint`` and CI gate on
them identically).

Each rule carries its own seeded-bug fixture (:data:`RULE_FIXTURES`):
a small source snippet containing exactly the violation the rule
exists to catch.  They fire through the ``astlint-*`` entries of
:data:`repro.check.fixtures.SEED_BUGS` — a lint that cannot catch its
own seeded bug is broken, like any other detector.

Deliberate exceptions are explicit, never silent:

* allocation inside an ``if <var> is None:`` guard is the sanctioned
  lazy-init idiom (grow-once buffers);
* a line comment ``lint: allow(<rule-name>)`` waives that line, leaving
  a grep-able audit trail (used e.g. for the one amortised transpose in
  the block kernel).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.check.findings import Finding

__all__ = [
    "ALL_RULES",
    "DEFAULT_ROOT",
    "RULE_FIXTURES",
    "AstRule",
    "get_rule",
    "lint_fixture",
    "lint_source",
    "run_astlint",
]

#: The tree ``run_astlint`` walks by default: the installed ``repro`` package.
DEFAULT_ROOT = Path(__file__).resolve().parents[1]


class AstRule:
    """One lint rule: a name, a path scope, and a ``check`` over one tree.

    ``suffixes`` scopes the rule to files whose posix path ends with
    one of them (``("/service.py",)``, ``(".py",)`` for repo-wide).
    ``check`` yields findings; the engine applies the per-line waiver
    afterwards, so rules never need to know about comments.
    """

    name = ""
    description = ""
    suffixes: tuple[str, ...] = (".py",)

    def applies(self, path: str) -> bool:
        return any(path.endswith(s) for s in self.suffixes)

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            kind="ast-lint",
            message=f"{path}:{line}: [{self.name}] {message}",
            details={"rule": self.name, "path": path, "line": line},
        )


def _walk_functions(tree: ast.Module):
    """Yield every function/method definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_none_guard(test: ast.AST) -> bool:
    """Whether an ``if`` test contains an ``is None`` comparison."""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, ast.Is) for op in node.ops
        ) and any(
            isinstance(c, ast.Constant) and c.value is None for c in node.comparators
        ):
            return True
    return False


# ----------------------------------------------------------------------
# rule: hot-path-alloc
# ----------------------------------------------------------------------
class HotPathAllocRule(AstRule):
    """No temporary-producing numpy constructor calls in hot functions.

    Scoped to the per-sweep call chain: the sparse kernels, the sweep
    interpreter's op handlers, the engine's buffer plumbing, and the
    compiled exchange those delegate to.  Only explicit allocator
    *calls* are flagged (``np.empty``/``zeros``/``concatenate``/...,
    ``.copy()``, ``.astype()``) — elementwise
    temporaries are the kernels' own business and are measured by the
    bench guards instead.  Allocation under an ``is None`` guard is the
    sanctioned lazy-init idiom.
    """

    name = "hot-path-alloc"
    description = "no allocating numpy calls in per-sweep hot functions"
    suffixes = (
        "sparse/spmv.py",
        "sparse/spmm.py",
        "sparse/native.py",
        "program/exec.py",
        "core/spmvm.py",
        "comm/exec.py",
    )

    # np.asarray is deliberately absent: it is no-copy for an already-
    # float64 input, which is exactly how the kernels' validation uses it
    ALLOCATORS = frozenset({
        "empty", "zeros", "ones", "full", "arange", "linspace", "copy",
        "array", "ascontiguousarray", "asfortranarray",
        "concatenate", "stack", "vstack", "hstack", "column_stack", "tile",
        "repeat", "empty_like", "zeros_like", "ones_like", "full_like",
    })
    ALLOC_METHODS = frozenset({"copy", "astype"})
    HOT_FUNCTIONS = {
        "sparse/spmv.py": frozenset({
            "spmv", "spmv_add", "spmv_rows", "spmv_split",
            "_segmented_rowsums", "_numpy_rowsums",
        }),
        "sparse/spmm.py": frozenset({
            "spmm", "spmm_add", "spmm_rows",
            "_segmented_block_rowsums", "_numpy_block_rowsums",
        }),
        "sparse/native.py": frozenset({"rowsums", "_address"}),
        "program/exec.py": frozenset({
            "_post_recvs", "_pack", "_post_sends", "_waitall",
            "_local_spmvm", "_remote_spmvm", "_full_spmvm",
            "execute_sweep", "_check_single_sweep", "_issue", "_barrier_main",
            # a COMM_THREAD region's hand-off, completion wait and reap
            "_hand_off", "_reap_comm_thread", "run", "hand_off", "wait",
        }),
        "core/spmvm.py": frozenset({
            "sweep_buffers", "post_halo_receives",
            "fill_send_buffers", "send_buffers", "complete_halo_receives",
            "halo_view", "team_thread",
        }),
        "comm/exec.py": frozenset({
            "post_receives", "pack", "send", "finish", "wait",
        }),
    }

    def _hot_names(self, path: str) -> frozenset[str]:
        for suffix, names in self.HOT_FUNCTIONS.items():
            if path.endswith(suffix):
                return names
        return frozenset()

    def _alloc_message(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and func.attr in self.ALLOCATORS
            ):
                return f"np.{func.attr}(...) allocates a temporary"
            if func.attr in self.ALLOC_METHODS:
                return f".{func.attr}() allocates a copy"
        return None

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        hot = self._hot_names(path)
        findings: list[Finding] = []

        def visit(node: ast.AST, fn: str, allowed: bool) -> None:
            if isinstance(node, ast.If):
                allowed = allowed or _is_none_guard(node.test)
            elif isinstance(node, ast.Call):
                msg = self._alloc_message(node)
                if msg is not None and not allowed:
                    findings.append(self.finding(
                        path, node,
                        f"{msg} inside hot function {fn}() — preallocate and "
                        f"reuse (out=), or lazy-init behind an `is None` guard",
                    ))
            for child in ast.iter_child_nodes(node):
                visit(child, fn, allowed)

        for fn in _walk_functions(tree):
            if fn.name in hot:
                for stmt in fn.body:
                    visit(stmt, fn.name, False)
        return findings


# ----------------------------------------------------------------------
# rule: float64-discipline
# ----------------------------------------------------------------------
class Float64Rule(AstRule):
    """Every numeric buffer is float64 (the paper's precision, repo-wide).

    The kernels, the exchange, the model files and the simulator all
    assume 8-byte values (``RHS_BYTES``/``VAL_BYTES`` accounting, the
    bit-identity contracts); a stray float32 buffer would silently
    corrupt both the numerics and the traffic model.  Flags reduced-
    precision numpy dtype attributes and ``dtype="float32"``-style
    string arguments.
    """

    name = "float64-discipline"
    description = "no reduced-precision numpy dtypes anywhere in repro"
    suffixes = (".py",)

    BAD_ATTRS = frozenset({
        "float32", "float16", "half", "single", "longdouble", "complex64",
    })
    BAD_STRINGS = frozenset({
        "float32", "float16", "f4", "f2", "complex64", "c8", "longdouble",
    })

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self.BAD_ATTRS
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                findings.append(self.finding(
                    path, node,
                    f"np.{node.attr} breaks the float64-only discipline the "
                    f"traffic model and bit-identity contracts assume",
                ))
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                v = node.value
                if isinstance(v, ast.Constant) and v.value in self.BAD_STRINGS:
                    findings.append(self.finding(
                        path, v,
                        f"dtype={v.value!r} breaks the float64-only discipline",
                    ))
        return findings


# ----------------------------------------------------------------------
# rule: lock-discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(AstRule):
    """Every mutable ``SolverService`` field is touched under ``self._lock``.

    Lexical containment check over ``serve/service.py``: any
    ``self.<guarded>`` access outside a ``with self._lock:`` block is a
    finding.  ``__init__`` (no concurrency yet) and ``*_locked``
    methods (called only with the lock held, by convention enforced in
    review and at runtime by the thread sanitizer) are exempt.
    """

    name = "lock-discipline"
    description = "SolverService mutable state only under `with self._lock`"
    suffixes = ("serve/service.py",)

    GUARDED = frozenset({
        "_pending", "_state", "_hold", "_next_id", "_seq", "_batch_widths",
        "_requests_served", "_columns_served", "_fault", "_inflight",
        "_fail_reason",
    })

    @staticmethod
    def _is_lock_cm(expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Attribute)
            and expr.attr == "_lock"
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, fn: str, locked: bool) -> None:
            if isinstance(node, ast.With):
                locked = locked or any(
                    self._is_lock_cm(item.context_expr) for item in node.items
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self.GUARDED
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and not locked
            ):
                findings.append(self.finding(
                    path, node,
                    f"self.{node.attr} accessed outside `with self._lock` in "
                    f"{fn}() — every mutable service field is lock-protected "
                    f"(or move the access into a *_locked helper)",
                ))
            for child in ast.iter_child_nodes(node):
                visit(child, fn, locked)

        for klass in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in klass.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name == "__init__" or fn.name.endswith("_locked"):
                    continue
                for stmt in fn.body:
                    visit(stmt, fn.name, False)
        return findings


# ----------------------------------------------------------------------
# rule: comm-thread-vocabulary
# ----------------------------------------------------------------------
class CommVocabRule(AstRule):
    """Compute-side op handlers never speak mpilite.

    The dynamic twin of the sweep-program lint's vocabulary invariant,
    applied to the *implementation*: the interpreter's compute handlers
    (and the compute-side helpers of the engine and its exchange) must
    not touch the communicator or call send/recv-family methods —
    communication is funneled through the comm ops, which task mode may
    move onto the dedicated thread (``MPI_THREAD_FUNNELED``).
    """

    name = "comm-thread-vocabulary"
    description = "no mpilite calls from compute-side op handlers"
    suffixes = ("program/exec.py", "core/spmvm.py", "comm/exec.py")

    MPI_CALLS = frozenset({
        "send", "recv", "irecv", "sendrecv", "Send", "Recv", "Isend", "Irecv",
        "barrier", "allreduce", "bcast", "reduce", "gather", "scatter",
    })
    COMPUTE_FUNCTIONS = {
        "program/exec.py": frozenset({
            "_pack", "_local_spmvm", "_remote_spmvm", "_full_spmvm",
            # the main path's side of a COMM_THREAD region is pure
            # synchronisation: hand-off and completion wait
            "_hand_off", "_barrier_main", "_reap_comm_thread",
            "hand_off", "wait",
        }),
        "core/spmvm.py": frozenset({
            "sweep_buffers", "fill_send_buffers", "halo_view",
        }),
        "comm/exec.py": frozenset({"pack"}),
    }

    def _compute_names(self, path: str) -> frozenset[str]:
        for suffix, names in self.COMPUTE_FUNCTIONS.items():
            if path.endswith(suffix):
                return names
        return frozenset()

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        compute = self._compute_names(path)
        findings: list[Finding] = []

        def visit(node: ast.AST, fn: str) -> None:
            if isinstance(node, ast.Attribute) and node.attr == "comm":
                findings.append(self.finding(
                    path, node,
                    f"compute-side handler {fn}() touches the communicator — "
                    f"communication belongs to the comm ops "
                    f"(POST_RECVS/POST_SENDS/WAITALL), which task mode funnels "
                    f"onto the dedicated thread",
                ))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.MPI_CALLS
            ):
                findings.append(self.finding(
                    path, node,
                    f"compute-side handler {fn}() calls .{node.func.attr}() — "
                    f"an mpilite operation outside the comm-op vocabulary",
                ))
            for child in ast.iter_child_nodes(node):
                visit(child, fn)

        for fn in _walk_functions(tree):
            if fn.name in compute:
                for stmt in fn.body:
                    visit(stmt, fn.name)
        return findings


ALL_RULES: tuple[AstRule, ...] = (
    HotPathAllocRule(),
    Float64Rule(),
    LockDisciplineRule(),
    CommVocabRule(),
)


def get_rule(name: str) -> AstRule:
    """Look a rule up by name."""
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise ValueError(
        f"unknown rule {name!r} (expected one of {[r.name for r in ALL_RULES]})"
    )


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def lint_source(
    source: str, path: str, rules: tuple[AstRule, ...] | None = None
) -> list[Finding]:
    """Lint one source string as if it lived at *path*.

    Applies every rule whose scope matches *path*, then drops findings
    on lines carrying a ``lint: allow(<rule-name>)`` waiver comment.
    """
    rules = ALL_RULES if rules is None else rules
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies(path):
            continue
        for f in rule.check(tree, path):
            line = f.details.get("line", 0)
            if 1 <= line <= len(lines) and f"lint: allow({rule.name})" in lines[line - 1]:
                continue
            findings.append(f)
    return findings


def run_astlint(
    root: str | Path | None = None,
    *,
    rules: tuple[AstRule, ...] | None = None,
) -> list[Finding]:
    """Lint every ``*.py`` file under *root* (default: the repro package)."""
    root = DEFAULT_ROOT if root is None else Path(root)
    findings: list[Finding] = []
    for py in sorted(root.rglob("*.py")):
        rel = f"{root.name}/{py.relative_to(root).as_posix()}"
        findings.extend(lint_source(py.read_text(), rel, rules=rules))
    return findings


# ----------------------------------------------------------------------
# per-rule seeded-bug fixtures
# ----------------------------------------------------------------------
#: rule name -> (virtual path, source seeded with exactly that bug)
RULE_FIXTURES: dict[str, tuple[str, str]] = {
    "hot-path-alloc": (
        "repro/sparse/spmv.py",
        '''\
import numpy as np

def spmv_add(A, x, out):
    tmp = np.empty(out.shape)  # seeded: per-call allocation in the hot path
    tmp[:] = 0.0
    out += tmp
    return out
''',
    ),
    "float64-discipline": (
        "repro/core/spmvm.py",
        '''\
import numpy as np

def make_buffer(n):
    return np.zeros(n, dtype=np.float32)  # seeded: reduced precision
''',
    ),
    "lock-discipline": (
        "repro/serve/service.py",
        '''\
class SolverService:
    def cancel_all(self):
        self._pending.clear()  # seeded: mutable state without the lock
        self._state = "closing"
''',
    ),
    "comm-thread-vocabulary": (
        "repro/program/exec.py",
        '''\
def _local_spmvm(engine, state):
    state.y = spmv(engine.halo.A_local, state.x)
    engine.comm.send(state.y, 0, tag=1)  # seeded: mpilite from a compute op
''',
    ),
}


def lint_fixture(rule_name: str) -> list[Finding]:
    """Run one rule against its own seeded-bug fixture."""
    rule = get_rule(rule_name)
    path, source = RULE_FIXTURES[rule_name]
    return lint_source(source, path, rules=(rule,))
