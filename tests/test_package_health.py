"""Package-level health: imports, public API surface, docstrings."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import repro


def _walk():
    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(mod.name)


def test_every_module_imports():
    mods = list(_walk())
    assert len(mods) >= 50


def test_every_module_has_docstring():
    for mod in _walk():
        if mod.__name__.endswith("__main__"):
            continue
        assert mod.__doc__ and mod.__doc__.strip(), f"{mod.__name__} lacks a docstring"


def test_all_exports_resolve():
    for mod in _walk():
        exported = getattr(mod, "__all__", None)
        if exported is None:
            continue
        for name in exported:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"


def test_public_functions_have_docstrings():
    import inspect

    missing = []
    for mod in _walk():
        if mod.__name__.endswith("__main__"):
            continue
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if obj.__module__ != mod.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ and obj.__doc__.strip()):
                    missing.append(f"{mod.__name__}.{name}")
    assert not missing, f"undocumented public items: {missing}"


def test_program_api_is_one_of_each():
    # one program class, one builder (+ its cached twin and enumerator),
    # one interpreter per backend, one lint: a second spelling of any of
    # these must be a conscious change here
    import repro.program

    assert sorted(repro.program.__all__) == sorted([
        "OP_KINDS", "COMPUTE_OPS", "COMM_OPS",
        "SIM_PHASE_LABELS", "PROGRAM_SCHEMES",
        "SweepOp", "SweepProgram",
        "build_sweep", "cached_sweep_program", "all_sweep_programs",
        "execute_sweep", "sweep_process",
        "lint_sweep_program", "lint_sweep_programs",
    ])


def test_communicator_surface_is_pinned():
    # the caller scan below matches bare names, so it cannot tell
    # Comm.bcast from ProcComm.bcast, or Request.test from CI's word
    # "test": dead communicator methods hid behind same-named ones.  The
    # communicator offers what the program calls; a method added to it
    # must be a conscious change here
    import inspect

    import repro.mpilite
    from repro.mpilite import Comm, Request, Router

    def methods(cls):
        return sorted(
            name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, property))
        )

    assert methods(Comm) == [
        "allreduce", "barrier", "irecv", "isend", "observer", "rank", "recv", "send", "waitall",
    ]
    assert methods(Request) == ["wait"]
    assert methods(Router) == ["abort", "get", "put"]
    # the package surface too: the scan sees only defs, so a constant
    # (a wildcard like ANY_SOURCE) could come back unnoticed
    assert sorted(repro.mpilite.__all__) == [
        "CollectiveState", "Comm", "PerRank", "ProcComm", "Request", "Router", "World",
        "WorldAbortedError", "run_spmd", "run_spmd_processes",
    ]


def _resolve(ref: str):
    """Import the longest module prefix of *ref*, ``getattr`` the rest."""
    parts = ref.split(".")
    for n in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:n]))
        except ImportError:
            continue
        for attr in parts[n:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(ref)


def _subcommands() -> set[str]:
    """The subcommand names of ``python -m repro``."""
    import argparse

    from repro.cli import build_parser

    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


#: A repo-relative path into src/, tests/, benchmarks/ or examples/.
_REPO_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|examples)/[^\s`'\"(),;]*")
#: A test id, ``tests/…py::name`` or ``benchmarks/…py::name``.
_TEST_ID = re.compile(r"(?<![\w./-])((?:tests|benchmarks)/[\w/.-]+\.py)::(\w+)")


def test_doc_references_resolve():
    # docs may not name code that is gone: every dotted ``repro.…`` path
    # inside an inline-code span of the three living documents must
    # import, every ``python -m repro <cmd>`` there, in CI and in the
    # verify recipe must be a subcommand, every repo-relative path in an
    # inline-code span of README and DESIGN must exist (EXPERIMENTS'
    # history names deleted files on purpose), and every ``path.py::name``
    # test id in the three must name a file that defines ``name``
    root = Path(__file__).resolve().parent.parent
    living = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    commands = _subcommands()
    dangling, seen, invoked, paths, test_ids = [], set(), 0, 0, 0
    for doc in living + (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"):
        text = (root / doc).read_text()
        for cmd in re.findall(r"python3? -m repro[ \t]+([A-Za-z][\w-]*)", text):
            invoked += 1
            if cmd not in commands:
                dangling.append(f"{doc}: `python -m repro {cmd}` (no such subcommand)")
        if doc not in living:
            continue
        for span in re.findall(r"`([^`\n]+)`", text):
            for ref in re.findall(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+", span):
                seen.add(ref)
                try:
                    _resolve(ref)
                except (ImportError, AttributeError) as exc:
                    dangling.append(f"{doc}: `{ref}` ({exc!r})")
            if doc == "EXPERIMENTS.md":
                continue
            for path in _REPO_PATH.findall(span):
                path = re.split(r"::|:(?=\d)", path)[0]  # a test id or a line number
                paths += 1
                if not (root / path).exists():
                    dangling.append(f"{doc}: `{path}` (no such file)")
        for path, name in _TEST_ID.findall(text):
            test_ids += 1
            source = root / path
            defines = rf"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+{name}\b"
            if not (source.is_file() and re.search(defines, source.read_text(), re.M)):
                dangling.append(f"{doc}: `{path}::{name}` (no such test)")
    # the patterns still find the references
    assert len(seen) >= 30 and invoked >= 20 and paths >= 40 and test_ids >= 20
    assert not dangling, "docs name code that does not exist:\n" + "\n".join(dangling)


#: Public definitions without a caller outside ``tests/``, each with the
#: one reason it stays: a test seam that substitutes behaviour, a
#: validator of outside input, the oracle or input a test compares
#: against, or the input a ROADMAP item names for its next step.
KEPT = {
    "SolverService.inject_fault": "test seam: kills a rank worker to exercise failure paths",
    "CommPlan.validate": "validates a plan built outside the lowering (raises with findings)",
    "SweepProgram.signature": "oracle of the golden cross-backend op-sequence tests",
    "poisson_1d": "input of the cache-model test (sequential RHS access)",
    "poisson_2d": "input of the CG, Lanczos and RCM tests",
    "poisson_3d": "the 7-point member of the Poisson test-matrix family",
    "random_banded": "input of the nearest-neighbour halo test",
    "random_symmetric": "symmetric test-matrix generator beside random_sparse",
    "CSRMatrix.diagonal": "oracle of the random_sparse diagonal and symmetric-storage tests",
    "NativeStatus.to_dict": "ROADMAP item 8(d) records native.status() per ledger run",
    "ProcComm.scatter": "mpilite/procs.py stays whole until ROADMAP item 8(e) deletes it",
    "ProcComm.Send": "mpilite/procs.py stays whole until ROADMAP item 8(e) deletes it",
    "ProcComm.Recv": "mpilite/procs.py stays whole until ROADMAP item 8(e) deletes it",
}


def _public_definitions(root: Path):
    """``(file:line, qualname)`` of every public function, method,
    property and class under ``src/repro``, nested classes included."""
    import ast

    found = []

    def visit(body, prefix, rel):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    found.append((f"{rel}:{node.lineno}", prefix + node.name))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.", rel)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()).body, "", path.relative_to(root))
    return found


def _referenced_names(root: Path, folders=("src", "examples", "benchmarks")) -> set[str]:
    """Every name the code in *folders* reads: names, attributes, the
    quoted attribute of ``getattr`` / ``hasattr`` / ``setattr``, and the
    words of the CI workflows."""
    import ast

    seen: set[str] = set()
    for folder in folders:
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    seen.add(node.id)
                elif isinstance(node, ast.Attribute):
                    seen.add(node.attr)
                elif (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr", "setattr")
                    and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                ):
                    seen.add(str(node.args[1].value))
    for workflow in (root / ".github").rglob("*.yml"):
        seen.update(re.findall(r"[A-Za-z_]\w*", workflow.read_text()))
    return seen


def _uncalled(root: Path) -> list[tuple[str, str]]:
    """Public definitions whose name nothing outside ``tests/`` reads."""
    seen = _referenced_names(root)
    return [(where, qual) for where, qual in _public_definitions(root)
            if qual.rsplit(".", 1)[-1] not in seen]


def test_every_public_name_has_a_caller():
    # a name only its own tests call is surface to maintain with nothing
    # depending on it: delete it, or give it a reason in KEPT
    uncalled = _uncalled(Path(__file__).resolve().parent.parent)
    orphans = [f"{where} {qual}" for where, qual in uncalled if qual not in KEPT]
    assert not orphans, "public names with no caller outside tests/:\n" + "\n".join(orphans)
    stale = set(KEPT) - {qual for _, qual in uncalled}
    assert not stale, f"KEPT entries that are gone or have a caller now: {sorted(stale)}"
    # 10 plus the three ProcComm names, which go with mpilite/procs.py
    assert len(KEPT) <= 13


#: Public definitions that only ``examples/`` reads, each with the paper
#: artefact or ROADMAP item it serves: an example is a caller, but not a
#: reason on its own.
EXAMPLE_ONLY = {
    "kpm_spectrum": "KPM, a motivating application of the paper's Sect. 1 (ROADMAP item 9)",
    "KPMSpectrum.normalized": "the KPM density of states, Sect. 1 (ROADMAP item 9)",
    "ChebyshevPropagator": "Chebyshev time propagation, Sect. 1 (ROADMAP item 9)",
    "spectral_bounds": "the spectral interval KPM and Chebyshev rescale to, Sect. 1",
    "CSRMatrix.to_dense": "the dense check of the HMeP ground state in the ED example (Sect. 1)",
    "COOMatrix.to_dense": "same name as CSRMatrix.to_dense; the COO -> CSR property oracle",
}


def test_every_example_only_name_serves_an_artefact():
    # a name kept alive by an example alone must say which paper artefact
    # or ROADMAP item it serves, or go with the example's section
    root = Path(__file__).resolve().parent.parent
    shown = (_referenced_names(root, ("examples",))
             - _referenced_names(root, ("src", "benchmarks")))
    example_only = {qual for _, qual in _public_definitions(root)
                    if qual.rsplit(".", 1)[-1] in shown}
    unnamed = sorted(example_only - set(EXAMPLE_ONLY))
    assert not unnamed, f"public names only examples/ reads, with no artefact: {unnamed}"
    stale = sorted(set(EXAMPLE_ONLY) - example_only)
    assert not stale, f"EXAMPLE_ONLY entries that are gone or have another caller: {stale}"


#: The only signatures that take the one observer of a checked run.
OBSERVER_DOORS = {"World", "run_spmd", "distributed_spmv", "distributed_spmm", "SolverService"}


def test_one_attach_point():
    # a checked run carries one object, given to its World: no second
    # parameter, field or attribute lookup may hand an observer around it
    import ast

    root = Path(__file__).resolve().parent.parent
    stray, doors, side_doors = [], set(), []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root)
        tree = ast.parse(path.read_text())
        for owner in ast.walk(tree):
            if isinstance(owner, ast.ClassDef):
                dataclass = any(
                    "dataclass" in ast.unparse(d) for d in owner.decorator_list
                )
                for node in owner.body:
                    if (dataclass and isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name)
                            and node.target.id in ("recorder", "sanitizer")):
                        stray.append(f"{rel}:{node.lineno} field {owner.name}.{node.target.id}")
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                        args = node.args.args + node.args.kwonlyargs
                        if any(a.arg == "observer" for a in args):
                            doors.add(owner.name)
            if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = owner.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                    if arg is None:
                        continue
                    if arg.arg in ("recorder", "sanitizer"):
                        stray.append(f"{rel}:{arg.lineno} parameter {arg.arg!r}")
                    if arg.arg == "observer" and not isinstance(owner, ast.Lambda):
                        doors.add(owner.name)
            if (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                    and owner.func.id == "getattr" and len(owner.args) >= 2
                    and isinstance(owner.args[1], ast.Constant)
                    and owner.args[1].value == "sanitizer"):
                side_doors.append(f"{rel}:{owner.lineno}")
    doors.discard("__init__")  # counted under its class above
    assert not stray, "recorder/sanitizer survive as attach points:\n" + "\n".join(stray)
    assert doors == OBSERVER_DOORS, f"observer= is taken by {sorted(doors)}"
    assert not side_doors, f"getattr(..., 'sanitizer') side doors at {side_doors}"


_LAZY_LINALG_SCRIPT = """
import sys
import numpy as np
import repro.core, repro.serve, repro.solvers, repro.sparse
from repro.core import cached_halo_plan
from repro.mpilite import PerRank, run_spmd
from repro.serve import SolverService, build_model
from repro.solvers import DistributedOperator, SerialOperator, conjugate_gradient, lanczos
from repro.sparse import CSRMatrix

# the 1-D Laplacian from arrays: repro.matrices' scipy.spatial pulls in scipy.linalg
n = 64
rows = np.repeat(np.arange(n), 3)
cols = rows + np.tile([-1, 0, 1], n)
keep = (cols >= 0) & (cols < n)
row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep], minlength=n))])
A = CSRMatrix(row_ptr, cols[keep], np.where(cols == rows, 2.0, -1.0)[keep], ncols=n)
b = np.ones(n)
plan = cached_halo_plan(A, 2, with_matrices=True)

def fn(comm, halo):
    with DistributedOperator(comm, halo) as op:
        return conjugate_gradient(op, b[halo.row_lo:halo.row_hi], tol=1e-10).iterations

run_spmd(2, fn, PerRank(plan.ranks))
with SolverService(build_model(A, 2)) as svc:
    svc.solve(b)
print("scipy.linalg" in sys.modules)
lanczos(SerialOperator(A), max_iter=5)
print("scipy.linalg" in sys.modules)
"""


def test_scipy_linalg_is_imported_by_lanczos_and_nothing_before_it():
    # scipy.linalg is about 6 MB resident: a process that only runs CG or
    # serves sweeps (samg-small-block's measure process) never pays it.
    # A fresh process, because this one has imported everything.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_LAZY_LINALG_SCRIPT)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["False", "True"], out.stdout


def test_version_string():
    assert repro.__version__.count(".") == 2
