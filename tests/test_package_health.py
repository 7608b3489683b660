"""Package-level health: imports, public API surface, docstrings."""

import importlib
import pkgutil
import re
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
        "OP_KINDS", "COMPUTE_OPS", "COMM_OPS", "WORK_OPS",
        "SIM_PHASE_LABELS", "PROGRAM_SCHEMES",
        "SweepOp", "SweepProgram",
        "build_sweep", "cached_sweep_program", "all_sweep_programs",
        "execute_sweep", "sweep_process",
        "lint_sweep_program", "lint_sweep_programs",
    ])


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


def test_doc_references_resolve():
    # docs may not name code that is gone: every dotted ``repro.…`` path
    # inside an inline-code span of the three living documents must import
    root = Path(__file__).resolve().parent.parent
    dangling, seen = [], set()
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        for span in re.findall(r"`([^`\n]+)`", (root / doc).read_text()):
            for ref in re.findall(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+", span):
                seen.add(ref)
                try:
                    _resolve(ref)
                except (ImportError, AttributeError) as exc:
                    dangling.append(f"{doc}: `{ref}` ({exc!r})")
    assert len(seen) >= 30  # the pattern still finds the references
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
    "poisson_2d": "input of the CG, Lanczos, AMG and RCM tests",
    "poisson_3d": "the 7-point member of the Poisson test-matrix family",
    "random_banded": "input of the nearest-neighbour halo test",
    "random_symmetric": "symmetric test-matrix generator beside random_sparse",
    "NativeStatus.to_dict": "ROADMAP item 8(d) records native.status() per ledger run",
    "ProcComm.scatter": "mpilite/procs.py stays whole until ROADMAP item 8(e) deletes it",
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


def _referenced_names(root: Path) -> set[str]:
    """Every name the code outside ``tests/`` reads: names, attributes,
    the quoted attribute of ``getattr`` / ``hasattr`` / ``setattr``, and
    the words of the CI workflows."""
    import ast

    seen: set[str] = set()
    for folder in ("src", "examples", "benchmarks"):
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
    assert len(KEPT) <= 12


def test_version_string():
    assert repro.__version__.count(".") == 2
