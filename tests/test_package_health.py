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


def test_version_string():
    assert repro.__version__.count(".") == 2
