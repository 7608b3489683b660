"""The repo-invariant AST lint engine (repro.check.astlint).

Each rule is tested three ways: it fires on its own seeded-bug fixture,
it stays silent on representative clean code (including the sanctioned
exceptions: ``is None`` lazy-init, waiver comments, ``*_locked``
helpers), and the engine scopes it to the right files.  On top of that,
the whole shipped tree must lint clean — the lint is an invariant of
this repository, not just a tool it happens to contain.
"""

from __future__ import annotations

import pytest

from repro.check.astlint import (
    ALL_RULES,
    DEFAULT_ROOT,
    RULE_FIXTURES,
    get_rule,
    lint_fixture,
    lint_source,
    run_astlint,
)

RULE_NAMES = [r.name for r in ALL_RULES]


# ------------------------------------------------------------ the engine


def test_repo_lints_clean():
    findings = run_astlint()
    assert not findings, "\n".join(f.describe() for f in findings)


def test_default_root_is_the_repro_package():
    assert DEFAULT_ROOT.name == "repro"
    assert (DEFAULT_ROOT / "check" / "astlint.py").exists()


@pytest.mark.parametrize("name", RULE_NAMES)
def test_each_fixture_fires_its_own_rule(name):
    findings = lint_fixture(name)
    assert findings
    assert all(f.kind == "ast-lint" for f in findings)
    assert all(f.details["rule"] == name for f in findings)
    # provenance: path and line are in the rendered message
    path, _src = RULE_FIXTURES[name]
    assert all(f.message.startswith(f"{path}:") for f in findings)


@pytest.mark.parametrize("rule,table", [
    ("hot-path-alloc", "HOT_FUNCTIONS"),
    ("comm-thread-vocabulary", "COMPUTE_FUNCTIONS"),
])
def test_allowlisted_function_names_exist(rule, table):
    # the tables name functions by string: a rename must not silently
    # retire the rule for that function
    import ast

    for suffix, names in getattr(get_rule(rule), table).items():
        tree = ast.parse((DEFAULT_ROOT / suffix).read_text())
        defined = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert names <= defined, f"{suffix}: {sorted(names - defined)} not defined"


def test_exchange_per_sweep_methods_are_under_the_rules():
    # every multiply ends in RankExchange: its per-sweep methods are hot,
    # and packing is compute-side (task mode runs it off the comm thread)
    hot = get_rule("hot-path-alloc")
    assert {"post_receives", "pack", "send", "finish"} <= hot.HOT_FUNCTIONS["comm/exec.py"]
    assert "pack" in get_rule("comm-thread-vocabulary").COMPUTE_FUNCTIONS["comm/exec.py"]
    src = (
        "import numpy as np\n"
        "class RankExchange:\n"
        "    def finish(self, comm, reqs, bufs, halo_out):\n"
        "        agg = np.empty(halo_out.shape)\n"
        "    def pack(self, x, bufs):\n"
        "        self.comm.send(x, 0, 1)\n"
    )
    rules = {f.details["rule"] for f in lint_source(src, "repro/comm/exec.py")}
    assert rules == {"hot-path-alloc", "comm-thread-vocabulary"}


def test_get_rule_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown rule"):
        get_rule("no-such-rule")


def test_rules_scope_by_path_suffix():
    # a service-only rule never applies to kernel files and vice versa
    assert get_rule("lock-discipline").applies("repro/serve/service.py")
    assert not get_rule("lock-discipline").applies("repro/sparse/spmv.py")
    assert get_rule("hot-path-alloc").applies("repro/sparse/spmv.py")
    assert not get_rule("hot-path-alloc").applies("repro/serve/service.py")
    assert get_rule("float64-discipline").applies("repro/anything.py")


def test_waiver_comment_silences_exactly_its_rule():
    src = (
        "import numpy as np\n"
        "def spmv(A, x):\n"
        "    return np.zeros(3)  # lint: allow(hot-path-alloc) test waiver\n"
    )
    assert lint_source(src, "repro/sparse/spmv.py") == []
    # the same code without the waiver (or with the wrong rule name) fires
    assert lint_source(src.replace("hot-path-alloc", "float64-discipline"),
                       "repro/sparse/spmv.py")


# ------------------------------------------------------- hot-path-alloc


def test_hot_alloc_allows_is_none_lazy_init():
    src = (
        "import numpy as np\n"
        "_buf = None\n"
        "def spmv(A, x):\n"
        "    global _buf\n"
        "    if _buf is None:\n"
        "        _buf = np.empty(8)\n"
        "    return _buf\n"
    )
    assert lint_source(src, "repro/sparse/spmv.py") == []


def test_hot_alloc_ignores_cold_functions():
    src = (
        "import numpy as np\n"
        "def build_scratch(A):\n"
        "    return np.zeros(8)\n"  # not in the hot set: allocation is fine
    )
    assert lint_source(src, "repro/sparse/spmv.py") == []


def test_hot_alloc_flags_copy_and_astype():
    src = (
        "def spmv(A, x):\n"
        "    return x.astype(float)\n"
    )
    (f,) = lint_source(src, "repro/sparse/spmv.py")
    assert ".astype()" in f.message


def test_hot_alloc_permits_asarray_validation():
    # np.asarray is no-copy for float64 input — the kernels' validation
    # idiom is deliberately outside ALLOCATORS
    src = (
        "import numpy as np\n"
        "def spmv(A, x):\n"
        "    x = np.asarray(x, dtype=np.float64)\n"
        "    return x\n"
    )
    assert lint_source(src, "repro/sparse/spmv.py") == []


# --------------------------------------------------- float64-discipline


def test_float64_rule_flags_attribute_and_dtype_string():
    src = (
        "import numpy as np\n"
        "a = np.zeros(3, dtype=np.float32)\n"
        "b = np.zeros(3, dtype='f4')\n"
    )
    findings = lint_source(src, "repro/model/new.py")
    assert len(findings) == 2


def test_float64_rule_permits_double_and_ints():
    src = (
        "import numpy as np\n"
        "a = np.zeros(3, dtype=np.float64)\n"
        "b = np.zeros(3, dtype=np.int64)\n"
        "c = np.zeros(3)\n"
    )
    assert lint_source(src, "repro/model/new.py") == []


# ------------------------------------------------------ lock-discipline


def test_lock_rule_requires_with_self_lock():
    src = (
        "class SolverService:\n"
        "    def good(self):\n"
        "        with self._lock:\n"
        "            return len(self._pending)\n"
        "    def bad(self):\n"
        "        return len(self._pending)\n"
    )
    (f,) = lint_source(src, "repro/serve/service.py")
    assert "bad()" in f.message
    assert "_pending" in f.message


def test_lock_rule_exempts_init_and_locked_helpers():
    src = (
        "class SolverService:\n"
        "    def __init__(self):\n"
        "        self._pending = []\n"
        "    def _cancel_pending_locked(self):\n"
        "        self._pending.clear()\n"
    )
    assert lint_source(src, "repro/serve/service.py") == []


def test_lock_rule_ignores_unguarded_fields():
    src = (
        "class SolverService:\n"
        "    def fine(self):\n"
        "        return self.model\n"  # immutable after __init__: not GUARDED
    )
    assert lint_source(src, "repro/serve/service.py") == []


# ----------------------------------------------- comm-thread-vocabulary


def test_comm_vocab_flags_compute_handlers_only():
    src = (
        "def _local_spmvm(engine, state):\n"
        "    engine.comm.send(1, 0, tag=1)\n"
        "def _post_sends(engine, state):\n"
        "    engine.comm.send(1, 0, tag=1)\n"  # comm op: its job
    )
    findings = lint_source(src, "repro/program/exec.py")
    assert findings
    assert all("_local_spmvm" in f.message for f in findings)


def test_comm_vocab_flags_mpi_named_calls_without_comm_attribute():
    src = (
        "def _pack(engine, state):\n"
        "    engine.router.barrier()\n"
    )
    (f,) = lint_source(src, "repro/program/exec.py")
    assert ".barrier()" in f.message


def test_comm_vocab_names_exactly_what_comm_offers():
    # a name Comm lacks guards nothing; one it offers but the rule misses
    # lets a compute handler communicate unseen
    import inspect

    from repro.mpilite import Comm

    offered = {
        name for name, member in vars(Comm).items()
        if not name.startswith("_") and inspect.isfunction(member)
    }
    assert get_rule("comm-thread-vocabulary").MPI_CALLS == offered


def test_comm_vocab_flags_waitall_on_a_local_communicator():
    src = (
        "def _remote_spmvm(engine, state, c):\n"
        "    c.waitall(state.reqs)\n"
    )
    (f,) = lint_source(src, "repro/program/exec.py")
    assert ".waitall()" in f.message


# ---------------------------------------------------------------- CLI


def test_cli_lint_clean(capsys):
    from repro.cli import main

    assert main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_reports_findings_with_exit_one(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "serve" / "service.py"
    bad.parent.mkdir()
    bad.write_text(
        "class SolverService:\n"
        "    def leak(self):\n"
        "        return self._state\n"
    )
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "lock-discipline" in out
    assert "1 finding(s)" in out


def test_cli_lint_single_rule(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "serve" / "service.py"
    bad.parent.mkdir()
    bad.write_text(
        "import numpy as np\n"
        "class SolverService:\n"
        "    def leak(self):\n"
        "        return np.zeros(3, dtype=np.float32), self._state\n"
    )
    # restricted to float64-discipline, the lock finding is not reported
    assert main(["lint", str(tmp_path), "--rule", "float64-discipline"]) == 1
    out = capsys.readouterr().out
    assert "float64" in out
    assert "lock-discipline" not in out
