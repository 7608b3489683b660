"""Examples stay runnable: syntax-check all, execute the quick ones."""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

#: Each executed example and the output line it must print.
#: ``hybrid_modes.py`` (about 9 s) is only compiled.
EXPECTED_LINE = {
    "exact_diagonalization.py": r"ground-state energy",
    "poisson_cg.py": r"distributed CG\s*:\s*\d+ iterations on \d+ ranks",
    "quickstart.py": r"distributed spMVM \[\s*task_mode\] on 4 ranks: max \|err\| = ",
    "async_progress.py": r"task mode \(explicit overlap\):\s+[\d.]+ GFlop/s",
    "cluster_design.py": r"task-mode advantage vs fabric speed",
}


def test_all_examples_compile():
    files = sorted(EXAMPLES.glob("*.py"))
    assert len(files) >= 5
    for f in files:
        compile(f.read_text(), str(f), "exec")


@pytest.mark.parametrize("script", list(EXPECTED_LINE))
def test_example_executes(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert re.search(EXPECTED_LINE[script], result.stdout), result.stdout[-2000:]
    if script == "poisson_cg.py":
        # the SPMD solve runs the serial recurrence: same iteration count
        counts = re.findall(r"(?:serial|distributed) CG\s*:\s*(\d+) iterations", result.stdout)
        assert len(counts) == 2 and counts[0] == counts[1], result.stdout
