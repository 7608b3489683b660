"""Compare two ledger results: ``compare.py A.json B.json``.

A is the reference, B the candidate (both written by ``run.py --out``).
For every workload and end-to-end metric the two values, the relative
difference (positive = B is worse) and the bound from ``BENCHMARK.json``
are printed.  Exit code 1 if B is worse than A by more than a bound, if
the share of failed ops rose, or - when both files were run with the
same seed - if any count that must repeat exactly differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from *a* to *b*, positive when *b* is worse."""
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def failed_share(stage: dict) -> float:
    attempted = sum(stage["ops"]["attempted"].values())
    return sum(stage["ops"]["failed"].values()) / max(1, attempted)


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> list[str]:
    """Print the comparison; return the reasons B is rejected (none = accepted)."""
    problems: list[str] = []
    same_seed = a["seed"] == b["seed"]
    for workload in sorted(set(a["results"]) & set(b["results"])):
        ra, rb = a["results"][workload], b["results"][workload]
        print(f"== {workload}", file=out)
        if "e2e" in ra and "e2e" in rb:
            print(f"  {'metric':<18}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}", file=out)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                va = ra["e2e"]["metrics"][name]["value"]
                vb = rb["e2e"]["metrics"][name]["value"]
                worse = worsening(va, vb, metric["better"])
                verdict = ""
                if worse > metric["bound"]:
                    verdict = "  REGRESSION"
                    problems.append(f"{workload} {name}: {worse:+.1%} worse, bound {metric['bound']:.0%}")
                elif worse < -metric["bound"]:
                    verdict = "  improved"
                print(f"  {name:<18}{va:>12.4f}{vb:>12.4f}{worse:>+10.1%}{metric['bound']:>8.0%}{verdict}",
                      file=out)
        for stage in ("e2e", "layers"):
            if stage not in ra or stage not in rb:
                continue
            if failed_share(rb[stage]) > failed_share(ra[stage]):
                problems.append(f"{workload} {stage}: share of failed ops rose")
            for name, value in ra[stage].get("counts", {}).items():
                other = rb[stage].get("counts", {}).get(name)
                if other != value:
                    print(f"  count {name}: {value} -> {other}"
                          + ("" if same_seed else "  (different seed: reported only)"), file=out)
                    if same_seed:
                        problems.append(f"{workload} {name}: count {value} -> {other} at the same seed")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    problems = compare(a, b, spec)
    for problem in problems:
        print(f"REJECTED {problem}")
    if not problems:
        print("accepted: every metric within its bound, no new failed ops, counts repeat")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
