"""The ledger's estimators: the best the run saw, window by window.

The hosts this runs on are shared 2-core VMs whose neighbours slow a
process down in bursts and, at times, for minutes (README,
"Estimator").  That noise only ever adds time, so every estimator looks
for the quiet moments of a run, and the run is cut into many short
windows so that it has some:

``best-round-median`` (the fast phases)
    samples are taken in rounds interleaved across the whole run; the
    value is the minimum over rounds of the per-round median (the
    maximum for a rate).  A round is a window of three samples.
``best-parts`` (time to solution and the simulated sweep, via
:meth:`Phase.add_parts`)
    a sample is a fixed sequence of parts, each a few milliseconds long;
    the value is the sum over the parts of each part's best time, i.e.
    one pass with every part quiet.
``median-round-best`` (set-up time)
    a round is a few tries back to back; the value is the median over
    rounds of the per-round best.  The driver's contract asks for a
    median of several set-ups; the best of a round is what keeps a
    20 ms set-up that a neighbour interrupted from being one of them.

The pooled median, quartiles and sample count are kept beside the value.
"""

from __future__ import annotations

import statistics

ESTIMATORS = ("best-round-median", "best-parts", "median-round-best")


class Phase:
    """Samples of one timed phase, grouped by the round that took them."""

    def __init__(
        self, name: str, unit: str, better: str = "lower", *, estimator: str = "best-round-median"
    ) -> None:
        assert estimator in ESTIMATORS, estimator
        self.name = name
        self.unit = unit
        self.better = better
        self.estimator = estimator
        self.rounds: dict[int, list[float]] = {}
        #: best time of each named part (``add_parts``)
        self.parts: dict[str, float] = {}

    def add(self, rnd: int, value: float) -> None:
        self.rounds.setdefault(rnd, []).append(float(value))

    def extend(self, rnd: int, values) -> None:
        for v in values:
            self.add(rnd, v)

    def add_parts(self, rnd: int, parts: dict[str, float]) -> None:
        """One sample made of named parts; its own value is their sum."""
        self.add(rnd, sum(parts.values()))
        for key, value in parts.items():
            self.parts[key] = min(value, self.parts.get(key, value))

    @property
    def samples(self) -> list[float]:
        return [v for vs in self.rounds.values() for v in vs]

    @property
    def value(self) -> float:
        best = max if self.better == "higher" else min
        if self.estimator == "best-parts":
            return sum(self.parts.values())
        if self.estimator == "median-round-best":
            return statistics.median(best(vs) for vs in self.rounds.values())
        return best(statistics.median(vs) for vs in self.rounds.values())

    def summary(self) -> dict:
        """Value plus the pooled statistics printed beside it."""
        samples = self.samples
        if len(samples) >= 2:
            q1, _q2, q3 = statistics.quantiles(samples, n=4)
        else:
            q1 = q3 = samples[0]
        return {
            "value": self.value,
            "unit": self.unit,
            "estimator": self.estimator,
            "median": statistics.median(samples),
            "q1": q1,
            "q3": q3,
            "max": max(samples),
            "samples": len(samples),
            "rounds": len(self.rounds),
        }
