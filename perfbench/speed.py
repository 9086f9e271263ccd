"""Host speed probe, to correct timings for the machine's speed drift.

On the shared 2-core reference box, the speed of pure interpreter code
swings by a fifth within seconds and drifts by as much over tens of
seconds, which is as long as a run.  A timed call is therefore bracketed
by two probes, and its wall time is scaled by ``NOMINAL_S`` over the
mean probe: the result reads as seconds at the box's nominal speed.
The probe runs no repository code, so a change to the program moves the
corrected time exactly as it moves the wall time.  Runs print both.
"""

from __future__ import annotations

import time

#: Best-of-5 probe time on the reference box when it runs fast.
NOMINAL_S = 0.0067


def _spin() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def probe(repeats: int = 5) -> float:
    """Best of ``repeats`` timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _spin()
        best = min(best, time.perf_counter() - started)
    return best


class Corrected:
    """Context manager: ``wall`` and speed-``corrected`` seconds of a block."""

    wall = seconds = 0.0

    def __enter__(self) -> "Corrected":
        self._before = probe()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._started
        after = probe()
        self.seconds = self.wall * NOMINAL_S * 2 / (self._before + after)
