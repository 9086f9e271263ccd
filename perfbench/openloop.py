"""Open-loop append generator: a due-time schedule, independent of the service.

Append ``i`` is due at ``start + i * interval`` whether or not the
service has caught up with the earlier ones.  When a step overruns, the
appends that fell due meanwhile are written together at the next step
(the backlog), and each one's latency is still timed from its own due
time, so a stall shows in every append it delays.  The clock and sleep
are parameters so the arithmetic can be tested with a fake clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 has 10 above it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class LoopResult:
    count: int
    #: Due-to-visible seconds per append; None for one never visible.
    latency: list
    #: Seconds the generator wrote each append after its due time.
    lateness: list[float] = field(default_factory=list)
    #: Appends written together at each step (1 when on schedule).
    backlog: list[int] = field(default_factory=list)

    @property
    def visible(self) -> list[float]:
        return [value for value in self.latency if value is not None]

    @property
    def invisible(self) -> int:
        return sum(value is None for value in self.latency)


def run_open_loop(
    count: int,
    interval: float,
    step,
    *,
    clock=time.perf_counter,
    sleep=time.sleep,
    idle=None,
    drain_steps: int = 3,
) -> LoopResult:
    """Drive ``step(due_indices)`` on the schedule; return the timings.

    ``step`` writes the given appends, lets the service catch up and
    returns the indices (of any append so far) whose rows a report now
    includes.  ``idle(seconds)``, when given, runs while the loop waits
    for the next due time and must return well within ``seconds``.
    After the last append, up to ``drain_steps`` empty steps give late
    appends a chance to become visible.
    """
    start = clock()
    result = LoopResult(count=count, latency=[None] * count)

    def run_step(batch: list[int]) -> None:
        shown = step(batch)
        done = clock()
        for index in shown:
            if result.latency[index] is None:
                result.latency[index] = done - (start + index * interval)

    next_index = 0
    while next_index < count:
        now = clock()
        due = start + next_index * interval
        if now < due and idle is not None:
            idle(due - now)
            now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        last = next_index
        while last + 1 < count and start + (last + 1) * interval <= now:
            last += 1
        batch = list(range(next_index, last + 1))
        result.lateness.extend(now - (start + i * interval) for i in batch)
        result.backlog.append(len(batch))
        run_step(batch)
        next_index = last + 1
    for _ in range(drain_steps):
        if not result.invisible:
            break
        run_step([])
    return result
