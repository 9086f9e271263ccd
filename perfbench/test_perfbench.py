"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    Checks,
    check_self_test,
    exact_diff,
    exact_digest,
    perturbed,
)
from openloop import percentile, run_open_loop  # noqa: E402
from spans import SpanRecorder  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds


def costed_step(clock: FakeClock, costs: dict, hidden=frozenset()):
    """A step that takes ``costs[first index]`` (default 0.1) seconds and
    shows every written index not in ``hidden``."""
    calls = []

    def step(batch):
        calls.append(list(batch))
        clock.now += costs.get(batch[0], 0.1) if batch else 0.01
        return [i for i in batch if i not in hidden]

    return step, calls


def test_on_schedule_latency_is_step_time():
    clock = FakeClock()
    step, calls = costed_step(clock, {})
    result = run_open_loop(10, 0.25, step, clock=clock, sleep=clock.sleep)
    assert result.latency == pytest.approx([0.1] * 10)
    assert result.lateness == pytest.approx([0.0] * 10)
    assert result.backlog == [1] * 10
    assert calls == [[i] for i in range(10)]


def test_idle_hook_uses_the_wait_without_delaying_appends():
    clock = FakeClock()
    step, calls = costed_step(clock, {})
    waits = []

    def idle(seconds):
        waits.append(seconds)
        clock.now += 0.05

    result = run_open_loop(
        4, 0.25, step, clock=clock, sleep=clock.sleep, idle=idle
    )
    assert waits == pytest.approx([0.15, 0.15, 0.15])
    assert result.latency == pytest.approx([0.1] * 4)
    assert result.lateness == pytest.approx([0.0] * 4)


def test_stall_batches_the_backlog_and_times_from_due():
    clock = FakeClock()
    # Append 2 is due at +0.5 and its step takes 0.6 s, ending at +1.1:
    # appends 3 (due +0.75) and 4 (due +1.0) are written together then.
    step, calls = costed_step(clock, {2: 0.6})
    result = run_open_loop(6, 0.25, step, clock=clock, sleep=clock.sleep)
    assert calls == [[0], [1], [2], [3, 4], [5]]
    assert result.backlog == [1, 1, 1, 2, 1]
    assert result.lateness == pytest.approx([0, 0, 0, 0.35, 0.1, 0])
    # 3 and 4 become visible at +1.2; 5 is due at +1.25 and on time.
    assert result.latency == pytest.approx([0.1, 0.1, 0.6, 0.45, 0.2, 0.1])


def test_never_visible_append_is_counted():
    clock = FakeClock()
    step, calls = costed_step(clock, {}, hidden={3})
    result = run_open_loop(5, 0.25, step, clock=clock, sleep=clock.sleep)
    assert result.invisible == 1
    assert result.latency[3] is None
    assert len(result.visible) == 4
    assert calls[-3:] == [[], [], []]  # the drain steps


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 0.9) == 90.0
    assert percentile(values, 0.5) == 50.0
    assert percentile([3.0], 0.9) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_self_time_subtracts_the_union_of_children():
    clock = FakeClock()
    spans = SpanRecorder(True, clock=clock)
    with spans.span("parent"):
        clock.now += 1
        with spans.span("child"):
            clock.now += 2
        with spans.span("child"):
            clock.now += 3
        clock.now += 4
    assert spans.self_times() == pytest.approx({"parent": 5.0, "child": 5.0})
    assert spans.durations()["child"] == pytest.approx([2.0, 3.0])
    root = spans.spans[0]["id"]
    assert all(span["root"] == root for span in spans.spans)


def test_disabled_recorder_records_nothing():
    spans = SpanRecorder(False)
    with spans.span("x") as span:
        assert span is None
    assert spans.spans == [] and spans.self_times() == {}


def test_checks_count_failures():
    checks = Checks()
    checks.op()
    checks.check("good", True)
    checks.check("bad", False, "detail")
    assert (checks.attempted, checks.failed) == (3, 1)
    assert checks.error_rate == pytest.approx(1 / 3)


@pytest.fixture(scope="module")
def small_report():
    from repro.core.dataset import StudyDataset
    from repro.core.pipeline import WearableStudy
    from repro.simnet.config import SimulationConfig
    from repro.simnet.simulator import Simulator

    output = Simulator(SimulationConfig.small(seed=7)).run()
    return WearableStudy(StudyDataset.from_simulation(output)).run_all()


def test_perturbed_report_is_caught(small_report):
    assert exact_diff(small_report, small_report) == []
    changed = perturbed(small_report)
    assert exact_diff(changed, small_report) == ["encounters"]
    assert exact_digest(changed) != exact_digest(small_report)
    checks = Checks()
    check_self_test(checks, small_report, exact_diff)
    assert (checks.attempted, checks.failed) == (1, 0)
    # A comparison that ignores the perturbation fails the self-test.
    check_self_test(checks, small_report, lambda a, b: [])
    assert (checks.attempted, checks.failed) == (2, 1)
