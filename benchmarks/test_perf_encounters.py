"""Encounter-join benchmarks: batch, streaming, and sharded kernels.

The encounter join (§ext, ``repro.core.encounters``) is the only
per-*pair* analysis in the pipeline, so it gets its own perf module.
Three timings over one ``medium`` trace:

* the batch path (timelines → per-sector interval sweep → panels) —
  baseline, what ``analyze --figures encounters`` pays;
* the streaming join (single-pass dwell extraction feeding the same
  sweep), the per-worker kernel of the parallel path;
* the four-way sector-sharded join plus merge — the map-reduce shape,
  which must reproduce the serial accumulators bit-for-bit.

``test_join_speedup_floor`` is a hard floor on the kernel itself: an
interleaved A/B of :func:`repro.core.encounters.join_intervals` against
the naive cell-index + all-pairs oracle in
``tests/core/encounters_oracle.py`` on the same dwell intervals.  The
measured ratio is recorded as the ``repro_encounters_join_speedup_x``
gauge so it lands in ``BENCH_repro.json``.
"""

import time

import pytest

from repro import obs
from repro.core.dataset import StudyDataset
from repro.core.encounters import (
    analyze_encounters,
    join_intervals,
    stream_dwell_intervals,
)
from repro.core.parallel import EncountersPartial
from repro.simnet.config import SimulationConfig
from repro.simnet.simulator import Simulator
from tests.core.encounters_oracle import oracle_join

SEED = 2018
SHARDS = 4
#: Interleaved rounds of the kernel A/B; each side reports its best.
SPEEDUP_ROUNDS = 5
#: The sweep must beat the cell-index oracle by at least this factor.
SPEEDUP_FLOOR = 3.0


@pytest.fixture(scope="module")
def encounters_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf-encounters") / "trace"
    Simulator(SimulationConfig.medium(seed=SEED)).run().write(out)
    return out


@pytest.fixture(scope="module")
def encounters_dataset(encounters_trace):
    return StudyDataset.load(encounters_trace)


def _account_side(dataset):
    partial = EncountersPartial()
    partial.consume(dataset)
    return partial


def test_perf_batch_encounters(benchmark, encounters_dataset):
    """Baseline: the full batch join + figure panels."""
    result = benchmark.pedantic(
        analyze_encounters, args=(encounters_dataset,), rounds=3, iterations=1
    )
    assert result.n_pairs > 0
    assert result.n_events >= result.n_pairs


def test_perf_streaming_join(benchmark, encounters_dataset):
    """The parallel path's per-worker kernel, unsharded."""

    def run():
        partial = _account_side(encounters_dataset)
        partial.consume_stream(
            iter(encounters_dataset.mme_records), encounters_dataset.window
        )
        return partial

    partial = benchmark.pedantic(run, rounds=3, iterations=1)
    assert partial.finalize() == analyze_encounters(encounters_dataset)


def test_perf_sharded_join_and_merge(benchmark, encounters_dataset):
    """Four sector shards joined independently, then merged."""

    def run():
        merged = _account_side(encounters_dataset)
        merged.consume_stream(
            iter(encounters_dataset.mme_records),
            encounters_dataset.window,
            shard=0,
            shards=SHARDS,
        )
        for shard in range(1, SHARDS):
            piece = EncountersPartial()
            piece.consume_stream(
                iter(encounters_dataset.mme_records),
                encounters_dataset.window,
                shard=shard,
                shards=SHARDS,
            )
            merged.merge(piece)
        return merged

    merged = benchmark.pedantic(run, rounds=3, iterations=1)
    assert merged.finalize() == analyze_encounters(encounters_dataset)


def test_join_speedup_floor(encounters_dataset):
    """The sweep kernel stays ≥3× faster than the cell-index oracle.

    Both sides join the same materialised dwell intervals, interleaved
    round by round so machine drift hits them equally; each side's best
    round is compared.
    """
    window = encounters_dataset.window
    intervals = list(
        stream_dwell_intervals(iter(encounters_dataset.mme_records), window)
    )
    kernels = {
        "oracle": lambda: oracle_join(intervals, window.study_start),
        "sweep": lambda: join_intervals(intervals, window.study_start),
    }
    samples: dict[str, list[float]] = {name: [] for name in kernels}
    results = {}
    with obs.span("bench.encounters_join_ab", intervals=len(intervals)):
        for _ in range(SPEEDUP_ROUNDS):
            for name, kernel in kernels.items():
                started = time.perf_counter()
                results[name] = kernel()
                samples[name].append(time.perf_counter() - started)
    assert results["sweep"] == results["oracle"]
    speedup = min(samples["oracle"]) / min(samples["sweep"])
    if obs.enabled():
        obs.metrics().gauge("repro_encounters_join_speedup_x").set(speedup)
    print(
        f"\nencounter join sweep vs cell index ({len(intervals)} intervals, "
        f"{sum(results['sweep'].values())} events): {speedup:.2f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"sweep join only {speedup:.2f}x faster than the cell-index oracle"
    )
