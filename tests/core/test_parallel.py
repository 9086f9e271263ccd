"""Differential layer: the parallel map-reduce analysis vs the batch pipeline.

``repro.core.parallel`` recomputes every figure panel as merged
per-account-shard partial aggregates.  The merge protocol sorts report
fields into three exactness tiers (see the module docstring and
``docs/architecture.md``):

* **exact** — integer counts, set unions, min/max, integral byte sums,
  and everything derived from them by a single division: equality with
  the batch report is *bit-for-bit* at any shard count.
* **order-sensitive float folds** — per-user means, Pearson
  correlations, binned trends: the fold order differs from batch (sorted
  keys vs insertion order), so agreement is ~1e-9 relative, not exact.
* **reservoir-approximate** — the sampled transaction-size ECDF and the
  median derived from it: checked within bands only.

The worker count must never matter: at a fixed shard count the merged
report is bit-identical for 1 worker (serial fallback) and N processes.
"""

import dataclasses
import math

import pytest

from repro.core.parallel import ShardPartials, analyze_parallel
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.stats.cdf import ECDF

SHARD_COUNTS = [1, 4, 7]

#: Report fields in the "exact" tier: these come out of the merge
#: bit-identical to batch (including row *order* of per-app/per-model
#: tables, replicated via first-occurrence keys).
EXACT_FIELDS = [
    "census",
    "adoption",
    "comparison",
    "apps",
    "domains",
    "weekly",
    "protocols",
    "devices",
    # Encounters: integer join counts and set unions merge exactly, and
    # the float panels are deterministic sorted-key folds shared with
    # batch (see repro.core.encounters.summarize_encounters) — so the
    # whole result is bit-identical, not just ~1e-9 close.
    "encounters",
]

#: Activity fields that stay exact under sharding (derived from integer
#: accumulators or complete merged multisets).
ACTIVITY_EXACT = [
    "hourly",
    "active_days_per_week",
    "active_hours_per_day",
    "hourly_tx_per_user",
    "hourly_bytes_per_user",
    "mean_tx_bytes",
    "fraction_tx_under_10kb",
    "fraction_users_over_10h",
    "fraction_users_under_5h",
]

#: Activity fields that depend on the per-shard reservoir sample.
ACTIVITY_SAMPLED = ["transaction_sizes", "median_tx_bytes"]


def _approx_equal(a, b, rel, path=""):
    """Structural comparison: floats to ``rel``, everything else exact."""
    if isinstance(a, float) and isinstance(b, float):
        assert b == pytest.approx(a, rel=rel, abs=1e-12), path
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for field in dataclasses.fields(a):
            _approx_equal(
                getattr(a, field.name),
                getattr(b, field.name),
                rel,
                f"{path}.{field.name}",
            )
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _approx_equal(x, y, rel, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _approx_equal(a[key], b[key], rel, f"{path}[{key!r}]")
    else:
        assert a == b, path


@pytest.fixture(scope="module")
def batch_report(small_study):
    return small_study.run_all()


@pytest.fixture(scope="module")
def parallel_runs(small_trace_dir):
    """One ``analyze_parallel`` run per (shards, workers) combination."""
    runs = {}
    for shards in SHARD_COUNTS:
        for workers in (1, 4):
            runs[(shards, workers)] = analyze_parallel(
                small_trace_dir, shards=shards, workers=workers
            )
    return runs


class TestParallelVsBatch:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_exact_tier_is_bit_identical(
        self, parallel_runs, batch_report, shards, workers
    ):
        report = parallel_runs[(shards, workers)].report
        for name in EXACT_FIELDS:
            assert getattr(report, name) == getattr(batch_report, name), name

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_exact_fields(self, parallel_runs, batch_report, shards):
        par = parallel_runs[(shards, 1)].report.activity
        batch = batch_report.activity
        for name in ACTIVITY_EXACT:
            assert getattr(par, name) == getattr(batch, name), name
        # Ratio fields derived from exact sums by one division.
        assert par.mean_active_days_per_week == batch.mean_active_days_per_week
        assert par.mean_active_hours_per_day == batch.mean_active_hours_per_day
        assert (
            par.daily_active_share_of_weekly == batch.daily_active_share_of_weekly
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_float_folds_close(self, parallel_runs, batch_report, shards):
        par = parallel_runs[(shards, 1)].report.activity
        batch = batch_report.activity
        assert par.tx_rate_hours_correlation == pytest.approx(
            batch.tx_rate_hours_correlation, rel=1e-9
        )
        _approx_equal(
            batch.tx_rate_vs_hours, par.tx_rate_vs_hours, 1e-9, "tx_rate_vs_hours"
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_activity_sampled_quantiles_in_band(
        self, parallel_runs, batch_report, shards
    ):
        """Reservoir-derived quantiles: band agreement, never exactness."""
        par = parallel_runs[(shards, 1)].report.activity
        batch = batch_report.activity
        assert par.median_tx_bytes == pytest.approx(
            batch.median_tx_bytes, rel=0.25
        )
        for q in (0.25, 0.5, 0.75):
            assert par.transaction_sizes.quantile(q) == pytest.approx(
                batch.transaction_sizes.quantile(q), rel=0.30
            ), q

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_mobility_close(self, parallel_runs, batch_report, shards):
        par = parallel_runs[(shards, 1)].report.mobility
        _approx_equal(batch_report.mobility, par, 1e-9, "mobility")


class TestWorkerInvariance:
    """At a fixed shard count the report must not depend on the worker
    count — the merge happens in deterministic shard order either way."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_reports_bit_identical(self, parallel_runs, shards):
        serial = parallel_runs[(shards, 1)].report
        pooled = parallel_runs[(shards, 4)].report
        assert serial == pooled

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_row_accounting_identical(self, parallel_runs, shards):
        serial = parallel_runs[(shards, 1)]
        pooled = parallel_runs[(shards, 4)]
        assert serial.proxy_rows == pooled.proxy_rows
        assert serial.mme_rows == pooled.mme_rows
        assert [s.shard for s in serial.shard_stats] == [
            s.shard for s in pooled.shard_stats
        ]


class TestMemoryBound:
    def test_peak_residency_is_one_shard_not_the_trace(self, parallel_runs):
        """The map-reduce memory bound: a worker only ever holds its own
        shard's records, so peak residency is the largest shard."""
        run = parallel_runs[(4, 4)]
        total = run.proxy_rows + run.mme_rows
        assert run.peak_resident_records < total
        assert run.peak_resident_records == max(
            s.resident_records for s in run.shard_stats
        )
        # Shards partition the rows: nothing lost, nothing duplicated.
        assert sum(s.resident_records for s in run.shard_stats) == total
        assert all(s.resident_records > 0 for s in run.shard_stats)

    def test_more_shards_lower_peak(self, parallel_runs):
        assert (
            parallel_runs[(7, 1)].peak_resident_records
            < parallel_runs[(1, 1)].peak_resident_records
        )


class TestShardPartialProtocol:
    def test_merge_is_associative_on_partials(self, small_trace_dir):
        """merge(merge(a, b), c) == merge(a, merge(b, c)) at report level."""
        from repro.core.dataset import StudyDataset

        parts = [
            ShardPartials.compute(
                StudyDataset.load(small_trace_dir, shard=shard, shards=3),
                shard=shard,
            )
            for shard in range(3)
        ]
        left = parts[0].merge(parts[1]).merge(parts[2])
        # ``merge`` mutates the receiver, so recompute for the right fold.
        parts = [
            ShardPartials.compute(
                StudyDataset.load(small_trace_dir, shard=shard, shards=3),
                shard=shard,
            )
            for shard in range(3)
        ]
        right = parts[0].merge(parts[1].merge(parts[2]))
        from repro.core.dataset import TraceArtifacts
        from repro.simnet.appcatalog import builtin_app_catalog

        artifacts = TraceArtifacts.load(small_trace_dir)
        window, device_db = artifacts.window, artifacts.device_db
        cats = {app.name: app.category for app in builtin_app_catalog()}
        assert left.finalize(window, device_db, cats) == right.finalize(
            window, device_db, cats
        )

    def test_shard_zero_required(self, small_trace_dir):
        with pytest.raises(ValueError, match="shards"):
            analyze_parallel(small_trace_dir, shards=0)


class TestShardedLoadPartition:
    """`StudyDataset.load(shard=...)` restricts to one account shard."""

    def test_shards_partition_the_trace(self, small_trace_dir):
        from repro.core.dataset import StudyDataset

        full = StudyDataset.load(small_trace_dir)
        pieces = [
            StudyDataset.load(small_trace_dir, shard=shard, shards=3)
            for shard in range(3)
        ]
        assert sum(len(p.proxy_records) for p in pieces) == len(
            full.proxy_records
        )
        assert sum(len(p.mme_records) for p in pieces) == len(full.mme_records)
        # Union preserves the multiset exactly (order within a shard is
        # the restriction of the full canonical order).
        merged = sorted(
            (r for p in pieces for r in p.proxy_records),
            key=lambda r: (r.timestamp, r.subscriber_id),
        )
        assert merged == sorted(
            full.proxy_records, key=lambda r: (r.timestamp, r.subscriber_id)
        )

    def test_account_mates_stay_together(self, small_trace_dir):
        """All subscribers of one account land in the same shard — the
        property that makes per-account aggregation shard-local."""
        from repro.core.dataset import StudyDataset
        from repro.logs.io import subscriber_shard

        full = StudyDataset.load(small_trace_dir)
        directory = full.account_directory
        by_account: dict[str, set[int]] = {}
        for sub, account in directory.items():
            by_account.setdefault(account, set()).add(
                subscriber_shard(sub, 5, directory)
            )
        assert by_account  # non-degenerate
        assert all(len(shards) == 1 for shards in by_account.values())


class TestChaosParallel:
    """Lenient parallel analysis of a corrupted trace: every worker
    scrubs the full stream (duplicate/order defects are stream-global),
    so quarantine accounting and the report match serial exactly."""

    @pytest.fixture(scope="class")
    def chaos_trace(self, small_trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("par-chaos") / "trace"
        corrupt_trace(small_trace_dir, out, FaultSpec.chaos(seed=23, rate=0.03))
        return out

    @pytest.fixture(scope="class")
    def chaos_runs(self, chaos_trace):
        return {
            workers: analyze_parallel(
                chaos_trace, shards=4, workers=workers, lenient=True
            )
            for workers in (1, 4)
        }

    def test_worker_invariance_under_chaos(self, chaos_runs):
        assert chaos_runs[1].report == chaos_runs[4].report

    def test_quarantine_matches_serial(self, chaos_trace, chaos_runs):
        from repro.core.dataset import StudyDataset

        serial = StudyDataset.load(chaos_trace, lenient=True)
        assert serial.quarantine is not None
        assert not serial.quarantine.ok  # faults really landed
        for run in chaos_runs.values():
            assert run.report.quarantine is not None
            assert (
                run.report.quarantine.to_dict() == serial.quarantine.to_dict()
            )

    def test_report_matches_batch_on_survivors(self, chaos_trace, chaos_runs):
        from repro.core.dataset import StudyDataset
        from repro.core.pipeline import WearableStudy

        batch = WearableStudy(
            StudyDataset.load(chaos_trace, lenient=True)
        ).run_all()
        par = chaos_runs[4].report
        for name in EXACT_FIELDS:
            assert getattr(par, name) == getattr(batch, name), name
        _approx_equal(batch.mobility, par.mobility, 1e-9, "mobility")
        assert par.activity.mean_tx_bytes == batch.activity.mean_tx_bytes


class TestExactSumProperty:
    """The exact-sum satellite feeds the merge protocol: byte totals are
    Shewchuk-exact, so shard-split totals recombine to the fsum answer."""

    def test_sharded_byte_total_equals_fsum(self, parallel_runs, small_dataset):
        run = parallel_runs[(7, 1)].report
        values = [
            float(r.total_bytes) for r in small_dataset.wearable_proxy_detailed
        ]
        expected = math.fsum(values)
        assert run.activity.mean_tx_bytes * len(values) == pytest.approx(
            expected, rel=1e-12
        )


class TestECDFEquality:
    def test_value_based_equality(self):
        assert ECDF([3.0, 1.0, 2.0]) == ECDF([1.0, 2.0, 3.0])
        assert ECDF([1.0, 2.0]) != ECDF([1.0, 2.0, 2.0])
        assert ECDF([1.0]) != object()
        assert hash(ECDF([2.0, 1.0])) == hash(ECDF([1.0, 2.0]))
