"""Differential layer: per-record folds vs batch analyses.

Independent implementations of the same paper statistics exist in this
repo (batch ``analyze_*``, the one-pass ``StreamingWeekly`` and the
map-reduce ``*Partial`` folds).  They share no accumulation code, so exact agreement between them is a
strong correctness signal.  This module checks that agreement

* on the pristine small simulation,
* with a deliberately non-midnight-aligned ``study_start``, and
* on a corrupted trace that was ingested leniently (quarantine-and-
  continue) — the surviving rows must produce identical answers from
  both code paths.
"""

import pytest

from repro.core.activity import analyze_activity
from repro.core.adoption import analyze_adoption
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import ActivityPartial, AdoptionPartial
from repro.core.streaming import StreamingWeekly
from repro.core.weekly import analyze_weekly
from repro.devicedb import builtin_database
from repro.logs.faults import FaultSpec, corrupt_trace
from repro.logs.records import ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, parse_timestamp
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint


def _assert_weekly_identical(streaming_result, batch):
    # WeeklyResult is a plain dataclass of lists/floats built with the
    # same accumulation order in both implementations, so equality is
    # exact, not approximate.
    assert streaming_result == batch


class TestStreamingWeeklyDifferential:
    @pytest.fixture(scope="class")
    def results(self, small_dataset):
        batch = analyze_weekly(small_dataset)
        streaming = (
            StreamingWeekly(small_dataset.window, small_dataset.wearable_tacs)
            .consume(iter(small_dataset.proxy_records))
            .result()
        )
        return batch, streaming

    def test_exact_equality(self, results):
        batch, streaming = results
        _assert_weekly_identical(streaming, batch)

    def test_indices_are_well_formed(self, results):
        batch, streaming = results
        assert len(streaming.weekday_tx_index) == 7
        assert len(streaming.relative_usage_by_hour) == 24
        assert streaming.max_daily_tx_deviation == batch.max_daily_tx_deviation

    def test_empty_stream_raises(self, small_dataset):
        empty = StreamingWeekly(small_dataset.window, small_dataset.wearable_tacs)
        with pytest.raises(ValueError, match="no wearable"):
            empty.result()


class TestNonMidnightWeekly:
    """Weekly buckets must be wall-clock, not study-start-relative."""

    MIDNIGHT = parse_timestamp("2017-12-15T00:00:00")
    START = MIDNIGHT + 5 * SECONDS_PER_HOUR + 1800

    @pytest.fixture(scope="class")
    def wearable_imei(self):
        tac = sorted(builtin_database().wearable_tacs())[0]
        return tac + "0000011"

    @pytest.fixture(scope="class")
    def phone_imei(self):
        db = builtin_database()
        imei = "99000000" + "0000042"
        assert imei[:8] not in db.wearable_tacs()
        return imei

    def _dataset(self, records, total_days=14):
        window = StudyWindow(
            study_start=self.START, total_days=total_days, detailed_days=total_days
        )
        return StudyDataset(
            proxy_records=records,
            mme_records=[],
            device_db=builtin_database(),
            sector_map=SectorMap([Sector("S001-001", GeoPoint(40.0, -3.0))]),
            account_directory={},
            window=window,
        )

    def test_streaming_matches_batch(self, wearable_imei, phone_imei):
        records = []
        for day in range(1, 13):
            for hour in (0, 6, 12, 19, 23):
                for user, imei in (("w0", wearable_imei), ("p0", phone_imei)):
                    if (day + hour + len(user)) % 4 == 0:
                        continue
                    records.append(
                        ProxyRecord(
                            timestamp=self.MIDNIGHT
                            + day * SECONDS_PER_DAY
                            + hour * SECONDS_PER_HOUR
                            + (60.0 if imei == wearable_imei else 120.0),
                            subscriber_id=user,
                            imei=imei,
                            host="cloud.example.com",
                            bytes_down=900 + hour,
                        )
                    )
        dataset = self._dataset(records)
        batch = analyze_weekly(dataset)
        streaming = (
            StreamingWeekly(dataset.window, dataset.wearable_tacs)
            .consume(records)
            .result()
        )
        _assert_weekly_identical(streaming, batch)


class TestQuarantinedTraceDifferential:
    """After lenient ingestion of a corrupted trace, batch and per-record
    fold code paths see the identical surviving record list and must agree."""

    @pytest.fixture(scope="class")
    def lenient_dataset(self, small_trace_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("diff-corrupt") / "trace"
        corrupt_trace(small_trace_dir, out, FaultSpec.chaos(seed=23, rate=0.03))
        dataset = StudyDataset.load(out, lenient=True)
        assert dataset.quarantine is not None
        assert not dataset.quarantine.ok  # faults really landed
        return dataset

    def test_activity_agrees(self, lenient_dataset):
        batch = analyze_activity(lenient_dataset)
        partial = ActivityPartial.create(0, 0)
        partial.consume(lenient_dataset)
        streaming = partial.finalize(lenient_dataset.window)
        assert len(streaming.transaction_sizes) == len(batch.transaction_sizes)
        assert streaming.mean_tx_bytes == pytest.approx(batch.mean_tx_bytes)
        assert streaming.mean_active_days_per_week == pytest.approx(
            batch.mean_active_days_per_week
        )
        assert streaming.mean_active_hours_per_day == pytest.approx(
            batch.mean_active_hours_per_day
        )

    def test_adoption_agrees(self, lenient_dataset):
        batch = analyze_adoption(lenient_dataset)
        partial = AdoptionPartial(total_days=lenient_dataset.window.total_days)
        partial.consume(lenient_dataset)
        streaming = partial.finalize(lenient_dataset.window)
        assert streaming.daily_counts == batch.daily_counts
        assert streaming.total_growth_percent == pytest.approx(
            batch.total_growth_percent
        )
        assert streaming.data_active_fraction == pytest.approx(
            batch.data_active_fraction
        )

    def test_weekly_agrees_exactly(self, lenient_dataset):
        batch = analyze_weekly(lenient_dataset)
        streaming = (
            StreamingWeekly(lenient_dataset.window, lenient_dataset.wearable_tacs)
            .consume(iter(lenient_dataset.proxy_records))
            .result()
        )
        _assert_weekly_identical(streaming, batch)
