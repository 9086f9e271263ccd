"""Equivalence tests: per-record folds vs the batch analyses."""

import pytest

from repro.core.activity import analyze_activity
from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.parallel import RESERVOIR_SIZE, ActivityPartial
from repro.core.streaming import StreamingWeekly
from repro.devicedb import builtin_database
from repro.logs.records import ProxyRecord
from repro.logs.timeutil import SECONDS_PER_DAY, SECONDS_PER_HOUR, parse_timestamp
from repro.simnet.topology import Sector, SectorMap
from repro.stats.geo import GeoPoint


class TestNonMidnightStudyStart:
    """Regression: folded hour buckets must be wall-clock hours.

    A one-pass activity fold once bucketed hours with
    ``(ts - study_start) % 86_400 // 3_600``, which only matches the batch
    analysis (``hour_of_day``) when ``study_start`` is midnight-aligned.
    With a 05:30 study start, two transactions inside the same wall-clock
    hour landed in *different* offset buckets, inflating
    ``mean_active_hours_per_day``.
    """

    # Midnight UTC plus 5.5 hours: deliberately not day-aligned.
    MIDNIGHT = parse_timestamp("2017-12-15T00:00:00")
    START = MIDNIGHT + 5 * SECONDS_PER_HOUR + 1800

    @pytest.fixture(scope="class")
    def wearable_imei(self):
        tac = sorted(builtin_database().wearable_tacs())[0]
        return tac + "0000011"

    def _dataset(self, records, total_days=14):
        window = StudyWindow(
            study_start=self.START, total_days=total_days, detailed_days=total_days
        )
        return StudyDataset(
            proxy_records=records,
            mme_records=[],
            device_db=builtin_database(),
            sector_map=SectorMap(
                [Sector("S001-001", GeoPoint(40.0, -3.0))]
            ),
            account_directory={},
            window=window,
        )

    @staticmethod
    def _fold(dataset):
        partial = ActivityPartial.create(0, 0)
        partial.consume(dataset)
        return partial.finalize(dataset.window)

    def test_same_wall_clock_hour_is_one_active_hour(self, wearable_imei):
        """01:00 and 01:30 on the same day are ONE active hour.

        Under the old offset arithmetic (study start 05:30) they fell into
        buckets 19 and 20, i.e. two active hours.
        """
        day1 = self.MIDNIGHT + SECONDS_PER_DAY
        records = [
            ProxyRecord(
                timestamp=day1 + SECONDS_PER_HOUR + offset,
                subscriber_id="s1",
                imei=wearable_imei,
                host="api.example.com",
                bytes_down=512,
            )
            for offset in (0.0, 1800.0)
        ]
        dataset = self._dataset(records)
        streaming = self._fold(dataset)
        assert streaming.mean_active_hours_per_day == 1.0
        batch = analyze_activity(dataset)
        assert streaming.mean_active_hours_per_day == pytest.approx(
            batch.mean_active_hours_per_day
        )

    def test_streaming_matches_batch_across_hours_and_days(self, wearable_imei):
        """Dense synthetic stream: exact aggregate equivalence."""
        records = []
        for user in range(5):
            for day in range(1, 13):
                for hour in (0, 5, 6, 11, 18, 23):
                    if (user + day + hour) % 3 == 0:
                        continue
                    records.append(
                        ProxyRecord(
                            timestamp=self.MIDNIGHT
                            + day * SECONDS_PER_DAY
                            + hour * SECONDS_PER_HOUR
                            + 60.0 * user,
                            subscriber_id=f"u{user}",
                            imei=wearable_imei,
                            host="cloud.example.com",
                            bytes_down=1000 + hour,
                        )
                    )
        dataset = self._dataset(records)
        batch = analyze_activity(dataset)
        streaming = self._fold(dataset)
        assert len(streaming.transaction_sizes) == len(batch.transaction_sizes)
        assert streaming.mean_tx_bytes == pytest.approx(batch.mean_tx_bytes)
        assert streaming.mean_active_days_per_week == pytest.approx(
            batch.mean_active_days_per_week
        )
        assert streaming.mean_active_hours_per_day == pytest.approx(
            batch.mean_active_hours_per_day
        )


class TestReservoirSeedConvention:
    """Satellite regression: the activity reservoir seed used to be
    hardcoded (`seed=0`), so every shard of a parallel run drew the
    identical sample pattern.  It is now derived from the study seed and
    shard id via the engine's ``seed:concern:key`` stream convention."""

    def _sample(self, *, seed, shard):
        reservoir = ActivityPartial.create(seed, shard).reservoir
        reservoir.extend(float(value) for value in range(2 * RESERVOIR_SIZE))
        return reservoir.sample

    def test_shards_draw_different_samples(self):
        a = self._sample(seed=7, shard=0)
        b = self._sample(seed=7, shard=1)
        assert a != b

    def test_fixed_seed_and_shard_reproducible(self):
        one = self._sample(seed=7, shard=3)
        two = self._sample(seed=7, shard=3)
        assert one == two

    def test_seed_changes_sample(self):
        a = self._sample(seed=7, shard=0)
        b = self._sample(seed=8, shard=0)
        assert a != b


class TestStreamingMergeDifferential:
    """The weekly aggregator split by account shard then merged must
    agree with one aggregator consuming the whole stream."""

    def test_weekly_merge_exact(self, small_dataset):
        from repro.logs.io import shard_keep_predicate

        whole = StreamingWeekly(
            small_dataset.window, small_dataset.wearable_tacs
        ).consume(iter(small_dataset.proxy_records))
        parts = []
        for shard in range(3):
            keep = shard_keep_predicate(
                shard, 3, small_dataset.account_directory
            )
            parts.append(
                StreamingWeekly(
                    small_dataset.window, small_dataset.wearable_tacs
                ).consume(r for r in small_dataset.proxy_records if keep(r))
            )
        merged = parts[0]
        for other in parts[1:]:
            merged.merge(other)
        assert merged.result() == whole.result()
