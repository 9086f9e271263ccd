"""Exact-value, boundary and property tests for the encounter join (§ext).

The join kernel is tested on hand-crafted intervals with known overlap
arithmetic and property-tested against the naive cell-index oracle in
:mod:`tests.core.encounters_oracle`; the panel folds are tested through
``summarize_encounters`` with hand-built accumulators (the simulator
never attaches owner-account phone SIMs to the MME, so panel 3 only
lights up on crafted data); the streaming interval extractor and the
sharded partials are property-tested against their batch counterparts.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.encounters import (
    BUCKET_SECONDS,
    MIN_OVERLAP_SECONDS,
    analyze_encounters,
    join_intervals,
    sector_shard,
    stream_dwell_intervals,
    summarize_encounters,
)
from repro.core.mobility import build_timelines
from repro.core.parallel import EncountersPartial
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.stats.cdf import ECDF
from tests.core.encounters_oracle import oracle_join
from tests.core.helpers import (
    PHONE_IMEI,
    PHONE_IMEI_2,
    WATCH_IMEI,
    WATCH_IMEI_2,
    day_ts,
    make_dataset,
    make_window,
    mme,
    proxy,
)

D = 14  # first detailed day
HOUR = BUCKET_SECONDS


def run_join(intervals, study_start=0.0):
    """Join hand-crafted ``(sub, sector, start, end)`` intervals."""
    pairs = join_intervals(intervals, study_start)
    return sum(pairs.values()), pairs


class TestJoinKernel:
    def test_simple_overlap_is_one_event(self):
        events, pairs = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "S", 900.0, 2000.0)]
        )
        assert events == 1
        assert pairs == {("a", "b"): 1}

    def test_pair_key_is_ordered_whoever_starts_first(self):
        _, pairs = run_join(
            [("b", "S", 0.0, 1800.0), ("a", "S", 900.0, 2000.0)]
        )
        assert pairs == {("a", "b"): 1}

    def test_below_threshold_is_ignored(self):
        events, pairs = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "S", 1750.0, 1800.0)]
        )
        assert events == 0 and pairs == {}

    def test_exactly_threshold_counts(self):
        events, _ = run_join(
            [
                ("a", "S", 0.0, MIN_OVERLAP_SECONDS),
                ("b", "S", 0.0, MIN_OVERLAP_SECONDS),
            ]
        )
        assert events == 1

    def test_pieces_in_one_cell_sum_to_threshold(self):
        # Two 30 s overlaps of the same pair inside bucket 0 add up to
        # exactly the threshold: one event, not zero and not two.
        events, pairs = run_join(
            [
                ("a", "S", 0.0, 30.0),
                ("a", "S", 600.0, 630.0),
                ("b", "S", 0.0, 1800.0),
            ]
        )
        assert events == 1 and pairs == {("a", "b"): 1}

    def test_edge_sum_rounds_like_the_cell_sum(self):
        # 29.99999999999999 + (3030.1 - 3000.1) rounds to just below
        # 60 s; adding the clip endpoints in another order would round
        # up and count an event the cell-by-cell definition does not.
        intervals = [
            ("b", "S", 0.0, HOUR),
            ("a", "S", 0.0, 29.99999999999999),
            ("a", "S", 3000.1, 3030.1),
        ]
        assert 29.99999999999999 + (3030.1 - 3000.1) < MIN_OVERLAP_SECONDS
        assert run_join(intervals) == (0, {})
        assert oracle_join(intervals, 0.0) == {}

    def test_different_sectors_never_meet(self):
        events, _ = run_join(
            [("a", "S", 0.0, 1800.0), ("b", "T", 0.0, 1800.0)]
        )
        assert events == 0

    def test_cohabiting_cell_with_empty_overlap(self):
        # Same cell, disjoint time: candidate pair, zero intersection.
        events, pairs = run_join(
            [("a", "S", 0.0, 100.0), ("b", "S", 200.0, 300.0)]
        )
        assert events == 0 and pairs == {}

    def test_overlap_spanning_bucket_edge_counts_per_cell(self):
        # [3500, 3700) × 2 → 100 s in bucket 0 and 100 s in bucket 1.
        events, pairs = run_join(
            [("a", "S", 3500.0, 3700.0), ("b", "S", 3500.0, 3700.0)]
        )
        assert events == 2
        assert pairs == {("a", "b"): 2}

    def test_interior_buckets_count_once_each(self):
        # [1800, 5 h + 30 s): edge buckets 0 (1800 s) and 5 (30 s, below
        # threshold), interior buckets 1-4 → 5 events.
        events, _ = run_join(
            [("a", "S", 1800.0, 5 * HOUR + 30.0), ("b", "S", 0.0, 6 * HOUR)]
        )
        assert events == 5

    def test_interval_ending_on_edge_stays_out_of_next_bucket(self):
        # Half-open intervals: a ends exactly where b begins — they never
        # share a cell, let alone a second of overlap.
        events, pairs = run_join(
            [("a", "S", 0.0, HOUR), ("b", "S", HOUR, 2 * HOUR)]
        )
        assert events == 0 and pairs == {}

    def test_short_overlap_ending_on_edge_is_summed_once(self):
        # 40 s ending exactly on the bucket edge: one piece in bucket 0,
        # below threshold — it must not also be booked as a last edge.
        events, pairs = run_join(
            [("a", "S", HOUR - 40.0, HOUR), ("b", "S", 0.0, 2 * HOUR)]
        )
        assert events == 0 and pairs == {}

    def test_bucket_grid_is_anchored_at_study_start(self):
        start = 12_345.0
        events, _ = run_join(
            [("a", "S", start, start + 100.0), ("b", "S", start, start + 100.0)],
            study_start=start,
        )
        assert events == 1

    def test_singleton_cells_are_skipped(self):
        events, _ = run_join([("a", "S", 0.0, 7200.0)])
        assert events == 0

    def test_sector_routing_partitions_cells(self):
        sectors = ("HOME", "WORK", "FAR", "X", "Y")
        intervals = [
            (sub, sector, 0.0, 1800.0) for sub in ("a", "b") for sector in sectors
        ]
        shards = 3
        for s in range(shards):
            piece = join_intervals(intervals, 0.0, shard=s, shards=shards)
            owned = sum(sector_shard(sector, shards) == s for sector in sectors)
            assert piece == ({("a", "b"): owned} if owned else {})
        assert join_intervals(intervals, 0.0) == {("a", "b"): len(sectors)}


# Interval sets biased toward the kernel's boundary cases: starts and
# ends on bucket edges, 60 s overlaps, many short pieces of one pair
# inside one hour, intervals spanning many buckets, non-zero grids.
_STEP = st.one_of(
    st.sampled_from(
        [0.0, 20.0, 30.0, 60.0, 90.0, HOUR - 60.0, HOUR - 30.0, HOUR, 3 * HOUR]
    ),
    st.floats(min_value=0.0, max_value=2 * HOUR),
)
_LENGTH = st.one_of(
    st.sampled_from(
        [20.0, 30.0, 60.0, 61.0, HOUR - 60.0, HOUR, 2 * HOUR, 9 * HOUR, 30 * HOUR]
    ),
    st.floats(min_value=1.0, max_value=12 * HOUR),
)
_TIMELINE = st.lists(
    st.tuples(_STEP, _LENGTH, st.sampled_from(["S", "T", "U"])),
    min_size=1,
    max_size=8,
)


@st.composite
def interval_sets(draw):
    """Per-subscriber disjoint time-ordered intervals, interleaved."""
    study_start = draw(st.sampled_from([0.0, 12_345.5, 1_513_296_000.0]))
    timelines = []
    for subscriber in draw(st.lists(
        st.sampled_from("abcde"), min_size=1, max_size=5, unique=True
    )):
        cursor = study_start + draw(_STEP)
        timeline = []
        for gap, length, sector in draw(_TIMELINE):
            start = cursor + gap
            cursor = start + length
            timeline.append((subscriber, sector, start, cursor))
        timelines.append(timeline)
    # Random interleaving that keeps each subscriber's time order.
    rng = draw(st.randoms(use_true_random=False))
    intervals = []
    while timelines:
        timeline = rng.choice(timelines)
        intervals.append(timeline.pop(0))
        if not timeline:
            timelines.remove(timeline)
    return intervals, study_start


class TestJoinMatchesOracle:
    @given(case=interval_sets(), shards=st.sampled_from([1, 3, 7]))
    @settings(max_examples=300, deadline=None)
    @example(
        case=(
            [
                ("a", "S", 0.0, HOUR),
                ("b", "S", HOUR - 60.0, 2 * HOUR),
                ("c", "S", HOUR, 3 * HOUR + 60.0),
                ("a", "S", 3 * HOUR, 3 * HOUR + 30.0),
                ("a", "S", 3 * HOUR + 40.0, 3 * HOUR + 70.0),
                ("d", "S", 3 * HOUR + 100.0, 5 * HOUR),
                ("b", "S", 4 * HOUR - 30.0, 4 * HOUR),
            ],
            0.0,
        ),
        shards=1,
    )
    def test_join_equals_cell_index_oracle(self, case, shards):
        intervals, study_start = case
        serial = join_intervals(intervals, study_start)
        assert serial == oracle_join(intervals, study_start)
        assert list(serial) == sorted(serial)
        summed: dict[tuple[str, str], int] = {}
        for shard in range(shards):
            piece = join_intervals(
                intervals, study_start, shard=shard, shards=shards
            )
            assert piece == oracle_join(
                intervals, study_start, shard=shard, shards=shards
            )
            for pair, count in piece.items():
                summed[pair] = summed.get(pair, 0) + count
        assert summed == serial


class TestStreamDwellIntervals:
    def test_rejects_decreasing_timestamps(self):
        records = [
            mme(day_ts(D, 100.0), "a"),
            mme(day_ts(D, 50.0), "a"),
        ]
        with pytest.raises(ValueError, match="canonical time order"):
            list(stream_dwell_intervals(iter(records), make_window()))

    def test_last_attachment_dwells_until_day_end(self):
        records = [mme(day_ts(D, 80_000.0), "a", sector="HOME")]
        out = list(stream_dwell_intervals(iter(records), make_window()))
        assert out == [("a", "HOME", day_ts(D, 80_000.0), day_ts(D + 1))]

    def test_outside_detailed_window_is_ignored(self):
        seen: set[str] = set()
        records = [mme(day_ts(2, 100.0), "a")]  # summary-only period
        out = list(
            stream_dwell_intervals(iter(records), make_window(), seen=seen)
        )
        assert out == [] and seen == set()

    def test_seen_collects_contributors(self):
        seen: set[str] = set()
        records = [
            mme(day_ts(D, 0.0), "a", sector="HOME"),
            mme(day_ts(D, 100.0), "b", sector="WORK"),
        ]
        list(stream_dwell_intervals(iter(records), make_window(), seen=seen))
        assert seen == {"a", "b"}


# Small pools force subscriber collisions (multi-event timelines) and
# same-timestamp ties; two days of offsets exercise the day-end close.
_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2 * int(SECONDS_PER_DAY) - 1),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["HOME", "WORK", "FAR"]),
    ),
    min_size=1,
    max_size=30,
)


def _records(events):
    """Canonically ordered MME records, ties keeping generation order."""
    return sorted(
        (
            mme(day_ts(D, offset), sub, sector=sector)
            for offset, sub, sector in events
        ),
        key=lambda r: r.timestamp,
    )


class TestStreamMatchesBatch:
    @given(events=_EVENTS)
    @settings(max_examples=50, deadline=None)
    def test_stream_equals_timeline_intervals(self, events):
        window = make_window()
        records = _records(events)
        streamed: dict[str, list] = {}
        for sub, sector, start, end in stream_dwell_intervals(
            iter(records), window
        ):
            streamed.setdefault(sub, []).append((sector, start, end))
        timelines = build_timelines(records)
        batch = {
            sub: timeline.dwell_intervals(window.study_start)
            for sub, timeline in timelines.items()
        }
        batch = {sub: ivs for sub, ivs in batch.items() if ivs}
        assert streamed == batch


class TestShardedPartials:
    @given(events=_EVENTS, shards=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=40, deadline=None)
    def test_sharded_union_equals_serial_join(self, events, shards):
        window = make_window()
        records = _records(events)
        serial = EncountersPartial()
        serial.consume_stream(iter(records), window)
        pieces = []
        for shard in range(shards):
            piece = EncountersPartial()
            piece.consume_stream(
                iter(records), window, shard=shard, shards=shards
            )
            pieces.append(piece)
        # Events are disjoint across shards: per-shard event counts sum
        # to the serial total with nothing double-counted.
        assert sum(
            sum(p.pair_events.values()) for p in pieces
        ) == sum(serial.pair_events.values())
        merged = pieces[0]
        for piece in pieces[1:]:
            merged.merge(piece)
        assert merged.pair_events == serial.pair_events
        assert merged.seen_subscribers == serial.seen_subscribers

    @given(events=_EVENTS, seed=st.integers(min_value=0, max_value=99))
    @settings(max_examples=25, deadline=None)
    def test_merge_order_is_immaterial(self, events, seed):
        window = make_window()
        records = _records(events)
        shards = 4

        def build(order):
            pieces = []
            for shard in order:
                piece = EncountersPartial()
                piece.consume_stream(
                    iter(records), window, shard=shard, shards=shards
                )
                pieces.append(piece)
            merged = pieces[0]
            for piece in pieces[1:]:
                merged.merge(piece)
            return merged.to_state()

        order = list(range(shards))
        shuffled = order[:]
        random.Random(seed).shuffle(shuffled)
        assert build(order) == build(shuffled)


def two_household_mme():
    """Two parallel trajectories plus a stranger and a loner.

    Day ``D``: wearable ``w1`` and its account-mate phone ``p1`` move
    HOME → FAR together at +2 h; stranger phone ``s1`` shows up at HOME
    at +1 h then spends the rest of the day at WORK with wearable
    ``w2``.
    """
    return [
        mme(day_ts(D, 0.0), "w1", imei=WATCH_IMEI, sector="HOME"),
        mme(day_ts(D, 0.0), "p1", imei=PHONE_IMEI, sector="HOME"),
        mme(day_ts(D, 0.0), "w2", imei=WATCH_IMEI_2, sector="WORK"),
        mme(day_ts(D, HOUR), "s1", imei=PHONE_IMEI_2, sector="HOME"),
        mme(day_ts(D, 2 * HOUR), "w1", imei=WATCH_IMEI, sector="FAR",
            event="handover"),
        mme(day_ts(D, 2 * HOUR), "p1", imei=PHONE_IMEI, sector="FAR",
            event="handover"),
        mme(day_ts(D, 2 * HOUR), "s1", imei=PHONE_IMEI_2, sector="WORK",
            event="handover"),
    ]


def two_household_dataset():
    proxy_records = [
        proxy(day_ts(D, 100.0), "w1", imei=WATCH_IMEI),
        proxy(day_ts(D, 200.0), "w1", imei=WATCH_IMEI),
        proxy(day_ts(D, 300.0), "w1", imei=WATCH_IMEI),
    ]
    return make_dataset(
        proxy_records,
        two_household_mme(),
        account_directory={"w1": "A", "p1": "A", "w2": "B", "s1": "C"},
        window=make_window(),
    )


class TestAnalyzeEncounters:
    """Exact encounter arithmetic on the two-household scenario.

    Per-pair events: (p1,w1) share HOME buckets 0-1 and FAR buckets 2-23
    → 24; (s1,w1) and (p1,s1) share HOME bucket 1 → 1 each; (s1,w2)
    share WORK buckets 2-23 → 22.  48 events over 4 pairs.
    """

    @pytest.fixture(scope="class")
    def result(self):
        return analyze_encounters(two_household_dataset())

    def test_headline_counts(self, result):
        assert result.n_subscribers == 4
        assert result.n_pairs == 4
        assert result.n_events == 48

    def test_pair_mix(self, result):
        assert result.pairs_wearable_wearable == 0
        assert result.pairs_wearable_phone == 3
        assert result.pairs_phone_phone == 1

    def test_degrees(self, result):
        # w1 met {p1, s1}; w2 met {s1}; p1 met {w1, s1}; s1 met everyone.
        assert result.mean_wearable_degree == pytest.approx(1.5)
        assert result.mean_phone_degree == pytest.approx(2.5)
        assert result.wearable_degree == ECDF([1.0, 2.0])
        assert result.phone_degree == ECDF([2.0, 3.0])

    def test_traffic_correlation(self, result):
        # Two wearables: (25 events, 3 tx) and (22 events, 0 tx) — a
        # perfectly monotone two-point relation.
        assert result.encounter_tx_correlation == pytest.approx(1.0)
        assert result.encounter_bytes_correlation == pytest.approx(1.0)
        assert result.encounter_vs_tx_rate

    def test_through_device_panel(self, result):
        # Only w1 is billing-paired; p1 tracked it everywhere and also
        # met its single outside partner s1.
        assert result.paired_wearables == 1
        assert result.colocated_with_phone_fraction == pytest.approx(1.0)
        assert result.mean_explained_fraction == pytest.approx(1.0)
        assert result.fully_explained_fraction == pytest.approx(1.0)

    def test_matches_streaming_partial(self, result):
        dataset = two_household_dataset()
        partial = EncountersPartial()
        partial.consume(dataset)
        partial.consume_stream(iter(dataset.mme_records), dataset.window)
        assert partial.finalize() == result


class TestSummarizePanels:
    """Hand-built accumulators for the fold edge cases the simulator
    cannot reach (it never attaches owner-account phones to the MME)."""

    @staticmethod
    def fold(**overrides):
        base = dict(
            pair_events={
                ("pa", "wa"): 1,
                ("wb", "x1"): 1,
                ("wb", "x2"): 1,
                ("pb", "x1"): 1,
            },
            seen_subscribers={"pa", "wa", "wb", "x1", "x2", "pb", "wc", "wd"},
            wearable_subs={"wa", "wb", "wc", "wd"},
            phone_subs={"pa", "pb", "pc", "x1", "x2"},
            tx_count={},
            tx_bytes={},
            account_wearables={
                "A": {"wa"},
                "B": {"wb"},
                "C": {"wc"},
                "D": {"wd"},
            },
            account_phones={"A": {"pa"}, "B": {"pb"}, "C": {"pc"}},
        )
        base.update(overrides)
        return summarize_encounters(**base)

    def test_explained_fractions(self):
        result = self.fold()
        # wa, wb, wc are paired (account D has no phone SIM).
        assert result.paired_wearables == 3
        # Only wa ever met its own phone.
        assert result.colocated_with_phone_fraction == pytest.approx(1 / 3)
        # wa: no outside partners → 1.0 by convention; wb: pb explains
        # x1 but not x2 → 0.5; wc: no contacts at all → not scored.
        assert result.mean_explained_fraction == pytest.approx(0.75)
        assert result.fully_explained_fraction == pytest.approx(0.5)

    def test_zero_degree_subscribers_enter_ecdfs(self):
        result = self.fold()
        assert result.wearable_degree == ECDF([0.0, 0.0, 1.0, 2.0])
        assert result.mean_wearable_degree == pytest.approx(0.75)

    def test_single_wearable_correlation_is_zero(self):
        result = self.fold(
            wearable_subs={"wa"},
            account_wearables={"A": {"wa"}},
        )
        assert result.encounter_tx_correlation == 0.0
        assert result.encounter_bytes_correlation == 0.0

    def test_missing_class_is_rejected(self):
        with pytest.raises(ValueError, match="both wearable and phone"):
            self.fold(phone_subs=set())
        with pytest.raises(ValueError, match="both wearable and phone"):
            self.fold(wearable_subs=set())

    def test_no_paired_wearables_yields_zero_fractions(self):
        result = self.fold(account_phones={"Z": {"pz"}})
        assert result.paired_wearables == 0
        assert result.colocated_with_phone_fraction == 0.0
        assert result.mean_explained_fraction == 0.0
        assert result.fully_explained_fraction == 0.0
