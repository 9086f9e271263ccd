"""Naive reference for the encounter join: cell index + all-pairs join.

This is the encounter join as it was first written — an inverted index
``(sector, bucket) → subscriber → clipped intervals`` joined cell by
cell with an all-pairs interval intersection.  It is kept verbatim as
an independent oracle for :func:`repro.core.encounters.join_intervals`
(property tests) and as the baseline of the kernel speed floor in
``benchmarks/test_perf_encounters.py``.  :func:`oracle_join` wraps it
with the same signature and return value as ``join_intervals``.

The per-cell interval lists must be time-sorted per subscriber, so feed
each subscriber's intervals in time order (the dwell-interval sources
already do).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.encounters import (
    BUCKET_SECONDS,
    MIN_OVERLAP_SECONDS,
    sector_shard,
)


def _bucket_clips(
    start: float, end: float, study_start: float
) -> Iterator[tuple[int, float, float]]:
    """Clip ``[start, end)`` into ``(bucket, clip_start, clip_end)`` runs.

    Buckets index :data:`BUCKET_SECONDS` windows relative to the study
    start.  An interval ending exactly on a bucket edge does *not* enter
    the next bucket (intervals are half-open).
    """
    first = int((start - study_start) // BUCKET_SECONDS)
    last = int((end - study_start) // BUCKET_SECONDS)
    if (end - study_start) % BUCKET_SECONDS == 0.0:
        last -= 1
    for bucket in range(first, last + 1):
        bucket_start = study_start + bucket * BUCKET_SECONDS
        bucket_end = bucket_start + BUCKET_SECONDS
        yield bucket, max(start, bucket_start), min(end, bucket_end)


def build_cell_index(
    intervals: Iterable[tuple[str, str, float, float]],
    study_start: float,
    *,
    shard: int = 0,
    shards: int = 1,
) -> dict[tuple[str, int], dict[str, list[tuple[float, float]]]]:
    """Time-bucketed per-sector inverted index over dwell intervals.

    ``intervals`` yields ``(subscriber, sector, start, end)``; intervals
    in sectors not owned by ``shard`` (per :func:`sector_shard`) are
    dropped, which is what keeps the sharded join disjoint.  Per-cell
    interval lists preserve input order, so both the batch path
    (timeline order) and the streaming path (canonical stream order)
    produce identical cells.
    """
    index: dict[tuple[str, int], dict[str, list[tuple[float, float]]]] = {}
    for subscriber, sector, start, end in intervals:
        if shards > 1 and sector_shard(sector, shards) != shard:
            continue
        for bucket, clip_start, clip_end in _bucket_clips(
            start, end, study_start
        ):
            cell = index.setdefault((sector, bucket), {})
            cell.setdefault(subscriber, []).append((clip_start, clip_end))
    return index


def _overlap_seconds(
    left: list[tuple[float, float]], right: list[tuple[float, float]]
) -> float:
    """Total intersection of two sorted disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if end > start:
            total += end - start
        if left[i][1] <= right[j][1]:
            i += 1
        else:
            j += 1
    return total


def join_cells(
    index: dict[tuple[str, int], dict[str, list[tuple[float, float]]]],
    *,
    pair_events: dict[tuple[str, str], int],
    partners: dict[str, set[str]],
    sub_events: dict[str, int],
) -> int:
    """Join every cell of the index into the encounter accumulators.

    All-pairs within a cell, thresholded on total clipped overlap.
    Cells are visited in sorted key order and members in sorted id
    order, so accumulator *insertion* order is canonical (equal inputs
    produce byte-identical partial-state encodings).  Returns the number
    of encounter events found.
    """
    events = 0
    for key in sorted(index):
        cell = index[key]
        if len(cell) < 2:
            continue
        members = sorted(cell)
        for i, a in enumerate(members):
            a_intervals = cell[a]
            for b in members[i + 1 :]:
                if _overlap_seconds(a_intervals, cell[b]) < MIN_OVERLAP_SECONDS:
                    continue
                events += 1
                pair = (a, b)
                pair_events[pair] = pair_events.get(pair, 0) + 1
                sub_events[a] = sub_events.get(a, 0) + 1
                sub_events[b] = sub_events.get(b, 0) + 1
                partners.setdefault(a, set()).add(b)
                partners.setdefault(b, set()).add(a)
    return events


def oracle_join(
    intervals: Iterable[tuple[str, str, float, float]],
    study_start: float,
    *,
    shard: int = 0,
    shards: int = 1,
) -> dict[tuple[str, str], int]:
    """``join_intervals``' contract computed by index + all-pairs join."""
    index = build_cell_index(intervals, study_start, shard=shard, shards=shards)
    pair_events: dict[tuple[str, str], int] = {}
    join_cells(index, pair_events=pair_events, partners={}, sub_events={})
    return pair_events
