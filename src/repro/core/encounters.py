"""Sector-co-presence encounters and their relation to traffic (§ext).

Alipour et al. (PAPERS.md) relate mobile *encounters* — two devices
co-located in time and space — to web-traffic behaviour.  The study's
MME sector attachments and proxy transaction streams are exactly the
inputs needed, so this module adds the first per-*pair* analysis of the
reproduction: sector-co-presence encounter detection as a scalable
spatio-temporal join, plus three figure panels on top of it.

Encounter definition
--------------------
Dwell intervals come from :meth:`SectorTimeline.dwell_intervals` (each
attachment dwells until the next event or the end of its study day).
Time is cut into :data:`BUCKET_SECONDS` buckets relative to the study
start; a dwell interval is clipped into every bucket it overlaps.  Two
subscribers *encounter* each other in cell ``(sector, bucket)`` when the
total intersection of their clipped dwell intervals inside that cell is
at least :data:`MIN_OVERLAP_SECONDS`.  Every qualifying cell contributes
one encounter *event* to the pair; a pair's *partners* relation is the
event-count-agnostic edge set.  Only the detailed window is joined — the
rest of the study has no per-transaction proxy rows to correlate
against.

The join as a sharded per-sector sweep
--------------------------------------
:func:`join_intervals` sweeps each sector's intervals in start order
against the still-open ones; every overlap of two subscribers gives one
intersection ``[s, e)``.  Its *interior* buckets are covered whole, and
since a subscriber's own intervals never overlap no other piece of that
pair can reach them, so each is one event.  Its two *edge* buckets add
``min(e, bucket_end) − max(s, bucket_start)`` into a per-``(pair,
bucket)`` sum that is one event if it reaches the threshold.  This is
bit-exact against the cell definition: ``max``/``min`` clipping is
exact, buckets use the same ``study_start + k * BUCKET_SECONDS`` grid
and half-open end rule, and a pair's intersections are found in time
order, so each cell sums the same pieces in the same order from
``0.0``.  Working state is one sector's open intervals and edge sums,
never one entry per ``(sector, bucket)`` cell.

The join partitions by *sector*: worker ``s`` of ``n`` keeps only
sectors with ``crc32(sector_id) % n == s``.  An event belongs to exactly
one cell, hence one worker, so per-pair counts merge by integer
addition (bit-exact tier of :mod:`repro.core.parallel`); partner sets
and per-subscriber totals are derived from them at finalize.

:func:`stream_dwell_intervals` reproduces the batch timelines without
materialising them: over the canonically time-ordered MME stream it
keeps one pending attachment per subscriber and closes intervals as the
stream advances.  Equality with the batch path relies on
:class:`SectorTimeline` sorting stably by timestamp — same-timestamp
events keep MME record order on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator
from zlib import crc32

from repro.core.dataset import StudyDataset, StudyWindow
from repro.core.mobility import build_timelines
from repro.logs.records import MmeRecord
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.stats.cdf import ECDF
from repro.stats.correlation import BinnedTrend, binned_means, pearson

#: Width of the join's time buckets (one hour, as in Alipour et al.).
BUCKET_SECONDS = 3600.0
#: Minimum co-presence inside one cell to count as an encounter event.
MIN_OVERLAP_SECONDS = 60.0
#: A paired wearable is "fully explained" when at least this fraction of
#: its non-household partners are also partners of its paired phone.
EXPLAINED_THRESHOLD = 0.9

__all__ = [
    "BUCKET_SECONDS",
    "EXPLAINED_THRESHOLD",
    "MIN_OVERLAP_SECONDS",
    "EncountersResult",
    "analyze_encounters",
    "join_intervals",
    "sector_shard",
    "stream_dwell_intervals",
    "summarize_encounters",
]


def sector_shard(sector_id: str, shards: int) -> int:
    """Shard owning a sector's join cells (``crc32(sector_id) % shards``).

    Deliberately the same hash family as the account partition
    (:func:`repro.logs.io.subscriber_shard`) but keyed on the *sector*:
    encounter pairs straddle billing accounts, so the join stage routes
    by where the encounter happens, not by who is involved.
    """
    return crc32(sector_id.encode("utf-8")) % shards


def join_intervals(
    intervals: Iterable[tuple[str, str, float, float]],
    study_start: float,
    *,
    shard: int = 0,
    shards: int = 1,
) -> dict[tuple[str, str], int]:
    """Encounter events per subscriber pair, by a per-sector sweep.

    ``intervals`` yields ``(subscriber, sector, start, end)`` non-empty
    half-open dwell intervals; a subscriber's own intervals must never
    overlap (both interval sources, :meth:`SectorTimeline.dwell_intervals`
    and :func:`stream_dwell_intervals`, guarantee it).  Intervals in sectors
    not owned by ``shard`` (per :func:`sector_shard`) are dropped, which
    keeps the sharded join disjoint.  Returns ``{(a, b): events}`` with
    ``a < b``, in sorted pair order.
    """
    by_sector: dict[str, list[tuple[float, float, str]] | None] = {}
    for subscriber, sector, start, end in intervals:
        if sector not in by_sector:
            owned = shards == 1 or sector_shard(sector, shards) == shard
            by_sector[sector] = [] if owned else None
        rows = by_sector[sector]
        if rows is not None:
            rows.append((start, end, subscriber))
    pair_events: dict[tuple[str, str], int] = {}
    for rows in by_sector.values():
        if rows is not None:
            _sweep_sector(rows, study_start, pair_events)
    return {pair: pair_events[pair] for pair in sorted(pair_events)}


def _sweep_sector(
    rows: list[tuple[float, float, str]],
    study_start: float,
    pair_events: dict[tuple[str, str], int],
) -> None:
    """Fold one sector's ``(start, end, subscriber)`` rows into events.

    See the module docstring for the interior/edge bucket rule.  Bucket
    bounds are compared as offsets from ``study_start`` and rebuilt as
    ``study_start + k * BUCKET_SECONDS``, exactly as the cell definition
    computes them.
    """
    rows.sort(key=itemgetter(0))
    # (a, b, bucket) → summed overlap of the pair's pieces in that cell.
    edge_sums: dict[tuple[str, str, int], float] = {}
    active: list[tuple[float, float, str]] = []
    for row in rows:
        start, end, subscriber = row
        active = [other for other in active if other[1] > start]
        first = int((start - study_start) // BUCKET_SECONDS)
        bottom = first * BUCKET_SECONDS
        top = bottom + BUCKET_SECONDS
        first_start = study_start + bottom
        first_end = first_start + BUCKET_SECONDS
        head = start if start > first_start else first_start
        for _, other_end, partner in active:
            stop = end if end < other_end else other_end
            offset = stop - study_start
            if offset <= bottom:  # rounds onto the grid line: no shared cell
                continue
            a, b = (
                (subscriber, partner)
                if subscriber < partner
                else (partner, subscriber)
            )
            piece = (stop if stop < first_end else first_end) - head
            if piece > 0.0:
                key = (a, b, first)
                edge_sums[key] = edge_sums.get(key, 0.0) + piece
            if offset <= top:  # ends in the first bucket (or on its end)
                continue
            last = int(offset // BUCKET_SECONDS)
            if offset % BUCKET_SECONDS == 0.0:
                last -= 1
            if last > first + 1:
                pair = (a, b)
                pair_events[pair] = pair_events.get(pair, 0) + last - first - 1
            last_start = study_start + last * BUCKET_SECONDS
            last_end = last_start + BUCKET_SECONDS
            piece = (stop if stop < last_end else last_end) - (
                start if start > last_start else last_start
            )
            if piece > 0.0:
                key = (a, b, last)
                edge_sums[key] = edge_sums.get(key, 0.0) + piece
        active.append(row)
    for (a, b, _), total in edge_sums.items():
        if total >= MIN_OVERLAP_SECONDS:
            pair = (a, b)
            pair_events[pair] = pair_events.get(pair, 0) + 1


def _day_end(timestamp: float, study_start: float) -> float:
    return (
        study_start
        + (int((timestamp - study_start) // SECONDS_PER_DAY) + 1)
        * SECONDS_PER_DAY
    )


def stream_dwell_intervals(
    records: Iterable[MmeRecord],
    window: StudyWindow,
    *,
    seen: set[str] | None = None,
) -> Iterator[tuple[str, str, float, float]]:
    """Dwell intervals from a canonically ordered full MME stream.

    Single pass, O(live subscribers) state: one pending attachment per
    subscriber, closed by that subscriber's next event or its study-day
    end — exactly the :meth:`SectorTimeline.dwell_intervals` rule over
    the detailed window, without materialising timelines.  Yields
    ``(subscriber, sector, start, end)``; a subscriber's intervals come
    out in timeline order (interleaved across subscribers).

    The stream must be in canonical time order (engine traces are
    written sorted; lenient ingestion re-sorts) — a decreasing timestamp
    raises rather than silently mis-closing intervals.  ``seen``, when
    given, collects every subscriber with at least one interval.
    """
    pending: dict[str, tuple[float, str]] = {}
    previous_ts = float("-inf")
    for record in records:
        timestamp = record.timestamp
        if timestamp < previous_ts:
            raise ValueError(
                "MME stream is not in canonical time order "
                f"({timestamp} after {previous_ts})"
            )
        previous_ts = timestamp
        if not window.in_detailed(timestamp):
            continue
        subscriber = record.subscriber_id
        previous = pending.get(subscriber)
        if previous is not None:
            start, sector = previous
            until = min(timestamp, _day_end(start, window.study_start))
            if until > start:
                if seen is not None:
                    seen.add(subscriber)
                yield subscriber, sector, start, until
        pending[subscriber] = (timestamp, record.sector_id)
    for subscriber, (start, sector) in pending.items():
        until = _day_end(start, window.study_start)
        if until > start:
            if seen is not None:
                seen.add(subscriber)
            yield subscriber, sector, start, until


@dataclass(frozen=True, slots=True)
class EncountersResult:
    """The three encounter panels (§ext, Alipour et al. replication)."""

    #: Subscribers contributing at least one dwell interval to the join.
    n_subscribers: int
    #: Distinct encountering pairs / total encounter events.
    n_pairs: int
    n_events: int
    #: Pair mix by SIM class of the two members.
    pairs_wearable_wearable: int
    pairs_wearable_phone: int
    pairs_phone_phone: int
    #: Encounter degree (distinct partners) per subscriber, by class —
    #: zero-degree subscribers included.
    wearable_degree: ECDF
    phone_degree: ECDF
    mean_wearable_degree: float
    mean_phone_degree: float
    #: Panel 1: encounter events vs proxy traffic per wearable
    #: subscriber (Pearson + binned trend over transaction counts, plus
    #: the byte-volume correlation).
    encounter_tx_correlation: float
    encounter_bytes_correlation: float
    encounter_vs_tx_rate: list[BinnedTrend]
    #: Panel 3: through-device contact inference over billing pairs.
    paired_wearables: int
    colocated_with_phone_fraction: float
    mean_explained_fraction: float
    fully_explained_fraction: float


def summarize_encounters(
    *,
    pair_events: dict[tuple[str, str], int],
    seen_subscribers: set[str],
    wearable_subs: set[str],
    phone_subs: set[str],
    tx_count: dict[str, int],
    tx_bytes: dict[str, int],
    account_wearables: dict[str, set[str]],
    account_phones: dict[str, set[str]],
) -> EncountersResult:
    """Fold the join + per-account accumulators into the figure panels.

    Shared verbatim by the batch path and the parallel finalize: every
    fold iterates *sorted* keys, so equal accumulators produce
    bit-identical results regardless of how they were assembled
    (merge-exactness tier: exact for counts/sets, deterministic
    order-fixed folds for the float statistics).  Partner sets and
    per-subscriber event totals are derived here from ``pair_events``.
    """
    if not wearable_subs or not phone_subs:
        raise ValueError(
            "need detailed-window MME events for both wearable and phone SIMs"
        )

    # Pair mix by class: a subscriber id belongs to exactly one SIM.
    partners: dict[str, set[str]] = {}
    sub_events: dict[str, int] = {}
    ww = wp = pp = 0
    for (a, b), events in pair_events.items():
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
        sub_events[a] = sub_events.get(a, 0) + events
        sub_events[b] = sub_events.get(b, 0) + events
        a_wear = a in wearable_subs
        b_wear = b in wearable_subs
        if a_wear and b_wear:
            ww += 1
        elif a_wear or b_wear:
            wp += 1
        else:
            pp += 1

    wearable_ids = sorted(wearable_subs)
    phone_ids = sorted(phone_subs)
    wearable_degrees = [float(len(partners.get(s, ()))) for s in wearable_ids]
    phone_degrees = [float(len(partners.get(s, ()))) for s in phone_ids]

    # Panel 1: encounter activity vs proxy traffic, wearable subscribers.
    xs = [float(sub_events.get(s, 0)) for s in wearable_ids]
    tx_ys = [float(tx_count.get(s, 0)) for s in wearable_ids]
    byte_ys = [float(tx_bytes.get(s, 0)) for s in wearable_ids]
    tx_correlation = pearson(xs, tx_ys) if len(xs) >= 2 else 0.0
    byte_correlation = pearson(xs, byte_ys) if len(xs) >= 2 else 0.0
    trend = binned_means(xs, tx_ys, bins=8) if xs else []

    # Panel 3: is a wearable's contact graph explained by its paired
    # phone?  Pairing is the billing join — same account, one wearable
    # SIM plus at least one phone SIM.
    paired = 0
    colocated = 0
    explained: list[float] = []
    fully = 0
    for account in sorted(account_wearables):
        phones = account_phones.get(account)
        if not phones:
            continue
        phone_partner_union: set[str] = set()
        for phone in phones:
            phone_partner_union |= partners.get(phone, set())
        for wearable in sorted(account_wearables[account]):
            paired += 1
            contacts = partners.get(wearable, set())
            if contacts & phones:
                colocated += 1
            outside = contacts - phones
            if not contacts:
                continue
            fraction = (
                len(outside & phone_partner_union) / len(outside)
                if outside
                else 1.0
            )
            explained.append(fraction)
            if fraction >= EXPLAINED_THRESHOLD:
                fully += 1

    return EncountersResult(
        n_subscribers=len(seen_subscribers),
        n_pairs=len(pair_events),
        n_events=sum(pair_events.values()),
        pairs_wearable_wearable=ww,
        pairs_wearable_phone=wp,
        pairs_phone_phone=pp,
        wearable_degree=ECDF(wearable_degrees),
        phone_degree=ECDF(phone_degrees),
        mean_wearable_degree=sum(wearable_degrees) / len(wearable_degrees),
        mean_phone_degree=sum(phone_degrees) / len(phone_degrees),
        encounter_tx_correlation=tx_correlation,
        encounter_bytes_correlation=byte_correlation,
        encounter_vs_tx_rate=trend,
        paired_wearables=paired,
        colocated_with_phone_fraction=colocated / paired if paired else 0.0,
        mean_explained_fraction=(
            sum(explained) / len(explained) if explained else 0.0
        ),
        fully_explained_fraction=fully / len(explained) if explained else 0.0,
    )


def consume_classification(
    dataset: StudyDataset,
    *,
    wearable_subs: set[str],
    phone_subs: set[str],
    tx_count: dict[str, int],
    tx_bytes: dict[str, int],
    account_wearables: dict[str, set[str]],
    account_phones: dict[str, set[str]],
) -> None:
    """Fold one dataset's per-account side into the accumulators.

    SIM classification (detailed-window MME by TAC), per-subscriber
    detailed proxy traffic, and the billing pairing maps.  This side
    partitions by *account* — in the parallel path each worker feeds its
    account-shard dataset, and the merged accumulators are disjoint-key
    unions (bit-exact tier).
    """
    window = dataset.window
    for record in dataset.wearable_mme:
        if window.in_detailed(record.timestamp):
            wearable_subs.add(record.subscriber_id)
    for record in dataset.phone_mme:
        if window.in_detailed(record.timestamp):
            phone_subs.add(record.subscriber_id)
    for record in dataset.proxy_records:
        if not window.in_detailed(record.timestamp):
            continue
        subscriber = record.subscriber_id
        tx_count[subscriber] = tx_count.get(subscriber, 0) + 1
        tx_bytes[subscriber] = tx_bytes.get(subscriber, 0) + record.total_bytes
    for subscriber in sorted(wearable_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_wearables.setdefault(account, set()).add(subscriber)
    for subscriber in sorted(phone_subs):
        account = dataset.account_of(subscriber)
        if account is not None:
            account_phones.setdefault(account, set()).add(subscriber)


def analyze_encounters(dataset: StudyDataset) -> EncountersResult:
    """Batch encounter detection + panels over one dataset.

    Builds detailed-window timelines for *all* SIMs (the join does not
    care who owns the sector) and joins their dwell intervals with
    :func:`join_intervals`.  The parallel path
    (:class:`repro.core.parallel.EncountersPartial`) recomputes the same
    accumulators shard by shard; both finalize through
    :func:`summarize_encounters`.
    """
    window = dataset.window
    detailed = [
        r for r in dataset.mme_records if window.in_detailed(r.timestamp)
    ]
    timelines = build_timelines(detailed)
    if not timelines:
        raise ValueError("need detailed-window MME events for encounters")

    seen_subscribers: set[str] = set()

    def _intervals() -> Iterator[tuple[str, str, float, float]]:
        for subscriber, timeline in timelines.items():
            intervals = timeline.dwell_intervals(window.study_start)
            if intervals:
                seen_subscribers.add(subscriber)
            for sector, start, end in intervals:
                yield subscriber, sector, start, end

    pair_events = join_intervals(_intervals(), window.study_start)

    wearable_subs: set[str] = set()
    phone_subs: set[str] = set()
    tx_count: dict[str, int] = {}
    tx_bytes: dict[str, int] = {}
    account_wearables: dict[str, set[str]] = {}
    account_phones: dict[str, set[str]] = {}
    consume_classification(
        dataset,
        wearable_subs=wearable_subs,
        phone_subs=phone_subs,
        tx_count=tx_count,
        tx_bytes=tx_bytes,
        account_wearables=account_wearables,
        account_phones=account_phones,
    )

    return summarize_encounters(
        pair_events=pair_events,
        seen_subscribers=seen_subscribers,
        wearable_subs=wearable_subs,
        phone_subs=phone_subs,
        tx_count=tx_count,
        tx_bytes=tx_bytes,
        account_wearables=account_wearables,
        account_phones=account_phones,
    )
