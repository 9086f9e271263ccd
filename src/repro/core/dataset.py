"""The study dataset: the raw artefacts every analysis consumes.

A :class:`StudyDataset` bundles the transparent-proxy log, the MME log, the
device database, the cell plan, the billing directory and the window
metadata — nothing else.  It can be built directly from a
:class:`~repro.simnet.simulator.SimulationOutput` (in-memory) or loaded
from a trace directory written by :meth:`SimulationOutput.write`, so the
analyses run identically on live objects and on exported CSVs (or, with
the same schemas, on a real operator export).

The class also owns the cheap, widely shared partitions — wearable vs.
non-wearable records, the detailed-window slice — computed once and cached.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from typing import Callable, Iterable, Iterator

from repro.devicedb.database import DeviceDatabase
from repro.devicedb.tac import IMEI_LENGTH
from repro.logs.io import (
    log_kind,
    read_records,
    read_records_shard,
    shard_keep_predicate,
)
from repro.logs.quarantine import QuarantineCollector, QuarantineReport
from repro.logs.records import (
    MmeRecord,
    ProxyRecord,
    record_sort_key,
    record_to_row,
    row_to_record,
)
from repro.logs.timeutil import SECONDS_PER_DAY
from repro.simnet.topology import SectorMap


@dataclass(frozen=True, slots=True)
class StudyWindow:
    """Observation-window metadata."""

    study_start: float
    total_days: int
    detailed_days: int
    #: Window bounds, derived once: ``in_detailed`` runs per record.
    study_end: float = field(init=False, compare=False, repr=False)
    detailed_start: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        study_end = self.study_start + self.total_days * SECONDS_PER_DAY
        object.__setattr__(self, "study_end", study_end)
        object.__setattr__(
            self,
            "detailed_start",
            study_end - self.detailed_days * SECONDS_PER_DAY,
        )

    @property
    def detailed_first_day(self) -> int:
        """Index of the first day of the detailed window."""
        return self.total_days - self.detailed_days

    def day_of(self, timestamp: float) -> int:
        """Study-day index of a timestamp."""
        return int((timestamp - self.study_start) // SECONDS_PER_DAY)

    def in_study(self, timestamp: float) -> bool:
        return self.study_start <= timestamp < self.study_end

    def in_detailed(self, timestamp: float) -> bool:
        return self.detailed_start <= timestamp < self.study_end


@dataclass(frozen=True)
class TraceArtifacts:
    """The structural side artefacts of a trace directory.

    The window metadata (``metadata.json``), billing directory
    (``accounts.csv``), device database (``devices.csv``) and cell plan
    (``sectors.csv``) stay strict in every mode — no analysis is
    meaningful without them.  Batch, parallel and serve all read them
    through :meth:`load`.
    """

    window: StudyWindow
    device_db: DeviceDatabase
    sector_map: SectorMap
    account_directory: dict[str, str]
    wearable_tacs: frozenset[str]

    @classmethod
    def load(cls, directory: str | Path) -> "TraceArtifacts":
        """Read the side artefacts; raises ``FileNotFoundError`` if absent."""
        base = Path(directory)
        if not base.is_dir():
            raise FileNotFoundError(f"trace directory not found: {base}")
        meta_path = base / "metadata.json"
        if not meta_path.exists():
            raise FileNotFoundError(
                f"not a trace directory (missing metadata.json): {base}"
            )
        with meta_path.open("r", encoding="utf-8") as handle:
            meta = json.load(handle)
        account_directory: dict[str, str] = {}
        with (base / "accounts.csv").open(
            "r", newline="", encoding="utf-8"
        ) as handle:
            for row in csv.DictReader(handle):
                account_directory[row["subscriber_id"]] = row["account_id"]
        device_db = DeviceDatabase.read_csv(base / "devices.csv")
        return cls(
            window=StudyWindow(
                study_start=float(meta["study_start"]),
                total_days=int(meta["total_days"]),
                detailed_days=int(meta["detailed_days"]),
            ),
            device_db=device_db,
            sector_map=SectorMap.read_csv(base / "sectors.csv"),
            account_directory=account_directory,
            wearable_tacs=device_db.wearable_tacs(),
        )


class StudyDataset:
    """Raw measurement artefacts plus cached shared partitions."""

    def __init__(
        self,
        proxy_records: list[ProxyRecord],
        mme_records: list[MmeRecord],
        device_db: DeviceDatabase,
        sector_map: SectorMap,
        account_directory: dict[str, str],
        window: StudyWindow,
        quarantine: QuarantineReport | None = None,
    ) -> None:
        self.proxy_records = proxy_records
        self.mme_records = mme_records
        self.device_db = device_db
        self.sector_map = sector_map
        self.account_directory = account_directory
        self.window = window
        #: Present when the dataset was loaded leniently: what ingestion
        #: quarantined to keep the pipeline alive (None = strict load).
        self.quarantine = quarantine

    # ------------------------------------------------------------ loading
    @classmethod
    def from_simulation(cls, output) -> "StudyDataset":
        """Wrap a :class:`SimulationOutput` without copying records."""
        return cls(
            proxy_records=output.proxy_records,
            mme_records=output.mme_records,
            device_db=output.device_db,
            sector_map=output.sector_map,
            account_directory=output.account_directory,
            window=StudyWindow(
                study_start=output.config.study_start,
                total_days=output.config.total_days,
                detailed_days=output.config.detailed_days,
            ),
        )

    @classmethod
    def from_artifacts(
        cls,
        artifacts: TraceArtifacts,
        proxy_records: list[ProxyRecord],
        mme_records: list[MmeRecord],
        quarantine: QuarantineReport | None = None,
    ) -> "StudyDataset":
        """Records plus a trace's side artefacts (TAC set pre-seeded)."""
        dataset = cls(
            proxy_records=proxy_records,
            mme_records=mme_records,
            device_db=artifacts.device_db,
            sector_map=artifacts.sector_map,
            account_directory=artifacts.account_directory,
            window=artifacts.window,
            quarantine=quarantine,
        )
        dataset.__dict__["wearable_tacs"] = artifacts.wearable_tacs
        return dataset

    #: Log suffixes probed per requested trace format, in priority order.
    _FORMAT_SUFFIXES = {
        "auto": (".csv", ".csv.gz", ".bin"),
        "csv": (".csv", ".csv.gz"),
        "bin": (".bin",),
    }

    @staticmethod
    def _log_path(base: Path, stem: str, format: str = "auto") -> Path:
        """The existing on-disk variant of a log for a trace format.

        ``auto`` accepts plain CSV, gzip-compressed CSV, or the binary
        columnar format (:mod:`repro.logs.binfmt`), whichever exists;
        ``csv``/``bin`` restrict the probe when the caller wants to pin
        the wire format.
        """
        suffixes = StudyDataset._FORMAT_SUFFIXES.get(format)
        if suffixes is None:
            raise ValueError(
                f"unknown trace format {format!r} (expected auto/csv/bin)"
            )
        candidates = [base / f"{stem}{suffix}" for suffix in suffixes]
        for candidate in candidates:
            if candidate.exists():
                return candidate
        raise FileNotFoundError(
            "none of " + ", ".join(str(c) for c in candidates) + " exists"
        )

    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        lenient: bool = False,
        shard: int | None = None,
        shards: int = 1,
        format: str = "auto",
    ) -> "StudyDataset":
        """Load a trace directory written by ``SimulationOutput.write``.

        Plain CSV, gzip-compressed CSV (``.csv.gz``) and binary columnar
        (``.bin``, :mod:`repro.logs.binfmt`) proxy/MME logs are accepted;
        ``format`` pins the wire format (``csv``/``bin``) or probes for
        whichever exists (``auto``, the default).

        Strict mode (the default) raises on the first defect — a missing
        log, a truncated gzip member, an unparseable row.  With
        ``lenient=True`` ingestion *survives* a corrupted trace: bad rows
        are quarantined (dropped and accounted for), truncated streams
        keep their readable prefix, missing logs load as empty, rows with
        malformed IMEIs or unknown sectors are removed, exact duplicates
        are deduplicated, and out-of-order logs are re-sorted.  The full
        accounting lands in :attr:`quarantine` (a
        :class:`~repro.logs.quarantine.QuarantineReport`).

        With ``shard``/``shards`` the dataset holds only one account
        shard's records (the engine's ``crc32(account_id) % shards``
        partition, resolved through the billing directory), streamed with
        :func:`repro.logs.io.read_csv_records_shard` so peak memory is
        O(largest shard).  In lenient mode the *whole* stream is still
        parsed and scrubbed — duplicate/order defects are stream-global
        properties — and only the kept rows are filtered, which makes the
        quarantine report identical for every shard (and identical to a
        serial lenient load).  Side artefacts stay whole in both cases.

        The side artefacts (:class:`TraceArtifacts`) stay strict in both
        modes, since no analysis is meaningful without them.
        """
        base = Path(directory)
        artifacts = TraceArtifacts.load(base)
        account_directory = artifacts.account_directory

        keep = None
        if shard is not None:
            keep = shard_keep_predicate(shard, shards, account_directory)

        if lenient:
            collector = QuarantineCollector()
            proxy_records = _scrub_records(
                cls._lenient_log(base, "proxy", ProxyRecord, collector, format),
                LenientScrub(ProxyRecord, collector),
                keep,
            )
            mme_records = _scrub_records(
                cls._lenient_log(base, "mme", MmeRecord, collector, format),
                LenientScrub(MmeRecord, collector, artifacts.sector_map),
                keep,
            )
            return cls.from_artifacts(
                artifacts, proxy_records, mme_records, collector.report()
            )
        if shard is not None:
            proxy_records = list(
                read_records_shard(
                    cls._log_path(base, "proxy", format),
                    ProxyRecord,
                    shard,
                    shards,
                    account_directory,
                )
            )
            mme_records = list(
                read_records_shard(
                    cls._log_path(base, "mme", format),
                    MmeRecord,
                    shard,
                    shards,
                    account_directory,
                )
            )
        else:
            proxy_records = list(
                read_records(cls._log_path(base, "proxy", format), ProxyRecord)
            )
            mme_records = list(
                read_records(cls._log_path(base, "mme", format), MmeRecord)
            )
        return cls.from_artifacts(artifacts, proxy_records, mme_records)

    @staticmethod
    def _lenient_log(
        base: Path,
        stem: str,
        record_type: type,
        collector: QuarantineCollector,
        format: str = "auto",
    ) -> Iterator:
        """Lenient record stream for one log; empty when the file is gone."""
        try:
            path = StudyDataset._log_path(base, stem, format)
        except FileNotFoundError:
            collector.note(
                f"{stem}-missing",
                "log file missing from the trace directory",
                f"{stem}.csv[.gz|.bin]",
            )
            return iter(())
        return read_records(path, record_type, collector)

    # ------------------------------------------------------------ partitions
    @cached_property
    def wearable_tacs(self) -> frozenset[str]:
        """TACs of SIM-enabled wearables per the device database (§3.2)."""
        return self.device_db.wearable_tacs()

    def is_wearable_imei(self, imei: str) -> bool:
        return imei[:8] in self.wearable_tacs

    @cached_property
    def wearable_proxy(self) -> list[ProxyRecord]:
        """Proxy transactions originating from wearable devices."""
        tacs = self.wearable_tacs
        return [r for r in self.proxy_records if r.tac in tacs]

    @cached_property
    def phone_proxy(self) -> list[ProxyRecord]:
        """Proxy transactions from non-wearable devices."""
        tacs = self.wearable_tacs
        return [r for r in self.proxy_records if r.tac not in tacs]

    @cached_property
    def wearable_mme(self) -> list[MmeRecord]:
        """MME events of wearable SIMs."""
        tacs = self.wearable_tacs
        return [r for r in self.mme_records if r.tac in tacs]

    @cached_property
    def phone_mme(self) -> list[MmeRecord]:
        """MME events of non-wearable SIMs."""
        tacs = self.wearable_tacs
        return [r for r in self.mme_records if r.tac not in tacs]

    @cached_property
    def wearable_proxy_detailed(self) -> list[ProxyRecord]:
        """Wearable transactions inside the detailed seven-week window."""
        window = self.window
        return [r for r in self.wearable_proxy if window.in_detailed(r.timestamp)]

    @cached_property
    def wearable_subscribers(self) -> frozenset[str]:
        """Every subscriber id seen on a wearable SIM (via MME or proxy)."""
        ids = {r.subscriber_id for r in self.wearable_mme}
        ids.update(r.subscriber_id for r in self.wearable_proxy)
        return frozenset(ids)

    @cached_property
    def wearable_accounts(self) -> frozenset[str]:
        """Accounts owning at least one wearable SIM (billing join)."""
        directory = self.account_directory
        return frozenset(
            directory[subscriber]
            for subscriber in self.wearable_subscribers
            if subscriber in directory
        )

    def account_of(self, subscriber_id: str) -> str | None:
        """Billing account of a subscriber, when known."""
        return self.account_directory.get(subscriber_id)


class LenientScrub:
    """The lenient row rules for one log stream, with an explicit carry.

    The I/O layer already dropped rows that failed to *parse*; this pass
    judges rows that parsed, one at a time, in this order:

    1. an exact duplicate of the immediately preceding row drops
       (``<kind>-duplicate``);
    2. a malformed IMEI drops (``<kind>-imei``);
    3. for the MME log (``sector_map`` given), a sector absent from the
       cell plan drops (``mme-sector``);
    4. a timestamp earlier than the previous kept row's is noted
       (``<kind>-order``) and counted in :attr:`disorder`; the row is
       kept, and the consumer re-sorts once the stream is done.

    The carry — last parsed record, previous kept timestamp, global row
    index, disorder count — makes a stream processed in N chunks give
    the identical accounting to one pass, and it survives a checkpoint
    through :meth:`to_state` / :meth:`restore_state`.  Batch loads run
    it through :func:`_scrub_records`; the service runs
    :meth:`process_one` as its tailers' per-record hook.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        record_type: type,
        collector: QuarantineCollector,
        sector_map: SectorMap | None = None,
    ) -> None:
        self.kind = log_kind(record_type)
        self.record_type = record_type
        self.collector = collector
        self.sector_map = sector_map
        self._index = 0
        self._last_seen = None
        self._previous_ts = float("-inf")
        self.disorder = 0

    def to_state(self) -> dict:
        last = self._last_seen
        return {
            "v": self.STATE_VERSION,
            "index": self._index,
            "last_seen": list(record_to_row(last)) if last is not None else None,
            "previous_ts": self._previous_ts,
            "disorder": self.disorder,
        }

    def restore_state(self, state: dict) -> None:
        if state.get("v") != self.STATE_VERSION:
            raise ValueError(
                f"unsupported scrub state version: {state.get('v')!r}"
            )
        self._index = int(state["index"])
        last = state["last_seen"]
        self._last_seen = (
            row_to_record(self.record_type, tuple(last))
            if last is not None
            else None
        )
        self._previous_ts = float(state["previous_ts"])
        self.disorder = int(state["disorder"])

    def process_one(self, record):
        """Scrub one record; returns it, or None if quarantined.

        Run it *inside* the read loop so read-layer and scrub-layer
        quarantine events land in the collector in row order.
        """
        kind = self.kind
        index = self._index
        self._index = index + 1
        if record == self._last_seen:
            self.collector.quarantine_row(
                kind,
                f"{kind}-duplicate",
                "exact duplicate of the previous row",
                f"{kind}[{index}]",
            )
            return None
        self._last_seen = record
        imei = record.imei
        if len(imei) != IMEI_LENGTH or not imei.isdigit():
            self.collector.quarantine_row(
                kind,
                f"{kind}-imei",
                "malformed IMEI",
                f"{kind}[{index}] {imei!r}",
            )
            return None
        sector_map = self.sector_map
        if sector_map is not None and record.sector_id not in sector_map:
            self.collector.quarantine_row(
                kind,
                f"{kind}-sector",
                "sector missing from the cell plan",
                f"{kind}[{index}] {record.sector_id}",
            )
            return None
        timestamp = record.timestamp
        if timestamp < self._previous_ts:
            self.disorder += 1
            self.collector.note(
                f"{kind}-order",
                "records out of time order (kept; log re-sorted)",
                f"{kind}[{index}]",
            )
        self._previous_ts = timestamp
        return record


def _scrub_records(
    records: Iterable,
    scrub: LenientScrub,
    keep: Callable | None = None,
) -> list:
    """Run ``scrub`` over a whole log; the kept rows in canonical order.

    ``keep`` restricts the *returned* rows (shard-filtered loads) without
    affecting any of the defect accounting: duplicate and order defects
    are properties of the full stream, so every shard observing the same
    file produces the identical quarantine report.  When the scrub saw
    disorder the kept rows are re-sorted; the kept restriction of the
    globally re-sorted log equals re-sorting the restriction, so shard
    loads stay canonical too.
    """
    process_one = scrub.process_one
    kept: list = []
    for record in records:
        record = process_one(record)
        if record is not None and (keep is None or keep(record)):
            kept.append(record)
    if scrub.disorder:
        kept.sort(key=record_sort_key)
    return kept
