"""Reference CSV log reader: ``csv.DictReader`` plus per-row coercion.

This is :func:`repro.logs.io.read_csv_records` as it was before the
positional row decoder: every row goes through ``csv.DictReader`` (a
dict per row) and :func:`repro.logs.io._coerce_row` (a converted dict
and a ``record_type(**converted)`` call per row).  The body is kept
verbatim, strict and lenient, minus the observability counters, as an
independent oracle for the property tests in
``tests/logs/test_csv_decode.py`` and as the baseline of the decode
speed floor in ``benchmarks/test_perf_io.py``.  :func:`oracle_read_csv`
has the same signature and failure discipline as ``read_csv_records``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator, Type

from repro.logs.io import (
    _ROW_MESSAGES,
    _STREAM_ERRORS,
    LogReadError,
    RecordT,
    _account_stream_death,
    _coerce_row,
    _LenientLineSource,
    _open_text,
    log_kind,
)
from repro.logs.quarantine import QuarantineCollector


def oracle_read_csv(
    path: str | Path,
    record_type: Type[RecordT],
    quarantine: QuarantineCollector | None = None,
) -> Iterator[RecordT]:
    """Stream records from a CSV log the ``DictReader`` way."""
    source = Path(path)
    kind = log_kind(record_type)
    try:
        if quarantine is None:
            with _open_text(source, "r") as handle:
                reader = csv.DictReader(handle)
                if reader.fieldnames is None:
                    raise LogReadError(
                        source, 1, "empty file (no header row)", code="truncated"
                    )
                for line_number, row in enumerate(reader, start=2):
                    yield _coerce_row(record_type, row, source, line_number)
            return
        lines = _LenientLineSource(source)
        try:
            reader = csv.DictReader(lines)
            if reader.fieldnames is None:
                quarantine.note(
                    f"{kind}-truncated",
                    "log file empty (no header row)",
                    str(source),
                )
                return
            for line_number, row in enumerate(reader, start=2):
                quarantine.saw_row(kind)
                try:
                    record = _coerce_row(record_type, row, source, line_number)
                except LogReadError as exc:
                    quarantine.quarantine_row(
                        kind,
                        f"{kind}-{exc.code}",
                        _ROW_MESSAGES.get(exc.code, "unparseable row"),
                        f"{source.name}:{line_number}: {exc.reason}",
                    )
                    continue
                yield record
        finally:
            lines.close()
        if lines.stream_error is not None:
            _account_stream_death(quarantine, kind, source, lines)
    except FileNotFoundError:
        if quarantine is None:
            raise
        quarantine.note(f"{kind}-missing", "log file missing", str(source))
    except _STREAM_ERRORS as exc:
        if quarantine is None:
            raise LogReadError(
                source,
                0,
                f"unreadable or truncated stream: {exc}",
                code="truncated",
            ) from exc
        quarantine.note(
            f"{kind}-truncated",
            "log stream unreadable or truncated mid-read; tail rows lost",
            f"{source.name}: {exc}",
        )
