"""Differential tests: the positional CSV decoder against the DictReader oracle.

:func:`repro.logs.io.read_csv_records` decodes rows of the canonical
width positionally (:func:`repro.logs.records.row_decoder`) and sends
every other row to the ``_coerce_row`` slow path.  These tests pin that
the split is invisible: over generated files mixing clean rows with
every defect class the reader distinguishes, the new reader and the
frozen ``csv.DictReader`` reader in ``tests/logs/csv_oracle.py`` agree
on

* **strict** reads: the same records, then the same
  :class:`~repro.logs.io.LogReadError` (code, line, reason) at the same
  row;
* **lenient** reads: the same records and an identical
  ``QuarantineReport.to_dict()``;

and the serve tailer, fed the same bytes in arbitrary appends, equals
the batch lenient read.
"""

from __future__ import annotations

import csv
import gzip
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.logs.io as logs_io
from repro.logs.io import LogReadError, read_csv_records
from repro.logs.quarantine import QuarantineCollector
from repro.logs.records import (
    _VALID_EVENTS,
    _VALID_PROTOCOLS,
    MmeRecord,
    ProxyRecord,
    fields_for,
    row_decoder,
)
from repro.serve.tailer import StreamTailer
from tests.logs.csv_oracle import oracle_read_csv

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

STEMS = {ProxyRecord: "proxy", MmeRecord: "mme"}

# ---------------------------------------------------------------------------
# Strategies: one CSV file mixing clean rows with every defect class
# ---------------------------------------------------------------------------

# Commas and quotes force csv quoting; no line-break characters, because
# the tailer splits chunks with ``str.splitlines`` (a quoted field may
# not span lines there).
_text = st.text(alphabet='abcXYZ019 ,"\'.-_/é', max_size=8)
_ids = _text.filter(bool)
# Valid cells include the odd spellings ``float``/``int`` accept.
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "1e3", " 2.5", "1_0.5", "-0.0"]),
)
_counts = st.one_of(
    st.integers(min_value=0, max_value=2**40).map(str),
    st.sampled_from([" 7 ", "1_000", "-0", "+3"]),
)
_bad_floats = st.sampled_from(["", "abc", "1.2.3", "0x10"])
_bad_counts = st.one_of(
    st.integers(max_value=-1).map(str),
    st.sampled_from(["", "12x", "1.5", "0x10", "1e3"]),
)
_bad_enums = st.sampled_from(["", "ftp", "HTTPS", "Attach"])

#: Per field: (valid cells, out-of-domain cells or None).
_CELLS = {
    ProxyRecord: {
        "timestamp": (_floats, _bad_floats),
        "subscriber_id": (_ids, st.just("")),
        "imei": (_text, None),
        "host": (_ids, st.just("")),
        "path": (_text, None),
        "protocol": (st.sampled_from(sorted(_VALID_PROTOCOLS)), _bad_enums),
        "bytes_up": (_counts, _bad_counts),
        "bytes_down": (_counts, _bad_counts),
    },
    MmeRecord: {
        "timestamp": (_floats, _bad_floats),
        "subscriber_id": (_ids, st.just("")),
        "imei": (_text, None),
        "sector_id": (_ids, st.just("")),
        "event": (st.sampled_from(sorted(_VALID_EVENTS)), _bad_enums),
    },
}

#: Row shapes: a ``bad`` row breaks one or two cells, so each rule is hit
#: on its own between runs of clean rows.
_SHAPES = st.sampled_from(["ok"] * 3 + ["bad"] * 3 + ["short", "long", "blank"])


@st.composite
def csv_files(draw, record_type, *, growing=False):
    """The text of one generated log file.

    ``growing`` leaves out the two layouts a tailer reads differently
    from a finished file: an empty file has not arrived yet, and the
    first non-blank line is the header (a growing file may start with
    blank lines).
    """
    names = list(fields_for(record_type))
    layouts = ["canonical", "canonical", "reordered"]
    if not growing:
        layouts += ["empty", "blank-first"]
    layout = draw(st.sampled_from(layouts))
    if layout == "empty":
        return ""
    header = names
    if layout == "reordered":
        header = draw(st.permutations(names))
    out = io.StringIO()
    writer = csv.writer(out)
    if layout == "blank-first":
        out.write("\r\n")
    writer.writerow(header)
    cells = _CELLS[record_type]
    breakable = [name for name in names if cells[name][1] is not None]
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        shape = draw(_SHAPES)
        if shape == "blank":
            out.write("\r\n")
            continue
        values = {name: draw(cells[name][0]) for name in names}
        if shape == "bad":
            for name in draw(
                st.lists(st.sampled_from(breakable), min_size=1, max_size=2)
            ):
                values[name] = draw(cells[name][1])
        row = [values[name] for name in header]
        if shape == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(_text, min_size=1, max_size=3))
        writer.writerow(row)
    return out.getvalue()


record_types = st.sampled_from([ProxyRecord, MmeRecord])


def _write(directory: Path, record_type, text: str, suffix: str) -> Path:
    path = directory / f"{STEMS[record_type]}{suffix}"
    data = text.encode("utf-8")
    if suffix == ".csv.gz":
        data = gzip.compress(data, mtime=0)
    path.write_bytes(data)
    return path


# Records are compared by ``repr``: a ``nan`` timestamp is a legal value
# but never equal to itself, and ``repr`` also tells ``-0.0`` from ``0.0``.
def _strict(reader, path, record_type):
    records = []
    try:
        for record in reader(path, record_type):
            records.append(repr(record))
    except LogReadError as exc:
        return records, (exc.code, exc.line_number, exc.reason, str(exc))
    return records, None


def _lenient(reader, path, record_type):
    collector = QuarantineCollector()
    records = [repr(record) for record in reader(path, record_type, collector)]
    return records, collector.report().to_dict()


# ---------------------------------------------------------------------------
# Batch reader ≡ oracle
# ---------------------------------------------------------------------------


class TestDecoderMatchesOracle:
    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    @pytest.mark.parametrize("record_type", [ProxyRecord, MmeRecord])
    @settings(max_examples=100, **_SETTINGS)
    @given(data=st.data())
    def test_strict_and_lenient_agree(self, record_type, suffix, data):
        text = data.draw(csv_files(record_type))
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(Path(tmp), record_type, text, suffix)
            assert _strict(read_csv_records, path, record_type) == _strict(
                oracle_read_csv, path, record_type
            )
            assert _lenient(read_csv_records, path, record_type) == _lenient(
                oracle_read_csv, path, record_type
            )

    @pytest.mark.parametrize(
        "record_type, text",
        [
            (MmeRecord, ""),
            (MmeRecord, "timestamp,subscriber_id,imei,sector_id,event\r\n"),
            # A blank first line is an empty header, not a skipped line.
            (
                MmeRecord,
                "\r\ntimestamp,subscriber_id,imei,sector_id,event\r\n"
                "1.0,s1,35,c1,attach\r\n",
            ),
            # Reordered header: values still map to fields by name.
            (
                MmeRecord,
                "event,timestamp,subscriber_id,imei,sector_id\r\n"
                "attach,1.0,s1,35,c1\r\n\r\nhandover,2.0,s1,35\r\n",
            ),
            # Duplicate column: the short row's missing cell reads None.
            (
                MmeRecord,
                "timestamp,subscriber_id,imei,sector_id,event,timestamp\r\n"
                "1.0,s1,35,c1,attach\r\n1.0,s1,35,c1,attach,2.0\r\n",
            ),
            (
                MmeRecord,
                "timestamp,subscriber_id,imei,sector_id,event\r\n"
                '1.0,"s,1",35,"c""1",attach\r\n2.0,,35,c1,attach\r\n'
                "3.0,s1,35,,attach\r\n4.0,s1,35,c1,bounce\r\n"
                "5.0,s1,35,c1,attach,extra\r\n",
            ),
            # One row per proxy rule, each breaking only that rule.
            (
                ProxyRecord,
                ",".join(fields_for(ProxyRecord)) + "\r\n"
                "1.0,s1,35,a.com,,https,1,2\r\n"
                "2.0,s1,35,a.com,,ftp,1,2\r\n"
                "3.0,s1,35,a.com,,https,-1,2\r\n"
                "4.0,s1,35,a.com,,https,1,-2\r\n"
                "5.0,,35,a.com,,https,1,2\r\n"
                "6.0,s1,35,,,https,1,2\r\n"
                "x,s1,35,a.com,,https,1,2\r\n"
                "8.0,s1,35,a.com,,https,1,2.0\r\n",
            ),
        ],
        ids=[
            "empty",
            "header-only",
            "blank-first",
            "reordered",
            "dup",
            "mixed",
            "proxy-rules",
        ],
    )
    def test_edge_files(self, tmp_path, record_type, text):
        path = _write(tmp_path, record_type, text, ".csv")
        assert _strict(read_csv_records, path, record_type) == _strict(
            oracle_read_csv, path, record_type
        )
        assert _lenient(read_csv_records, path, record_type) == _lenient(
            oracle_read_csv, path, record_type
        )


class TestFastPath:
    def test_clean_rows_never_reach_the_slow_path(self, tmp_path, monkeypatch):
        calls = []
        coerce = logs_io._coerce_row

        def counting(*args):
            calls.append(args[3])
            return coerce(*args)

        monkeypatch.setattr(logs_io, "_coerce_row", counting)
        text = (
            "timestamp,subscriber_id,imei,host,path,protocol,bytes_up,bytes_down\r\n"
            "1.5,s1,35,a.com,/x,http,1,2\r\n"
            "2.5,s1,35,a.com,,https,0,0\r\n"
            "3.5,s1,35,a.com,,https,-1,0\r\n"
        )
        path = _write(tmp_path, ProxyRecord, text, ".csv")
        records = list(read_csv_records(path, ProxyRecord, QuarantineCollector()))
        assert len(records) == 2
        assert calls == [4]

    def test_decoded_record_equals_constructed_record(self):
        decode = row_decoder(ProxyRecord)
        row = ["1.25", "s1", "35", "a.com", "/p", "https", "10", "20"]
        expected = ProxyRecord(1.25, "s1", "35", "a.com", "/p", "https", 10, 20)
        record = decode(row)
        assert record == expected
        assert hash(record) == hash(expected)
        assert decode(row[:-1]) is None
        assert decode(row + ["x"]) is None
        assert decode(row[:5] + ["ftp"] + row[6:]) is None
        assert row_decoder(ProxyRecord) is decode


# ---------------------------------------------------------------------------
# Tailer ≡ batch
# ---------------------------------------------------------------------------


class TestTailerMatchesBatch:
    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    @settings(max_examples=30, **_SETTINGS)
    @given(data=st.data())
    def test_arbitrary_appends_equal_batch_read(self, suffix, data):
        record_type = data.draw(record_types)
        text = data.draw(csv_files(record_type, growing=True))
        blob = text.encode("utf-8")
        cuts = sorted(
            data.draw(st.lists(st.integers(0, len(blob)), max_size=6))
        )
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            path = base / f"{STEMS[record_type]}{suffix}"
            collector = QuarantineCollector()
            tailer = StreamTailer(
                base,
                STEMS[record_type],
                record_type,
                format="csv",
                quarantine=collector,
            )
            seen = []
            start = 0
            for cut in cuts + [len(blob)]:
                piece = blob[start:cut]
                start = cut
                if suffix == ".csv.gz":
                    piece = gzip.compress(piece, mtime=0) if piece else b""
                with path.open("ab") as handle:
                    handle.write(piece)
                seen.extend(tailer.poll())
            seen.extend(tailer.poll())
            assert (
                [repr(record) for record in seen],
                collector.report().to_dict(),
            ) == _lenient(
                read_csv_records, path, record_type
            )


# ---------------------------------------------------------------------------
# The CSV path stays numpy-free
# ---------------------------------------------------------------------------

_LOAD_WITHOUT_NUMPY = """
import sys
import repro.core.figures, repro.core.parallel, repro.core.pipeline
import repro.simnet.engine
from repro.core.dataset import StudyDataset
dataset = StudyDataset.load(sys.argv[1])
assert dataset.proxy_records and dataset.mme_records
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
assert not loaded, loaded
"""


def test_csv_load_does_not_import_numpy(small_trace_dir_gz):
    """Loading a ``.csv.gz`` trace with the CLI's modules imported keeps
    numpy (only ``.bin`` traces need it) out of the process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, "-c", _LOAD_WITHOUT_NUMPY, str(small_trace_dir_gz)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
