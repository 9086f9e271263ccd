"""Typed records for the three measurement vantage points.

The fields mirror what the paper's infrastructure retains per event:

* the transparent proxy logs one row per HTTP/HTTPS transaction with the
  subscriber identity, the device identity (IMEI), the server name (SNI for
  HTTPS, URL host + path for plain HTTP) and the byte counts;
* the MME logs one row per mobility-management event with the sector
  (antenna) the subscriber is attached to.

Both record types are immutable so they can be shared freely between
analyses, hashed into sets, and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Sequence

PROTOCOL_HTTP = "http"
PROTOCOL_HTTPS = "https"

EVENT_ATTACH = "attach"
EVENT_DETACH = "detach"
EVENT_HANDOVER = "handover"
EVENT_TAU = "tracking_area_update"

_VALID_PROTOCOLS = frozenset({PROTOCOL_HTTP, PROTOCOL_HTTPS})
_VALID_EVENTS = frozenset({EVENT_ATTACH, EVENT_DETACH, EVENT_HANDOVER, EVENT_TAU})


@dataclass(frozen=True, slots=True)
class ProxyRecord:
    """One HTTP/HTTPS transaction observed at the transparent web proxy.

    Attributes:
        timestamp: transaction start time, seconds since the Unix epoch (UTC).
        subscriber_id: stable pseudonymous subscriber identifier (IMSI hash).
        imei: 15-digit device identifier; the first 8 digits are the TAC
            used to look the device model up in the device database.
        host: server name — the TLS SNI for HTTPS, the URL host for HTTP.
        path: URL path; empty for HTTPS where only the SNI is visible.
        protocol: ``"http"`` or ``"https"``.
        bytes_up: payload bytes sent by the device.
        bytes_down: payload bytes received by the device.
    """

    timestamp: float
    subscriber_id: str
    imei: str
    host: str
    path: str = ""
    protocol: str = PROTOCOL_HTTPS
    bytes_up: int = 0
    bytes_down: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in _VALID_PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.bytes_up < 0 or self.bytes_down < 0:
            raise ValueError("byte counts must be non-negative")
        if not self.subscriber_id:
            raise ValueError("subscriber_id must be non-empty")
        if not self.host:
            raise ValueError("host must be non-empty")

    @property
    def total_bytes(self) -> int:
        """Total payload bytes in both directions."""
        return self.bytes_up + self.bytes_down

    @property
    def tac(self) -> str:
        """Type Allocation Code: the first 8 digits of the IMEI."""
        return self.imei[:8]

    def sort_key(self) -> tuple:
        """Canonical total-order key: timestamp first, then every field.

        Sorting by the *full* field tuple (not just the timestamp) gives a
        partition-independent global order: however a trace is sharded, the
        k-way merge of per-shard sorted chunks reproduces byte-identical
        output.  Records that compare equal are identical rows, so their
        relative order is immaterial.
        """
        return (
            self.timestamp,
            self.subscriber_id,
            self.imei,
            self.host,
            self.path,
            self.protocol,
            self.bytes_up,
            self.bytes_down,
        )


@dataclass(frozen=True, slots=True)
class MmeRecord:
    """One mobility-management event observed at the MME.

    Attributes:
        timestamp: event time, seconds since the Unix epoch (UTC).
        subscriber_id: stable pseudonymous subscriber identifier.
        imei: device identifier, as reported at attach time.
        sector_id: identifier of the radio sector (antenna) serving the
            subscriber after this event.
        event: one of ``attach``, ``detach``, ``handover``,
            ``tracking_area_update``.
    """

    timestamp: float
    subscriber_id: str
    imei: str
    sector_id: str
    event: str = EVENT_ATTACH

    def __post_init__(self) -> None:
        if self.event not in _VALID_EVENTS:
            raise ValueError(f"unknown MME event {self.event!r}")
        if not self.subscriber_id:
            raise ValueError("subscriber_id must be non-empty")
        if not self.sector_id:
            raise ValueError("sector_id must be non-empty")

    @property
    def tac(self) -> str:
        """Type Allocation Code: the first 8 digits of the IMEI."""
        return self.imei[:8]

    def sort_key(self) -> tuple:
        """Canonical total-order key; see :meth:`ProxyRecord.sort_key`."""
        return (
            self.timestamp,
            self.subscriber_id,
            self.imei,
            self.sector_id,
            self.event,
        )


#: Key function usable with ``sorted``/``heapq.merge`` for either record type.
def record_sort_key(record) -> tuple:
    """Module-level alias so merge helpers can take a plain callable."""
    return record.sort_key()


# Column orders used by the CSV serialisation in :mod:`repro.logs.io`.
PROXY_FIELDS = (
    "timestamp",
    "subscriber_id",
    "imei",
    "host",
    "path",
    "protocol",
    "bytes_up",
    "bytes_down",
)
MME_FIELDS = ("timestamp", "subscriber_id", "imei", "sector_id", "event")


def fields_for(record_type: type) -> tuple[str, ...]:
    """The CSV column order for a record type."""
    if record_type is ProxyRecord:
        return PROXY_FIELDS
    if record_type is MmeRecord:
        return MME_FIELDS
    raise TypeError(f"unknown record type: {record_type!r}")


@lru_cache(maxsize=None)
def _field_types(record_type: type) -> dict[str, type]:
    """Map each dataclass field name to its concrete python type.

    Cached per record type: the CSV slow path
    (:func:`repro.logs.io._coerce_row`) consults this map once per *row*,
    and rebuilding it from the dataclass field metadata dominated that
    path (every call walks ``dataclasses.fields`` and does string
    comparisons).  The map is tiny and immutable in practice, so an
    unbounded cache keyed by the record class is safe.
    """
    types: dict[str, type] = {}
    for spec in fields(record_type):
        if spec.type in ("float", float):
            types[spec.name] = float
        elif spec.type in ("int", int):
            types[spec.name] = int
        else:
            types[spec.name] = str
    return types


def log_kind(record_type: type) -> str:
    """Short stream name used in issue codes (``proxy`` / ``mme``)."""
    if record_type is ProxyRecord:
        return "proxy"
    if record_type is MmeRecord:
        return "mme"
    return record_type.__name__.lower()


def record_to_row(record) -> tuple:
    """A record's values in canonical column order (JSON-safe)."""
    return tuple(getattr(record, name) for name in fields_for(type(record)))


def row_to_record(record_type: type, row) -> object:
    """Invert :func:`record_to_row`."""
    return record_type(*row)


# -------------------------------------------------- fast record makers
# The readers build records without ``__init__``: the validity rules of
# ``__post_init__`` are checked per block (``.bin``) or inline per row
# (CSV), and the slots are set through each slot descriptor's ``__set__``
# bound once, which beats ``object.__setattr__`` (it re-resolves the
# descriptor by name on every call on these frozen dataclasses).
_BATCH_MAKERS: dict[type, Callable] = {}
_ROW_DECODERS: dict[type, Callable] = {}

#: Each record type's ``__post_init__`` rules as one expression over its
#: field names, inlined into the generated row decoder.
_ROW_RULES = {
    ProxyRecord: (
        "protocol in _protocols and bytes_up >= 0 and bytes_down >= 0"
        " and subscriber_id and host"
    ),
    MmeRecord: "event in _events and subscriber_id and sector_id",
}


def _block_valid(record_type: type, cols: Sequence[Sequence]) -> bool:
    """Batch equivalent of the record ``__post_init__`` checks."""
    if record_type is ProxyRecord:
        return (
            set(cols[5]) <= _VALID_PROTOCOLS
            and all(cols[1])
            and all(cols[3])
            and min(cols[6]) >= 0
            and min(cols[7]) >= 0
        )
    return set(cols[4]) <= _VALID_EVENTS and all(cols[1]) and all(cols[3])


def _define(name: str, lines: list[str], namespace: dict) -> Callable:
    """Compile the generated function ``name`` and return it.

    The code is attributed to this module's file so profiles label its
    frames ``repro.logs.records:<name>`` (source lines shown in a
    traceback from it would be this file's, not the template's).
    """
    code = compile("\n".join(lines), __file__, "exec")
    exec(code, namespace)  # noqa: S102 - static, local template
    return namespace[name]


def _maker_namespace(record_type: type) -> dict:
    namespace = {
        "_new": object.__new__,
        "_cls": record_type,
        "_protocols": _VALID_PROTOCOLS,
        "_events": _VALID_EVENTS,
    }
    for name in fields_for(record_type):
        namespace[f"_set_{name}"] = getattr(record_type, name).__set__
    return namespace


def _batch_maker(record_type: type) -> Callable:
    """Columns-in, record-list-out constructor with the loop inlined.

    Batch validation (:func:`_block_valid`) has already vetted the whole
    block, so per-record ``__post_init__`` checks would only repeat work
    8192 times per block.  Inlining the loop into one generated function
    drops the per-record ``map`` dispatch as well.
    """
    maker = _BATCH_MAKERS.get(record_type)
    if maker is not None:
        return maker
    names = fields_for(record_type)
    args = ", ".join(f"c_{name}" for name in names)
    row = ", ".join(names)
    namespace = _maker_namespace(record_type)
    namespace["_zip"] = zip
    name = f"make_{log_kind(record_type)}_records"
    lines = [
        f"def {name}({args}):",
        "    new = _new; cls = _cls",
        "    out = []",
        "    append = out.append",
    ]
    for field in names:
        lines.append(f"    set_{field} = _set_{field}")
    lines.append(f"    for {row} in _zip({args}):")
    lines.append("        r = new(cls)")
    for field in names:
        lines.append(f"        set_{field}(r, {field})")
    lines.append("        append(r)")
    lines.append("    return out")
    maker = _define(name, lines, namespace)
    _BATCH_MAKERS[record_type] = maker
    return maker


def row_decoder(record_type: type) -> Callable[[Sequence[str]], object]:
    """Positional CSV row decoder: string row in, record or ``None`` out.

    The returned function unpacks a row of exactly the canonical width
    (:func:`fields_for` order), converts the ``float``/``int`` fields,
    checks the ``__post_init__`` rules inline and sets the slots
    directly.  Any row it cannot take whole — wrong width, an
    unconvertible value, a rule violation — yields ``None`` and is left
    to the reader's slow path, which re-parses it with the full error
    reporting; a record returned here is equal to the one
    ``record_type(*converted)`` would build.  Built once per record type.
    """
    decoder = _ROW_DECODERS.get(record_type)
    if decoder is not None:
        return decoder
    names = fields_for(record_type)
    namespace = _maker_namespace(record_type)
    namespace.update(_float=float, _int=int)
    name = f"decode_{log_kind(record_type)}_row"
    lines = [
        f"def {name}(row):",
        "    try:",
        f"        {', '.join(names)} = row",
    ]
    for field, type_ in _field_types(record_type).items():
        if type_ is not str:
            lines.append(f"        {field} = _{type_.__name__}({field})")
    lines += [
        "    except ValueError:",
        "        return None",
        f"    if not ({_ROW_RULES[record_type]}):",
        "        return None",
        "    r = _new(_cls)",
    ]
    for field in names:
        lines.append(f"    _set_{field}(r, {field})")
    lines.append("    return r")
    decoder = _define(name, lines, namespace)
    _ROW_DECODERS[record_type] = decoder
    return decoder
