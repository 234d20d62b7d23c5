"""The versioned on-disk trace format: one op record per workload op.

A trace is a JSONL file: a header line ``{"format": "repro.trace",
"version": 1, "meta": {...}}`` followed by one compact JSON object per
op.  Default-valued fields are omitted, so a fill-sequential trace is
~60 bytes/op and diffs readably.  It is the only codec: ``read_trace``
meets the magic of the retired binary ``RTRC`` files with an error that
says to re-record.

Payload bytes are compressed to ``(fill, size)`` — every workload in
this repo writes constant-fill values, and replay fidelity needs sizes
and keys, not entropy; arbitrary-content values replay as
``bytes([fill]) * size``.

Record vocabulary (``layer`` / ``kind``):

* ``host`` — ``put`` / ``get`` / ``delete`` / ``scan`` (LSM K/V ops;
  ``key`` is the latin-1 decoded key, ``size`` the value size or scan
  limit, ``fill`` the value's fill byte) and ``barrier`` (a quiesce
  point splitting replay phases);
* ``block`` — ``write`` / ``read`` / ``trim`` / ``flush`` over the
  OX-Block LBA API (``lba``/``sectors``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError

TRACE_VERSION = 1

LAYERS = ("host", "block")
KINDS = ("put", "get", "delete", "scan", "write", "read", "trim",
         "flush", "barrier")

#: JSONL record fields in record order: (abbreviation, TraceOp field,
#: accepted JSON types).
_JSON_KEYS = (("t", "t", (int, float)), ("l", "layer", (str,)),
              ("k", "kind", (str,)), ("s", "stream", (str,)),
              ("key", "key", (str,)), ("lba", "lba", (int,)),
              ("n", "sectors", (int,)), ("sz", "size", (int,)),
              ("f", "fill", (int,)))
_SHORT_KEYS = frozenset(short for short, __, __ in _JSON_KEYS)
_DEFAULTS = {"stream": "", "key": "", "lba": -1, "sectors": 0,
             "size": 0, "fill": 0}


@dataclass(frozen=True)
class TraceOp:
    """One recorded workload operation (or barrier)."""

    t: float                 # sim time at issue
    layer: str               # host | block
    kind: str                # see KINDS
    stream: str = ""         # client/tenant label (replay concurrency)
    key: str = ""            # host key (latin-1 decoded)
    lba: int = -1            # block ops only
    sectors: int = 0         # block ops only
    size: int = 0            # value bytes (put) / scan limit
    fill: int = 0            # payload fill byte

    def key_bytes(self) -> bytes:
        return self.key.encode("latin-1")

    def payload(self, sector_size: int = 0) -> bytes:
        """The op's value/payload bytes, reconstructed from (fill, size).

        Host ops use ``size`` directly; block ops use ``sectors`` times
        *sector_size*.
        """
        if self.layer == "block":
            return bytes([self.fill]) * (self.sectors * sector_size)
        return bytes([self.fill]) * self.size

    def validate(self) -> "TraceOp":
        if self.layer not in LAYERS:
            raise ReproError(
                f"trace op: unknown layer {self.layer!r}; "
                f"expected one of {LAYERS}")
        if self.kind not in KINDS:
            raise ReproError(
                f"trace op: unknown kind {self.kind!r}; "
                f"expected one of {KINDS}")
        return self


def _parse_line(line: str, number: int) -> dict:
    """One JSONL line as a dict; *number* is 1-based, for the error."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ReproError(
            f"trace line {number}: not valid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ReproError(
            f"trace line {number}: expected a JSON object, got "
            f"{type(record).__name__}")
    return record


def _parse_op(raw: dict, number: int) -> TraceOp:
    if not raw.keys() <= _SHORT_KEYS:
        raise ReproError(
            f"trace line {number}: unknown field(s) "
            f"{sorted(raw.keys() - _SHORT_KEYS)}; expected a subset of "
            f"{sorted(_SHORT_KEYS)}")
    fields = {}
    for short, field, types in _JSON_KEYS:
        value = raw.get(short, _DEFAULTS.get(field))
        # bool is an int to isinstance(); JSON true/false is never a
        # time, an LBA or a count.
        if isinstance(value, bool) or not isinstance(value, types):
            raise ReproError(
                f"trace line {number}: field {short!r} must be "
                f"{' or '.join(t.__name__ for t in types)}, "
                f"got {value!r}")
        fields[field] = value
    if not 0 <= fields["fill"] <= 255:
        raise ReproError(
            f"trace line {number}: field 'f' must be a byte (0..255), "
            f"got {fields['fill']}")
    try:
        return TraceOp(**fields).validate()
    except ReproError as exc:
        raise ReproError(f"trace line {number}: {exc}") from None


def write_trace(path: str, ops: Iterable[TraceOp],
                meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Write *ops* to *path* as JSONL.  Returns the header meta dict."""
    meta = dict(meta or {})
    meta.setdefault("version", TRACE_VERSION)
    ops = list(ops)
    meta["op_count"] = len(ops)
    header = {"format": "repro.trace", "version": TRACE_VERSION,
              "meta": meta}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for op in ops:
        data = asdict(op)
        record = {short: data[field] for short, field, __ in _JSON_KEYS
                  if data[field] != _DEFAULTS.get(field)}
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return meta


def read_trace(path: str) -> Tuple[Dict[str, object], List[TraceOp]]:
    """Read a trace.  Returns ``(meta, ops)``.

    Everything wrong with the file — not a trace, unsupported version,
    a retired binary trace, malformed JSON, a mistyped or unknown field
    — raises :class:`ReproError` naming the 1-based line.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob.startswith(b"RTRC"):   # the retired binary codec's magic
        raise ReproError(
            f"{path}: binary (RTRC) traces were retired; re-record the "
            f"run with --trace-out to get a JSONL trace")
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        number = blob.count(b"\n", 0, exc.start) + 1
        raise ReproError(
            f"trace line {number}: not UTF-8 text ({exc.reason} at "
            f"byte {exc.start})") from None
    if not lines:
        raise ReproError("trace file is empty")
    header = _parse_line(lines[0], 1)
    if header.get("format") != "repro.trace":
        raise ReproError(
            f"not a repro.trace file (header {lines[0][:60]!r})")
    if header.get("version") != TRACE_VERSION:
        raise ReproError(
            f"trace version {header.get('version')!r} is not supported "
            f"(this build reads version {TRACE_VERSION})")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ReproError(
            f"trace line 1: field 'meta' must be a JSON object, "
            f"got {meta!r}")
    ops = [_parse_op(_parse_line(line, number), number)
           for number, line in enumerate(lines[1:], 2) if line.strip()]
    return meta, ops
