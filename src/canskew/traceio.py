"""Reading, writing, and gap-repair of CAN timestamp logs.

Two formats: candump text lines "(sec.micros) iface ID#data" and CSV with
header "timestamp,can_id,data", whose can_id is hex with a 0x prefix and
decimal without one. Payload bytes are discarded on parse — only timing
matters here. Timestamps serialize at microsecond resolution.
"""
from __future__ import annotations

import csv
import enum
import io
import re

import numpy as np

from .clock import MAX_CAN_ID, Trace

__all__ = ["LogFormat", "ParseError", "parse_log", "write_trace", "fill_missing"]

_CANDUMP_RE = re.compile(r"^\((\d+)\.(\d{1,6})\)\s+(\S+)\s+([0-9A-Fa-f]{1,8})#([0-9A-Fa-f]*)\s*$")
_CSV_HEADER = ["timestamp", "can_id", "data"]


class LogFormat(enum.Enum):
    CANDUMP = "candump"
    CSV = "csv"


class ParseError(ValueError):
    """Malformed log input; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def _check_id(line_number, can_id):
    if not 0 <= can_id <= MAX_CAN_ID:
        raise ParseError(line_number, f"CAN id {can_id:#x} outside [0, {MAX_CAN_ID:#x}]")
    return can_id


def _parse_candump(lines):
    for number, line in lines:
        m = _CANDUMP_RE.match(line)
        if m is None:
            raise ParseError(number, f"not a candump record: {line!r}")
        sec, micros, _iface, can_id, _data = m.groups()
        yield int(sec) + int(micros.ljust(6, "0")) / 1e6, _check_id(number, int(can_id, 16))


def _parse_csv(lines):
    numbered = iter(lines)
    try:
        number, header = next(numbered)
    except StopIteration:
        raise ValueError("empty input") from None
    cols = next(csv.reader([header]))
    if [c.strip().lower() for c in cols[:3]] != _CSV_HEADER:
        raise ParseError(number, f"expected header 'timestamp,can_id,data', got {header!r}")
    for number, line in numbered:
        row = next(csv.reader([line]))
        if len(row) < 2:
            raise ParseError(number, f"expected at least timestamp and can_id: {line!r}")
        try:
            ts = float(row[0])
            text = row[1].strip()
            can_id = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        if ts < 0.0:
            raise ParseError(number, f"negative timestamp {row[0]}")
        yield ts, _check_id(number, can_id)


def parse_log(text, fmt):
    """Parse log text into a Trace sorted by timestamp (stable for ties)."""
    lines = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not lines:
        raise ValueError("empty input")
    parser = _parse_candump if fmt is LogFormat.CANDUMP else _parse_csv
    records = list(parser(lines))
    if not records:
        raise ValueError("no records in input")
    times = np.array([r[0] for r in records], dtype=np.float64)
    ids = np.array([r[1] for r in records], dtype=np.uint32)
    order = np.argsort(times, kind="stable")
    return Trace(times=times[order], ids=ids[order])


def _microseconds(t):
    # round-half-away at nanoseconds first so 0.123456499999 stays stable
    return round(t * 1e9) // 1000


def _format_us(t):
    us = _microseconds(t)
    if us < 0:
        raise ValueError(f"cannot write negative timestamp {t:.9f} s: logs hold only non-negative times")
    return f"{us // 1_000_000}.{us % 1_000_000:06d}"


def write_trace(trace, fmt):
    """Serialize a trace; timestamps truncate to microseconds, so a
    parse/write round-trip is exact at microsecond resolution. A timestamp
    below zero at that resolution raises ValueError naming the first one,
    since parse_log rejects negative times."""
    if fmt is LogFormat.CANDUMP:
        out = []
        for t, mid in zip(trace.times, trace.ids):
            out.append(f"({_format_us(t)}) can0 {int(mid):03X}#")
        return "\n".join(out) + ("\n" if out else "")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for t, mid in zip(trace.times, trace.ids):
        writer.writerow([_format_us(t), f"0x{int(mid):03X}", ""])
    return buf.getvalue()


def fill_missing(trace, message_id, period):
    """Repair dropped messages of one id: any gap above 1.5*period gets
    floor(gap/period - 0.5) synthetic arrivals, evenly spaced; the synthetic
    records carry the ``inserted`` flag. Originals are never moved."""
    if period <= 0.0:
        raise ValueError("period must be > 0")
    a = trace.arrivals(message_id)
    new_times = []
    for prev, nxt in zip(a[:-1], a[1:]):
        gap = nxt - prev
        if gap <= 1.5 * period:
            continue
        n_ins = int(np.floor(gap / period - 0.5))
        spacing = gap / (n_ins + 1)
        new_times.extend(prev + spacing * j for j in range(1, n_ins + 1))
    if not new_times:
        return trace
    filler = Trace(
        times=np.array(new_times, dtype=np.float64),
        ids=np.full(len(new_times), message_id, dtype=np.uint32),
        inserted=np.ones(len(new_times), dtype=bool),
    )
    return Trace.merge(trace, filler)
