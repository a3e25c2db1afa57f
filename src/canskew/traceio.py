"""Reading, writing, and gap-repair of CAN timestamp logs.

Two formats: candump text lines "(sec.micros) iface ID#data" and CSV with
header "timestamp,can_id,data", whose can_id is hex with a 0x prefix and
decimal without one. Payload bytes are discarded on parse — only timing
matters here. Timestamps serialize at microsecond resolution.

Candump text is parsed and both formats are written in chunks of at most
CHUNK_LINES lines. A chunk is parsed with one ``findall`` over its lines
joined by newlines, and its columns are converted as arrays; only a chunk
that holds a bad line is walked line by line, to name the first one. A chunk
is written by one ``%``-format per line over its columns. Chunks bound the
temporary per-line strings and integers to one chunk's worth. CSV input is
read line by line through ``csv.reader``.
"""
from __future__ import annotations

import csv
import enum
import math
import re
from itertools import repeat

import numpy as np

from .clock import MAX_CAN_ID, Trace

__all__ = ["LogFormat", "ParseError", "parse_log", "write_trace", "fill_missing"]

CHUNK_LINES = 32_768
# one record per line: the separators exclude newlines, so a match never
# crosses into the next line of a joined chunk
_CANDUMP_RE = re.compile(
    r"^\((\d+)\.(\d{1,6})\)[^\S\n]+\S+[^\S\n]+([0-9A-Fa-f]{1,8})#[0-9A-Fa-f]*[^\S\n]*$", re.M
)
_MICROS_SCALE = 10 ** np.arange(6, -1, -1, dtype=np.int64)  # indexed by digit count
_CSV_HEADER = ["timestamp", "can_id", "data"]
_CANDUMP_LINE = "(%d.%06d) can0 %03X#\n"
_CSV_LINE = "%d.%06d,0x%03X,\n"
_MAX_NS = 2.0**63  # nanosecond counts below this fit an int64


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


def _raise_first_bad_line(lines, first):
    """Raise the ParseError of the first bad candump line among the non-blank
    ``lines`` from index ``first`` on: one that is no candump record, has
    more seconds than a double holds, or whose id is out of range. Line
    numbers count blank lines too."""
    numbers = [i + 1 for i, line in enumerate(lines) if line.strip()]
    for number in numbers[first:]:
        line = lines[number - 1]
        m = _CANDUMP_RE.match(line)
        if m is None:
            raise ParseError(number, f"not a candump record: {line!r}")
        if math.isinf(float(m[1])):
            raise ParseError(number, f"timestamp out of range: {line!r}")
        _check_id(number, int(m[3], 16))
    raise AssertionError("no bad candump line found")


def _parse_candump(lines):
    records = [line for line in lines if line.strip()]
    if not records:
        raise ValueError("empty input")
    times = np.empty(len(records), dtype=np.float64)
    ids = np.empty(len(records), dtype=np.uint32)
    for start in range(0, len(records), CHUNK_LINES):
        chunk = records[start:start + CHUNK_LINES]
        found = _CANDUMP_RE.findall("\n".join(chunk))
        n = len(found)
        if n < len(chunk):
            _raise_first_bad_line(lines, start)
        sec, micros, can_id = ([m[k] for m in found] for k in range(3))
        chunk_ids = np.fromiter(map(int, can_id, repeat(16)), dtype=np.int64, count=n)
        # int(micros.ljust(6, "0")) as micros * 10**(6 - digits); float(sec)
        # is int(sec) rounded to a double, as int + float rounds it
        us = np.fromiter(map(int, micros), dtype=np.int64, count=n)
        us *= _MICROS_SCALE[np.fromiter(map(len, micros), dtype=np.intp, count=n)]
        chunk_times = np.fromiter(map(float, sec), dtype=np.float64, count=n) + us / 1e6
        if chunk_ids.max() > MAX_CAN_ID or not np.isfinite(chunk_times).all():
            _raise_first_bad_line(lines, start)
        times[start:start + n] = chunk_times
        ids[start:start + n] = chunk_ids
    return times, ids


def _parse_csv(lines):
    numbered = ((i + 1, line) for i, line in enumerate(lines) if line.strip())
    try:
        number, header = next(numbered)
    except StopIteration:
        raise ValueError("empty input") from None
    cols = next(csv.reader([header]))
    if [c.strip().lower() for c in cols[:3]] != _CSV_HEADER:
        raise ParseError(number, f"expected header 'timestamp,can_id,data', got {header!r}")
    times, ids = [], []
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
        times.append(ts)
        ids.append(_check_id(number, can_id))
    return np.array(times, dtype=np.float64), np.array(ids, dtype=np.uint32)


def parse_log(text, fmt):
    """Parse log text into a Trace sorted by timestamp (stable for ties)."""
    parse = _parse_candump if fmt is LogFormat.CANDUMP else _parse_csv
    times, ids = parse(text.splitlines())
    if not len(times):
        raise ValueError("no records in input")
    order = np.argsort(times, kind="stable")
    return Trace(times=times[order], ids=ids[order])


def write_trace(trace, fmt):
    """Serialize a trace at microsecond resolution: each time is rounded to
    whole nanoseconds, half to even (as Python's ``round`` does), then
    truncated to microseconds, so a parse/write round-trip is exact at
    microsecond resolution and 0.123456499999 s writes as 0.123456. A
    timestamp below zero at that resolution raises ValueError naming the
    first one, since parse_log rejects negative times; so does one that is
    not finite or reaches 2**63 ns (about 292 years)."""
    times = np.asarray(trace.times, dtype=np.float64)
    ns = np.rint(times * 1e9)
    bad = np.flatnonzero(~((ns >= 0.0) & (ns < _MAX_NS)))
    if len(bad):
        t = float(times[bad[0]])
        if ns[bad[0]] < 0.0:
            raise ValueError(f"cannot write negative timestamp {t:.9f} s: logs hold only non-negative times")
        raise ValueError(f"cannot write timestamp {t!r} s: logs hold finite times below 2**63 ns")
    sec, frac = np.divmod(ns.astype(np.int64) // 1000, 1_000_000)
    line = _CANDUMP_LINE if fmt is LogFormat.CANDUMP else _CSV_LINE
    out = [] if fmt is LogFormat.CANDUMP else [",".join(_CSV_HEADER) + "\n"]
    for start in range(0, len(times), CHUNK_LINES):
        stop = start + CHUNK_LINES
        out.append("".join(map(line.__mod__, zip(sec[start:stop].tolist(), frac[start:stop].tolist(),
                                                   trace.ids[start:stop].tolist()))))
    return "".join(out)


def fill_missing(trace, message_id, period):
    """Repair dropped messages of one id: any gap above 1.5*period gets
    floor(gap/period - 0.5) synthetic arrivals, evenly spaced; the synthetic
    records carry the ``inserted`` flag. Originals are never moved."""
    if period <= 0.0:
        raise ValueError("period must be > 0")
    a = trace.arrivals(message_id)
    gaps = np.diff(a)
    fills = []
    for i in np.flatnonzero(gaps > 1.5 * period).tolist():
        gap = gaps[i]
        n_ins = int(np.floor(gap / period - 0.5))
        fills.append(a[i] + gap / (n_ins + 1) * np.arange(1, n_ins + 1))
    if not fills:
        return trace
    times = np.concatenate(fills)
    filler = Trace(
        times=times,
        ids=np.full(len(times), message_id, dtype=np.uint32),
        inserted=np.ones(len(times), dtype=bool),
    )
    return Trace.merge(trace, filler)
