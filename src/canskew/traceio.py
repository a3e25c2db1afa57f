"""Reading, writing, and gap-repair of CAN timestamp logs.

Two formats: candump text lines "(sec.micros) iface ID#data" and CSV with
header "timestamp,can_id,data", whose can_id is hex with a 0x prefix and
decimal without one. Payload bytes are discarded on parse — only timing
matters here. Timestamps serialize at microsecond resolution.

``parse_log`` takes a log as ``str`` or as UTF-8 ``bytes`` and parses it in
slices of whole lines of at most SLICE_BYTES (characters, for a ``str``,
which is encoded one slice at a time). A slice's temporary arrays are all
that exist beside the output arrays, which the slices fill in place, so the
memory follows the parsed records rather than the log text. A log already in
time order is not sorted again. Each slice takes one of two paths:

- The row pass takes a slice of ASCII lines in which all lines of one length
  share one layout: each holds every field in the columns where the first
  line of its length does, and ends in LF or CRLF as that line does (a final
  line without a line break is given an LF). A slice of one line length is
  read as a (lines, width) view: every slice of a log ``write_trace`` wrote,
  unless its seconds or ids change digit count within it. Any other slice is
  grouped by line length, each group gathered as (lines, width) rows and its
  values put back in text order. Each run of like columns is checked at
  once by byte class, and each numeral is decoded column by column, by
  Horner's rule in exact int64 arithmetic.
- Texts under 4096 characters (bytes), and slices the row pass refuses, are
  parsed line by line (candump by one regex ``findall``, CSV by
  ``csv.reader``); only this path raises ParseError. It takes slices with a
  bad line, a blank line, a byte outside ASCII or a line break other than LF
  and CRLF; lines of one length in two layouts; candump slices with a
  seconds field over 18 digits; and CSV slices with a quote, a time not
  written digits.digits below 2**53 units of its last digit, or an id
  without 0x. A byte that is not UTF-8 is a ParseError naming its line.

A candump time is ``sec + micros / 1e6``; a CSV time is its digits as one
integer below 2**53 over a power of ten, so it rounds as ``float`` rounds
the text.

``write_chunks`` yields a log CHUNK_LINES lines at a time, and
``write_trace`` joins them. The lines of a chunk whose seconds and ids each
have one digit count share one layout: they are one (lines, width) uint8
array, its punctuation written once per column and its numerals from packed
digit tables (``_digits``), decoded to text once. A chunk of several layouts
is grouped by layout, as ``_array_pass`` groups lines by length when
reading, and each group's rows are put in place. Times and ids that
``parse_log`` would refuse are refused before any chunk is made.
"""
from __future__ import annotations

import csv
import enum
import math
import re
from itertools import groupby, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .clock import MAX_CAN_ID, Trace

__all__ = ["LogFormat", "ParseError", "parse_log", "write_trace", "write_chunks", "fill_missing"]

CHUNK_LINES = 8192  # lines per written chunk
SLICE_BYTES = 1 << 17  # parse slice, unless one line is longer
# shorter texts are parsed line by line: there numpy's cost per call
# outweighs its saving per line (they broke even near 3-5 KB of log lines)
_ARRAY_MIN_CHARS = 4096
# one record per line: the separators exclude newlines, so a match never
# crosses into the next line of joined records. Digits are ASCII ones: \d
# would take any Unicode digit, which int and float read as its value.
_CANDUMP_RE = re.compile(
    r"^\(([0-9]+)\.([0-9]{1,6})\)[^\S\n]+\S+[^\S\n]+([0-9A-Fa-f]{1,8})#[0-9A-Fa-f]*[^\S\n]*$", re.M
)
# what float and int read in a numeral beyond ASCII digits: "_" between
# digits and Unicode digits, which a log's CSV fields may not hold
_NOT_ASCII_NUMERAL = re.compile(r"_|(?![0-9])\d")
# the start of a CSV record the row pass takes: digits.digits,0xhex, then
# "," or the end of the line
_CSV_RECORD_RE = re.compile(r"([0-9]+)\.([0-9]+),0[xX]([0-9A-Fa-f]{1,8})(,|$)")
_MICROS_SCALE = 10 ** np.arange(6, -1, -1, dtype=np.int64)  # indexed by digit count
_CSV_HEADER = ["timestamp", "can_id", "data"]
_MAX_NS = 2.0**63  # nanosecond counts below this fit an int64

# Byte classes. Blanks are what [^\S\n] matches in ASCII once splitlines has
# cut the text; the other ASCII whitespace breaks lines there, so it is
# foreign to a record's columns, as every byte outside ASCII is.
_DIGIT, _HEX_LETTER, _OTHER, _BLANK, _FOREIGN = range(5)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b"abcdefABCDEF")] = _HEX_LETTER
_CLASS[list(b" \t\x1f")] = _BLANK
_CLASS[list(b"\n\r\x0b\x0c\x1c\x1d\x1e")] = _FOREIGN
_CLASS[128:] = _FOREIGN
# the classes a column of a slice's rows may hold, by its letter in _fits:
# hex digit, token byte, blank, a byte after a CSV record's id
_KINDS = {"h": (_DIGIT, _HEX_LETTER), "t": (_DIGIT, _OTHER), "s": (_BLANK, _BLANK), "r": (_DIGIT, _BLANK)}
_DIGIT_VALUE = np.zeros(256, dtype=np.uint8)
_DIGIT_VALUE[list(b"0123456789abcdefABCDEF")] = [*range(16), *range(10, 16)]
# up to 10**18 as int64, and so as exact doubles (5**18 < 2**53)
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


class LogFormat(enum.Enum):
    CANDUMP = "candump"
    CSV = "csv"


# each written line: prefix, seconds, ".", six digits of micros, middle, id in
# at least three hex digits, suffix
_LAYOUTS = {LogFormat.CANDUMP: (b"(", b") can0 ", b"#\n"), LogFormat.CSV: (b"", b",0x", b",\n")}


class ParseError(ValueError):
    """Malformed log input; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def _check_id(line_number, can_id):
    if not 0 <= can_id <= MAX_CAN_ID:
        raise ParseError(line_number, f"CAN id {can_id:#x} outside [0, {MAX_CAN_ID:#x}]")
    return can_id


def _raise_first_bad_line(lines, before):
    """Raise the ParseError of the first bad candump line among ``lines``,
    which follow ``before`` lines of the text: one that is no candump record,
    has more seconds than a double holds, or whose id is out of range. Line
    numbers count blank lines too."""
    for number, line in enumerate(lines, start=before + 1):
        if not line.strip():
            continue
        m = _CANDUMP_RE.match(line)
        if m is None:
            raise ParseError(number, f"not a candump record: {line!r}")
        if math.isinf(float(m[1])):
            raise ParseError(number, f"timestamp out of range: {line!r}")
        _check_id(number, int(m[3], 16))
    raise AssertionError("no bad candump line found")


def _candump_lines(lines, before):
    """Parse candump ``lines`` that follow ``before`` lines of the text with
    one regex ``findall``."""
    records = [line for line in lines if line.strip()]
    found = _CANDUMP_RE.findall("\n".join(records))
    n = len(found)
    if n < len(records):
        _raise_first_bad_line(lines, before)
    sec, micros, can_id = ([m[k] for m in found] for k in range(3))
    ids = np.fromiter(map(int, can_id, repeat(16)), dtype=np.int64, count=n)
    # int(micros.ljust(6, "0")) as micros * 10**(6 - digits); float(sec)
    # is int(sec) rounded to a double, as int + float rounds it
    us = np.fromiter(map(int, micros), dtype=np.int64, count=n)
    us *= _MICROS_SCALE[np.fromiter(map(len, micros), dtype=np.intp, count=n)]
    times = np.fromiter(map(float, sec), dtype=np.float64, count=n) + us / 1e6
    if ids.max(initial=0) > MAX_CAN_ID or not np.isfinite(times).all():
        _raise_first_bad_line(lines, before)
    return times, ids.astype(np.uint32)


def _csv_lines(lines, before):
    """Parse CSV record ``lines`` that follow ``before`` lines of the text
    with ``csv.reader``."""
    times, ids = [], []
    for number, line in enumerate(lines, start=before + 1):
        if not line.strip():
            continue
        row = next(csv.reader([line]))
        if len(row) < 2:
            raise ParseError(number, f"expected at least timestamp and can_id: {line!r}")
        if _NOT_ASCII_NUMERAL.search(row[0]) or _NOT_ASCII_NUMERAL.search(row[1]):
            raise ParseError(number, f"timestamp and can_id must be written in ASCII digits without '_': {line!r}")
        try:
            ts = float(row[0])
            text = row[1].strip()
            can_id = int(text, 16) if text.lower().startswith("0x") else int(text, 10)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from exc
        if not math.isfinite(ts):
            raise ParseError(number, f"timestamp out of range: {line!r}")
        if ts < 0.0:
            raise ParseError(number, f"negative timestamp {row[0]}")
        times.append(ts)
        ids.append(_check_id(number, can_id))
    return np.array(times, dtype=np.float64), np.array(ids, dtype=np.uint32)


def _horner(places, base, n):
    """Values of ``n`` numerals in ``base`` from their digit values, given
    place by place, most significant first, as arrays of ``n``: exact int64
    arithmetic up to 18 decimal or 15 hex digits."""
    value = np.zeros(n, dtype=np.int64)
    for place in places:
        value *= base
        value += place
    return value


def _fits(cols, template):
    """Whether every line of a slice, given as the columns ``cols`` of its
    (lines, width) view, has line 0's layout ``template``, one letter per
    column: "L" where a line holds line 0's byte, "d" a decimal digit, else
    a byte of the letter's classes in _KINDS. Runs of one letter are checked
    together."""
    start = 0
    for kind, run in groupby(template):
        stop = start + len(list(run))
        block = cols[start:stop]
        if kind == "L":
            fits = (block == block[:, :1]).all()
        elif kind == "d":  # class _DIGIT: the bytes 0-9
            fits = (block - ord("0")).max() <= 9
        else:
            low, high = _KINDS[kind]
            cls = _CLASS.take(block)
            fits = ((cls >= low) & (cls <= high)).all()
        if not fits:
            return False
        start = stop
    return True


def _blanks_or(cls, kind):
    """Template letters of the columns whose line 0 bytes have classes
    ``cls``: "s" where a blank is, ``kind`` elsewhere."""
    return "".join("s" if c == _BLANK else kind for c in cls.tolist())


def _record_end(rows):
    """Column of the line break of (lines, width) ``rows``: the LF at the
    end, or the CR before it where line 0 has one."""
    width = rows.shape[1]
    return width - 2 if width > 1 and rows[0, -2] == ord("\r") else width - 1


def _values(cols, span, base):
    """Values of the numerals in ``base`` whose digits are the columns
    ``span`` of a slice's columns ``cols``."""
    digits = cols[span[0]:span[1]]
    return _horner(digits - ord("0") if base == 10 else _DIGIT_VALUE.take(digits), base, cols.shape[1])


def _candump_rows(rows):
    """(times, ids) of a candump slice whose lines, all of one length, are
    the rows of ``rows``, or None unless every line has line 0's layout: a
    record whose fields lie in the columns of line 0's, with a seconds field
    of at most 18 digits and an id in range."""
    end = _record_end(rows)
    m = _CANDUMP_RE.match(rows[0, :end].tobytes().decode("ascii"))
    if m is None or len(m[1]) > 18:
        return None
    cls, close, (id_start, hash_at) = _CLASS.take(rows[0]), m.end(2), m.span(3)
    template = ("L" + "d" * len(m[1]) + "L" + "d" * len(m[2]) + "L" + _blanks_or(cls[close + 1:id_start], "t")
                + "h" * len(m[3]) + "L" + _blanks_or(cls[hash_at + 1:end], "h") + "L" * (len(cls) - end))
    cols = rows.T.copy()  # contiguous columns: numpy runs over them several times faster
    if not _fits(cols, template):
        return None
    ids = _values(cols, m.span(3), 16)
    if ids.max() > MAX_CAN_ID:
        return None
    us = _values(cols, m.span(2), 10) * _MICROS_SCALE[len(m[2])]
    return _values(cols, m.span(1), 10).astype(np.float64) + us / 1e6, ids.astype(np.uint32)


def _csv_rows(rows):
    """(times, ids) of a CSV slice whose record lines, all of one length, are
    the rows of ``rows``, or None unless every line has line 0's layout: a
    record ``digits.digits,0xhex`` ended by "," or the line, with no quote
    after the id, whose fields lie in the columns of line 0's, with a time of
    at most 2**53 units and an id in range."""
    end = _record_end(rows)
    m = _CSV_RECORD_RE.match(rows[0, :end].tobytes().decode("ascii"))
    if m is None or len(m[1]) + len(m[2]) > 18:
        return None
    rest = "L" + "r" * (end - m.end()) if m[4] else ""
    template = "d" * len(m[1]) + "L" + "d" * len(m[2]) + "LLL" + "h" * len(m[3]) + rest + "L" * (rows.shape[1] - end)
    cols = rows.T.copy()
    if not _fits(cols, template) or (cols[m.end():end] == ord('"')).any():
        return None
    units = _values(cols, m.span(1), 10) * _POWERS_OF_TEN[len(m[2])] + _values(cols, m.span(2), 10)
    ids = _values(cols, m.span(3), 16)
    if units.max() > 2**53 or ids.max() > MAX_CAN_ID:
        return None
    return units / _POWERS_OF_TEN[len(m[2])], ids.astype(np.uint32)


def _decode(piece, before, line_parser=None):
    """``piece`` of a log, which follows ``before`` lines, as text: bytes are
    decoded as UTF-8, and a byte that is not raises ParseError naming its
    line, once ``line_parser`` has found no bad line before that one."""
    if isinstance(piece, str):
        return piece
    try:
        return piece.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = (piece[:exc.start].decode("utf-8") + "x").splitlines()  # "x" stands in for the bad byte
        if line_parser is not None:
            line_parser(lines[:-1], before)
        raise ParseError(before + len(lines), f"not UTF-8: {exc.reason} {piece[exc.start]:#04x}") from None


def _array_pass(piece, row_parser):
    """(times, ids, line count) of a slice by the row pass, or None when the
    slice holds a byte outside ASCII or ``row_parser`` refuses a group of
    its lines. A final line without LF is given one. A slice is first read
    as a (lines, width) view, width its first line's length; unless the
    row parser takes that, its lines are grouped by length, each group
    gathered as (lines, width) rows, and the values put back in text
    order."""
    if not piece.isascii():
        return None
    raw = piece.encode("ascii") if isinstance(piece, str) else piece
    if not raw.endswith(b"\n"):
        raw += b"\n"
    data = np.frombuffer(raw, dtype=np.uint8)
    width = raw.find(b"\n") + 1
    if not len(raw) % width:
        rows = data.reshape(-1, width)
        if (rows[:, -1] == ord("\n")).all():
            part = row_parser(rows)
            if part is not None:
                return (*part, len(rows))
    ends = np.flatnonzero(data == ord("\n"))
    lengths = np.diff(ends, prepend=-1)
    order = np.argsort(lengths)
    times, ids = np.empty(len(ends)), np.empty(len(ends), dtype=np.uint32)
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        width = int(lengths[group[0]])
        part = row_parser(sliding_window_view(data, width)[ends[group] - (width - 1)])
        if part is None:
            return None
        times[group], ids[group] = part
    return times, ids, len(ends)


def _parse_slices(text, pos, before, parsers):
    """(times, ids) in text order of the records of ``text`` from index
    ``pos`` on, which follow ``before`` lines. Slices of whole lines, of at
    most SLICE_BYTES unless one line is longer, are parsed by the row pass
    where it takes them, else by the line parser over their lines, and fill
    the output arrays in place. ``parsers`` are the format's row and line
    parsers."""
    row_parser, line_parser = parsers
    newline = "\n" if isinstance(text, str) else b"\n"
    size = text.count(newline, pos) + 1  # lines, unless some break at other than LF
    times, ids = np.empty(size), np.empty(size, dtype=np.uint32)
    n, short = 0, len(text) - pos < _ARRAY_MIN_CHARS
    while pos < len(text):
        # after the last LF within SLICE_BYTES, else after the next one
        cut = len(text) if short else (text.rfind(newline, pos, pos + SLICE_BYTES) + 1
                                       or text.find(newline, pos + SLICE_BYTES) + 1 or len(text))
        piece = text[pos:cut]
        part = None if short else _array_pass(piece, row_parser)
        if part is None:
            lines = _decode(piece, before, line_parser).splitlines()
            part = (*line_parser(lines, before), len(lines))
        part_times, part_ids, count = part
        k = len(part_times)
        if n + k > len(times):
            times, ids = np.resize(times, 2 * (n + k)), np.resize(ids, 2 * (n + k))
        times[n:n + k], ids[n:n + k] = part_times, part_ids
        n, pos, before = n + k, cut, before + count
    return times[:n], ids[:n]


def _parse_csv(text):
    """Check the header, the first non-blank line, and parse what follows."""
    newline = "\n" if isinstance(text, str) else b"\n"
    number = pos = 0
    while pos < len(text):
        for line in _decode(text[pos:text.find(newline, pos) + 1 or len(text)], number).splitlines(keepends=True):
            number, pos = number + 1, pos + (len(line) if isinstance(text, str) else len(line.encode()))
            if line.strip():
                header = line.splitlines()[0]
                if [c.strip().lower() for c in next(csv.reader([header]))[:3]] != _CSV_HEADER:
                    raise ParseError(number, f"expected header 'timestamp,can_id,data', got {header!r}")
                return _parse_slices(text, pos, number, (_csv_rows, _csv_lines))
    raise ValueError("empty input")


def parse_log(text, fmt):
    """Parse a log, ``str`` or UTF-8 ``bytes``, into a Trace sorted by
    timestamp (stable for ties). ``fmt`` is a LogFormat or its value."""
    fmt = LogFormat(fmt)
    if fmt is LogFormat.CANDUMP:
        times, ids = _parse_slices(text, 0, 0, (_candump_rows, _candump_lines))
    else:
        times, ids = _parse_csv(text)
    if not len(times):  # a CSV text without records still has its header
        raise ValueError("empty input" if fmt is LogFormat.CANDUMP else "no records in input")
    times, ids = _time_ordered(times, ids)
    return Trace(times=times, ids=ids)


def _time_ordered(times, ids):
    """``times`` and ``ids`` stably sorted by time: as they are when the
    times are already in order, since a stable sort leaves them so."""
    if (times[1:] >= times[:-1]).all():
        return times, ids
    order = np.argsort(times, kind="stable")
    return times[order], ids[order]


def _lines(sec, frac, ids, sec_digits, id_digits, fmt):
    """The (lines, width) rows of records that share one layout: seconds of
    ``sec_digits`` digits and ids of ``id_digits`` hex digits."""
    from . import _digits  # its tables load on the first write, not with the package
    prefix, middle, suffix = _LAYOUTS[fmt]
    point = len(prefix) + sec_digits
    id_end = point + 7 + len(middle) + id_digits
    rows = np.empty((len(sec), id_end + len(suffix)), dtype=np.uint8)
    for start, literal in ((0, prefix), (point, b"."), (point + 7, middle), (id_end, suffix)):
        if literal:
            _digits.field(rows, start, len(literal))[:] = np.void(literal)
    _digits.put(rows, point, sec, sec_digits, 10)
    _digits.put(rows, point + 7, frac, 6, 10)
    _digits.put(rows, id_end, ids, id_digits, 16)
    return rows


def _chunk_text(times, ids, fmt):
    """The lines of one chunk of records. Where the seconds or ids differ in
    digit count, the lines are grouped by layout, each group formatted as
    rows and put in place, as ``_array_pass`` groups lines when reading."""
    from . import _digits
    ns = np.rint(times * 1e9)
    sec, frac = np.divmod(ns.astype(np.int64) // 1000, 1_000_000)
    ids = ids.astype(np.int64)
    sec_digits = _digits.digit_counts(np.array([sec.min(), sec.max()]), 10, 1)
    id_digits = _digits.digit_counts(np.array([ids.min(), ids.max()]), 16, 3)
    if sec_digits[0] == sec_digits[1] and id_digits[0] == id_digits[1]:
        return _lines(sec, frac, ids, int(sec_digits[0]), int(id_digits[0]), fmt).tobytes().decode("ascii")
    sec_digits, id_digits = _digits.digit_counts(sec, 10, 1), _digits.digit_counts(ids, 16, 3)
    ends = np.cumsum(sec_digits + id_digits + sum(map(len, _LAYOUTS[fmt])) + 7)
    text = np.empty(int(ends[-1]), dtype=np.uint8)
    layout = sec_digits * 16 + id_digits
    order = np.argsort(layout, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(layout[order])) + 1):
        rows = _lines(sec[group], frac[group], ids[group], int(sec_digits[group[0]]), int(id_digits[group[0]]), fmt)
        width = rows.shape[1]
        lines = sliding_window_view(text, width, writeable=True).view(f"V{width}")[:, 0]
        lines[ends[group] - width] = rows.view(f"V{width}")[:, 0]
    return text.tobytes().decode("ascii")


def _check_writable(times, ids):
    """Raise ValueError naming the first time below zero at nanosecond
    resolution, not finite or from 2**63 ns on, else the first id above
    MAX_CAN_ID: parse_log would refuse them."""
    if not len(times):
        return
    ends = np.rint(np.array([times.min(), times.max()]) * 1e9)  # NaN if any time is
    if not (ends[0] >= 0.0 and ends[1] < _MAX_NS):
        ns = np.rint(times * 1e9)
        first = np.flatnonzero(~((ns >= 0.0) & (ns < _MAX_NS)))[0]
        t = float(times[first])
        if ns[first] < 0.0:
            raise ValueError(f"cannot write negative timestamp {t:.9f} s: logs hold only non-negative times")
        raise ValueError(f"cannot write timestamp {t!r} s: logs hold finite times below 2**63 ns")
    if ids.max() > MAX_CAN_ID:
        can_id = int(ids[np.flatnonzero(ids > MAX_CAN_ID)[0]])
        raise ValueError(f"cannot write CAN id {can_id:#x}: logs hold ids in [0, {MAX_CAN_ID:#x}]")


def write_chunks(trace, fmt):
    """Serialize a trace as ``write_trace`` does, as an iterator of text
    chunks: the CSV header, then CHUNK_LINES lines at a time. The trace is
    checked when this is called, before any chunk is made."""
    fmt = LogFormat(fmt)
    times, ids = np.asarray(trace.times, dtype=np.float64), np.asarray(trace.ids)
    _check_writable(times, ids)
    return _chunks(times, ids, fmt)


def _chunks(times, ids, fmt):
    if fmt is LogFormat.CSV:
        yield ",".join(_CSV_HEADER) + "\n"
    for start in range(0, len(times), CHUNK_LINES):
        yield _chunk_text(times[start:start + CHUNK_LINES], ids[start:start + CHUNK_LINES], fmt)


def write_trace(trace, fmt):
    """Serialize a trace at microsecond resolution: each time is rounded to
    whole nanoseconds, half to even (as Python's ``round`` does), then
    truncated to microseconds, so a parse/write round-trip is exact at
    microsecond resolution and 0.123456499999 s writes as 0.123456. A
    timestamp below zero at that resolution raises ValueError naming the
    first one, since parse_log rejects negative times; so does one that is
    not finite or reaches 2**63 ns (about 292 years), and so does an id
    above MAX_CAN_ID. ``fmt`` is a LogFormat or its value. The text is the
    join of ``write_chunks``."""
    return "".join(write_chunks(trace, fmt))


def _fill_times(a, period):
    """The synthetic arrivals, in time order, that repair arrivals ``a``."""
    gaps = np.diff(a)
    fills = [np.zeros(0)]
    for i in np.flatnonzero(gaps > 1.5 * period).tolist():
        gap = gaps[i]
        n_ins = int(np.floor(gap / period - 0.5))
        fills.append(a[i] + gap / (n_ins + 1) * np.arange(1, n_ins + 1))
    return np.sort(np.concatenate(fills), kind="stable")


def fill_missing(trace, message_id, period):
    """Repair dropped messages of one id: any gap above 1.5*period gets
    floor(gap/period - 0.5) synthetic arrivals, evenly spaced. Originals are
    never moved. A trace with no gap to fill is returned as it is; else the
    result equals ``Trace.merge`` of the trace and the arrivals, each
    inserted into the stably sorted trace after the originals it ties with."""
    if not 0.0 < period < math.inf:
        raise ValueError(f"period must be finite and > 0, got {period}")
    # the id's arrivals and their gaps are gone before the output is built
    fills = _fill_times(trace.arrivals(message_id), period)
    if not len(fills):
        return trace
    times, ids = _time_ordered(trace.times, trace.ids)
    at = np.searchsorted(times, fills, side="right")
    return Trace(times=np.insert(times, at, fills), ids=np.insert(ids, at, message_id))
