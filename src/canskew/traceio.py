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
time order is not sorted again. Each slice takes one of three paths:

- The uniform pass takes a slice whose lines have one length, each ended by
  LF, and one layout: every line holds each field in the columns where its
  first line does. Every slice of a log ``write_trace`` wrote is one, unless
  its seconds or ids differ in digit count. The slice is a (lines, width)
  view; each run of like columns is checked at once, by the byte classes
  the general pass uses, and each numeral is decoded column by column.
- The general pass takes the other slices of ASCII lines: field boundaries
  come from ``np.flatnonzero`` and ``searchsorted``, and each numeral's
  digits are gathered place by place.
- Texts under 4096 characters (bytes), and slices neither pass takes, are
  parsed line by line (candump by one regex ``findall``, CSV by
  ``csv.reader``); only this path raises ParseError. It takes slices with a
  bad line, a byte outside ASCII or a line break other than LF and CRLF;
  candump slices with a seconds field over 18 digits; and CSV slices with a
  quote, a blank-only line, a time not written digits.digits below 2**53
  units of its last digit, or an id without 0x. A byte that is not UTF-8 is
  a ParseError naming its line.

Both array passes decode numerals by Horner's rule in exact int64
arithmetic. A candump time is ``sec + micros / 1e6``; a CSV time is its
digits as one integer below 2**53 over a power of ten, so it rounds as
``float`` rounds the text. ``write_trace`` formats CHUNK_LINES lines at a
time, each chunk one (lines, width) array of digits and punctuation, decoded
once.
"""
from __future__ import annotations

import csv
import enum
import math
import re
from itertools import groupby, repeat

import numpy as np

from .clock import MAX_CAN_ID, Trace

__all__ = ["LogFormat", "ParseError", "parse_log", "write_trace", "fill_missing"]

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
# the start of a CSV record _csv_chunk takes: digits.digits,0xhex, then
# "," or the end of the line
_CSV_RECORD_RE = re.compile(r"([0-9]+)\.([0-9]+),0[xX]([0-9A-Fa-f]{1,8})(,|$)")
_MICROS_SCALE = 10 ** np.arange(6, -1, -1, dtype=np.int64)  # indexed by digit count
_CSV_HEADER = ["timestamp", "can_id", "data"]
_MAX_NS = 2.0**63  # nanosecond counts below this fit an int64

# Byte classes. Blanks are what [^\S\n] matches in ASCII once splitlines has
# cut the text; the other ASCII whitespace breaks lines there, so it is
# foreign to the array pass, as every byte outside ASCII is.
_DIGIT, _HEX_LETTER, _OTHER, _BLANK, _BREAK, _FOREIGN = range(6)
_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_CLASS[list(b"0123456789")] = _DIGIT
_CLASS[list(b"abcdefABCDEF")] = _HEX_LETTER
_CLASS[list(b" \t\x1f")] = _BLANK
_CLASS[list(b"\n\r")] = _BREAK
_CLASS[list(b"\x0b\x0c\x1c\x1d\x1e")] = _FOREIGN
_CLASS[128:] = _FOREIGN
# the classes a column of a uniform slice may hold, by its letter in _fits:
# hex digit, token byte, blank, a byte after a CSV record's id
_KINDS = {"h": (_DIGIT, _HEX_LETTER), "t": (_DIGIT, _OTHER), "s": (_BLANK, _BLANK), "r": (_DIGIT, _BLANK)}
_DIGIT_VALUE = np.zeros(256, dtype=np.uint8)
_DIGIT_VALUE[list(b"0123456789abcdefABCDEF")] = [*range(16), *range(10, 16)]
_NUMERALS = np.frombuffer(b"0123456789ABCDEF", dtype=np.uint8)
# up to 10**18 as int64, and so as exact doubles (5**18 < 2**53)
_POWERS = {10: 10 ** np.arange(19, dtype=np.int64), 16: 16 ** np.arange(16, dtype=np.int64)}


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


def _numbers(chunk, end, count, base):
    """Values of the numerals of ``count`` digits in ``base`` that end just
    before the indices ``end`` of the chunk."""
    least = int(count.min(initial=0))

    def place(k):  # a shorter numeral's places before its first digit are 0
        digits = _DIGIT_VALUE.take(chunk.take(end - k, mode="clip"))
        return digits if k <= least else np.where(count >= k, digits, 0)

    return _horner(map(place, range(int(count.max(initial=0)), 0, -1)), base, len(end))


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
    record ``_csv_chunk`` takes whose fields lie in the columns of line 0's,
    with a time of at most 2**53 units and an id in range."""
    end = _record_end(rows)
    m = _CSV_RECORD_RE.match(rows[0, :end].tobytes().decode("ascii"))
    if m is None or len(m[1]) + len(m[2]) > 18:
        return None
    rest = "L" + "r" * (end - m.end()) if m[4] else ""
    template = "d" * len(m[1]) + "L" + "d" * len(m[2]) + "LLL" + "h" * len(m[3]) + rest + "L" * (rows.shape[1] - end)
    cols = rows.T.copy()
    if not _fits(cols, template) or (cols[m.end():end] == ord('"')).any():
        return None
    units = _values(cols, m.span(1), 10) * _POWERS[10][len(m[2])] + _values(cols, m.span(2), 10)
    ids = _values(cols, m.span(3), 16)
    if units.max() > 2**53 or ids.max() > MAX_CAN_ID:
        return None
    return units / _POWERS[10][len(m[2])], ids.astype(np.uint32)


def _candump_chunk(chunk, cls, newlines):
    """(times, ids) of a candump chunk, or None when it has a line that is
    no record, a seconds field over 18 digits or an id out of range. A record
    is three tokens, runs of non-blank bytes, on one line, the first at its
    start: ``(sec.micros)``, the interface, ``id#payload``."""
    token = cls <= _OTHER
    edges = np.flatnonzero(np.diff(token, prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0, append=len(starts))
    if not ((per_line == 0) | (per_line == 3)).all():
        return None
    first, first_end, third, third_end = starts[0::3], ends[0::3], starts[2::3], ends[2::3]
    ok = cls[first - 1] == _BREAK  # at index 0, -1 reads the break past the end
    # (digits.digits): the first token's non-digits are "(", "." and ")"
    nondigit = np.flatnonzero(cls != _DIGIT)
    k = np.searchsorted(nondigit, first)
    dot, close = nondigit.take(k + 1, mode="clip"), nondigit.take(k + 2, mode="clip")
    sec_digits, micro_digits = dot - first - 1, close - dot - 1
    ok &= ((chunk[first] == ord("(")) & (chunk.take(dot, mode="clip") == ord("."))
           & (close == first_end - 1) & (chunk.take(close, mode="clip") == ord(")"))
           & (sec_digits >= 1) & (sec_digits <= 18) & (micro_digits >= 1) & (micro_digits <= 6))
    # hex#hex: the third token's one non-hex byte is "#"
    nonhex = np.flatnonzero(cls >= _OTHER)
    k = np.searchsorted(nonhex, third)
    hash_at = nonhex[k]
    id_digits = hash_at - third
    ok &= ((chunk.take(hash_at, mode="clip") == ord("#")) & (nonhex.take(k + 1, mode="clip") == third_end)
           & (id_digits >= 1) & (id_digits <= 8))
    if not ok.all():
        return None
    ids = _numbers(chunk, hash_at, id_digits, 16)
    if ids.max(initial=0) > MAX_CAN_ID:
        return None
    us = _numbers(chunk, close, micro_digits, 10) * _MICROS_SCALE[micro_digits]
    return _numbers(chunk, dot, sec_digits, 10).astype(np.float64) + us / 1e6, ids.astype(np.uint32)


def _csv_chunk(chunk, cls, newlines):
    """(times, ids) of CSV record lines in a chunk, or None when a line is
    neither empty nor digits.digits,0xhex[,...] with the id in range and the
    time below 2**53 units of its last digit (an exact integer over an exact
    power of ten, which one division rounds as ``float`` rounds the text)."""
    if (chunk == ord('"')).any():
        return None
    starts = np.concatenate(([0], newlines + 1))
    kind = cls[starts]  # a start past the end reads the line break there
    if not ((kind == _DIGIT) | (kind == _BREAK)).all():
        return None
    starts = starts[kind == _DIGIT]
    nondigit = np.flatnonzero(cls != _DIGIT)
    k = np.searchsorted(nondigit, starts)
    dot, comma = nondigit[k], nondigit.take(k + 1, mode="clip")
    int_digits, frac_digits = dot - starts, comma - dot - 1
    x = comma + 2
    nonhex = np.flatnonzero(cls >= _OTHER)
    id_end = nonhex.take(np.searchsorted(nonhex, x) + 1, mode="clip")
    id_digits = id_end - x - 1
    ok = ((chunk.take(dot, mode="clip") == ord(".")) & (chunk.take(comma, mode="clip") == ord(","))
          & (frac_digits >= 1) & (int_digits + frac_digits <= 18)
          & (chunk.take(comma + 1, mode="clip") == ord("0")) & ((chunk.take(x, mode="clip") | 0x20) == ord("x"))
          & (id_digits >= 1) & (id_digits <= 8)
          & ((chunk.take(id_end, mode="clip") == ord(",")) | (cls.take(id_end, mode="clip") == _BREAK)))
    if not ok.all():
        return None
    units = _numbers(chunk, dot, int_digits, 10) * _POWERS[10][frac_digits] + _numbers(chunk, comma, frac_digits, 10)
    ids = _numbers(chunk, id_end, id_digits, 16)
    if units.max(initial=0) > 2**53 or ids.max(initial=0) > MAX_CAN_ID:
        return None
    return units / _POWERS[10][frac_digits], ids.astype(np.uint32)


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


def _array_pass(piece, row_parser, slice_parser):
    """(times, ids, LF count) of a slice by the array passes, or None when
    the slice holds a byte outside ASCII or a line break other than LF and
    CRLF, or neither pass takes it. A slice of lines of one length, each
    ended by LF, is a (lines, width) view that ``row_parser`` takes when its
    lines share one layout; any other goes to ``slice_parser`` over its
    bytes and their classes."""
    if not piece.isascii():
        return None
    raw = piece.encode("ascii") if isinstance(piece, str) else piece
    data = np.frombuffer(raw, dtype=np.uint8)
    width = raw.find(b"\n") + 1
    if width and not len(raw) % width:
        rows = data.reshape(-1, width)
        if (rows[:, -1] == ord("\n")).all():
            part = row_parser(rows)
            if part is not None:
                return (*part, len(rows))
    cls = _CLASS.take(np.append(data, ord("\n")))  # a line break past the end ends every token
    if cls.max() == _FOREIGN or not (data.take(np.flatnonzero(data == 13) + 1, mode="clip") == 10).all():
        return None
    newlines = np.flatnonzero(data == 10)
    part = slice_parser(data, cls, newlines)
    return None if part is None else (*part, len(newlines))


def _parse_slices(text, pos, before, parsers):
    """(times, ids) in text order of the records of ``text`` from index
    ``pos`` on, which follow ``before`` lines. Slices of whole lines, of at
    most SLICE_BYTES unless one line is longer, are parsed by the array
    passes where they take them, else by the line parser over their lines,
    and fill the output arrays in place. ``parsers`` are the format's row,
    slice and line parsers."""
    row_parser, slice_parser, line_parser = parsers
    newline = "\n" if isinstance(text, str) else b"\n"
    size = text.count(newline, pos) + 1  # lines, unless some break at other than LF
    times, ids = np.empty(size), np.empty(size, dtype=np.uint32)
    n, short = 0, len(text) - pos < _ARRAY_MIN_CHARS
    while pos < len(text):
        # after the last LF within SLICE_BYTES, else after the next one
        cut = len(text) if short else (text.rfind(newline, pos, pos + SLICE_BYTES) + 1
                                       or text.find(newline, pos + SLICE_BYTES) + 1 or len(text))
        piece = text[pos:cut]
        part = None if short else _array_pass(piece, row_parser, slice_parser)
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
                return _parse_slices(text, pos, number, (_csv_rows, _csv_chunk, _csv_lines))
    raise ValueError("empty input")


def parse_log(text, fmt):
    """Parse a log, ``str`` or UTF-8 ``bytes``, into a Trace sorted by
    timestamp (stable for ties). ``fmt`` is a LogFormat or its value."""
    fmt = LogFormat(fmt)
    if fmt is LogFormat.CANDUMP:
        times, ids = _parse_slices(text, 0, 0, (_candump_rows, _candump_chunk, _candump_lines))
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


def _numerals(values, base, min_digits):
    """ASCII numerals of non-negative ``values`` in ``base``, zero-padded to
    ``min_digits``, as right-aligned rows of equal width, and the mask of the
    bytes each numeral has."""
    powers = _POWERS[base]
    digits = np.maximum(np.searchsorted(powers[1:], values, side="right") + 1, min_digits)
    width = int(digits.max())
    chars = np.empty((len(values), width), dtype=np.uint8)
    for column, power in enumerate(powers[width - 1::-1].tolist()):
        chars[:, column] = _NUMERALS.take(values // power % base)  # scalar divisors divide fast
    return chars, np.arange(width) >= width - digits[:, None]


def _literal(piece, n):
    chars = np.broadcast_to(np.frombuffer(piece, dtype=np.uint8), (n, len(piece)))
    return chars, np.ones(chars.shape, dtype=bool)


def _format_lines(sec, frac, ids, fmt):
    n = len(sec)
    prefix, middle, suffix = _LAYOUTS[fmt]
    columns = [_literal(prefix, n), _numerals(sec, 10, 1), _literal(b".", n), _numerals(frac, 10, 6),
               _literal(middle, n), _numerals(ids, 16, 3), _literal(suffix, n)]
    chars = np.hstack([chars for chars, _ in columns])
    keep = np.hstack([keep for _, keep in columns])
    return chars[keep].tobytes().decode("ascii")


def write_trace(trace, fmt):
    """Serialize a trace at microsecond resolution: each time is rounded to
    whole nanoseconds, half to even (as Python's ``round`` does), then
    truncated to microseconds, so a parse/write round-trip is exact at
    microsecond resolution and 0.123456499999 s writes as 0.123456. A
    timestamp below zero at that resolution raises ValueError naming the
    first one, since parse_log rejects negative times; so does one that is
    not finite or reaches 2**63 ns (about 292 years). ``fmt`` is a
    LogFormat or its value. The trace is formatted CHUNK_LINES at a time."""
    fmt = LogFormat(fmt)
    times, ids = np.asarray(trace.times, dtype=np.float64), np.asarray(trace.ids)
    out = [] if fmt is LogFormat.CANDUMP else [",".join(_CSV_HEADER) + "\n"]
    for start in range(0, len(times), CHUNK_LINES):
        chunk = times[start:start + CHUNK_LINES]
        ns = np.rint(chunk * 1e9)
        bad = np.flatnonzero(~((ns >= 0.0) & (ns < _MAX_NS)))
        if len(bad):
            t = float(chunk[bad[0]])
            if ns[bad[0]] < 0.0:
                raise ValueError(f"cannot write negative timestamp {t:.9f} s: logs hold only non-negative times")
            raise ValueError(f"cannot write timestamp {t!r} s: logs hold finite times below 2**63 ns")
        sec, frac = np.divmod(ns.astype(np.int64) // 1000, 1_000_000)
        out.append(_format_lines(sec, frac, ids[start:start + CHUNK_LINES].astype(np.int64), fmt))
    return "".join(out)


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
    if period <= 0.0:
        raise ValueError("period must be > 0")
    # the id's arrivals and their gaps are gone before the output is built
    fills = _fill_times(trace.arrivals(message_id), period)
    if not len(fills):
        return trace
    times, ids = _time_ordered(trace.times, trace.ids)
    at = np.searchsorted(times, fills, side="right")
    return Trace(times=np.insert(times, at, fills), ids=np.insert(ids, at, message_id))
