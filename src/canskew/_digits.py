"""ASCII numerals from packed digit tables, for the log and table writers,
and the hex float rows of snapshot files, written and read.

A table holds every numeral of one width as one void item: ``_DEC[4]`` the
numerals 0000-9999 as 4-byte items, ``_HEX[3]`` the numerals 000-FFF as
3-byte items. A column of numerals is then one ``take`` from a table and one
copy of whole items into a field of (rows, width) uint8 rows: ``put`` writes
numerals of one digit count so, four decimal or three hex digits at a time.
``traceio`` builds its fixed-layout log lines this way, ``table`` the rows
of the CSV tables, and ``hex_floats`` the exponents of hex float tokens.

``table`` writes ``%d`` and ``%.12g`` cells byte for byte as Python's ``%``
does. A ``%.12g`` cell of a finite nonzero x comes from its 12-digit
significand D, the integer nearest the exact product p = |x| * 10**s with
s = 11 - floor(log10|x|). It is computed as one rounded product
y = |x| * 10**s (or quotient |x| / 10**-s) with |s| <= 22, where the power
of ten is an exact double, and then rounded to an integer. That integer is
D unless y's fraction r is 1/2: y lies below 2**40, so r and 1/2 are
multiples of ulp(y), and r != 1/2 leaves y at least ulp(y) from the rounding
boundary, while |p - y| <= ulp(y) / 2, so p rounds as y does. What this
cannot prove (a fraction of exactly 1/2, an exponent beyond the exact powers
of ten, NaN and the infinities) is formatted by ``'%.12g' %``; zeros are
"0" and "-0". Every cell is a subsequence of one 35-byte slot, ``_SLOT``:
its bytes under a keep mask looked up by the cell's layout. A chunk of rows
is one (rows, width) array of slots, separators and ``%d`` fields, and a
row's kept bytes are its text.

A hex float token is ``±0x1.HHHHHHHHHHHHHp±EEEE``, 24 bytes: a double's sign,
its leading bit (0 for zero and subnormals), the 13 hex digits of its 52
mantissa bits and its binary exponent in four decimal digits (-1022 for zero
and subnormals). It is exact, and ``float.fromhex`` reads it back to the same
double. ``hex_floats`` writes a row of them from each double's bits: the
mantissa from the bits' hex digits, the bytes around it from tables by the
sign and exponent bits. ``parse_hex_floats`` reads a row as one (tokens, 25)
uint8 array, each token with the space after it. Each byte is looked up in
a table of its column, which checks its class and gives its value, and one
matrix product sums each token's values to its sign, significand and
exponent, integers that float64 holds exactly.
"""
from __future__ import annotations

from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _numeral_tables(base, most):
    """Zero-padded numerals in ``base`` (upper-case hex) by value: for k = 1
    to ``most``, those of 0 to base**k - 1, k digits each, as (base**k, k)
    uint8 arrays. Each prefixes every digit to the table one digit shorter."""
    tables = {1: np.frombuffer(b"0123456789ABCDEF"[:base], dtype=np.uint8)[:, None]}
    for k in range(2, most + 1):
        table = np.empty((base, base ** (k - 1), k), dtype=np.uint8)
        table[:, :, 0] = tables[1]
        table[:, :, 1:] = tables[k - 1]
        tables[k] = table.reshape(-1, k)
    return tables


# each numeral one void item
_DEC = {k: table.view(f"V{k}")[:, 0] for k, table in _numeral_tables(10, 4).items()}
_HEX = {k: table.view(f"V{k}")[:, 0] for k, table in _numeral_tables(16, 3).items()}
_BLOCK = {10: (4, 10**4), 16: (3, 16**3)}  # digits per table item, and the value they span
_POWERS = {10: 10 ** np.arange(1, 19, dtype=np.int64), 16: 16 ** np.arange(1, 16, dtype=np.int64)}


def field(rows, start, width, count=None, stride=None):
    """Columns ``start`` to ``start + width`` of (n, row width) uint8
    ``rows`` as one void item per row: an (n,) view, so assigning to it
    writes the rows. With ``count``, the (n, count) fields that start
    ``stride`` columns apart."""
    cells = rows[:, start:start + width]
    if count is None:
        return cells.view(f"V{width}")[:, 0]
    cells = as_strided(cells, (len(rows), count, width), (rows.strides[0], stride, 1), writeable=True)
    return cells.view(f"V{width}")[..., 0]


def put(rows, stop, values, digits, base):
    """Write non-negative int64 ``values`` as numerals in ``base`` (10 or
    16, upper-case hex), zero-padded to ``digits``, into the columns of
    ``rows`` that end before ``stop``. Each value must have at most
    ``digits`` digits."""
    per, span = _BLOCK[base]
    tables = _DEC if base == 10 else _HEX
    while digits > 0:
        k = min(per, digits)
        block = values
        if digits > per:
            values, block = np.divmod(values, span)
        field(rows, stop - k, k)[:] = tables[k].take(block)
        stop, digits = stop - k, digits - k


def digit_counts(values, base, least):
    """Numeral lengths of non-negative int64 ``values`` in ``base``, at least
    ``least`` digits."""
    return np.searchsorted(_POWERS[base][least - 1:], values, side="right") + least


# The %.12g slot. Every cell is a subsequence of it. A holds the 12 digits
# of the significand, and the point is followed by them again (B), so that
# a point can follow any digit of A; B's first digit would stand where the
# point does and is never kept. The suffix is an exponent: "e-05" or
# "e+100".
#   0 "-" | 1 "0" | 2 "." | 3-5 "000" | 6-17 A | 18 "." | 19-29 B[1:] | 30-34 suffix
_SLOT = np.frombuffer(b"-0.000" + b"0" * 12 + b"." + b"0" * 11 + b"e+000", dtype=np.uint8)
_A, _POINT, _SUFFIX = 6, 18, 30
G_WIDTH = len(_SLOT)


# where a cell formatted by Python goes: A and B, which every chunk rewrites
_LOOSE = np.r_[_A:_A + 12, _POINT + 1:_POINT + 12]
_P10 = 10.0 ** np.arange(23)  # the powers of ten that are exact doubles
# decimal exponents -340..340 index the exponent tables
_EXP_MIN = -340
# A layout is a form, a count of significant digits and a sign. Forms 0-15
# are fixed notation with exponent -4 to 11, 16 and 17 exponent notation
# with 2 and 3 exponent digits, 18 a zero, 19 an empty cell. Its key is
# 24 * form + 2 * (digits - 1) + sign.
_FORMS = 20
_ZERO_KEY, _EMPTY_KEY = 24 * 18, 24 * 19


@cache
def _g12_tables():
    """The %.12g tables, built on the first ``g12`` call, not at import: a
    process that writes no table, as one that only writes and reads hex
    floats, needs none of them. Returns the significand items, exponent
    suffixes and form keys by exponent, digit keys by a significand's last
    four digits, and keep masks by layout key."""
    # A and the point with B are six 4-byte items: three 4-digit numerals,
    # then the point with the first one's last three digits, and the other
    # two again
    point_items = np.empty((10, 1000, 4), dtype=np.uint8)
    point_items[..., 0] = ord(".")
    point_items[..., 1:] = _DEC[3].view(np.uint8).reshape(-1, 3)
    significand = np.concatenate([_DEC[4], point_items.reshape(-1, 4).view("V4")[:, 0]])
    suffixes = np.frombuffer(b"".join(b"e%+04d" % x if abs(x) > 99 else b"e%+03d0" % x
                                      for x in range(_EXP_MIN, 1 - _EXP_MIN)), dtype="V5")
    form_key = 24 * np.array([x + 4 if -4 <= x <= 11 else 16 if abs(x) < 100 else 17
                              for x in range(_EXP_MIN, 1 - _EXP_MIN)])
    # 2 * (digits - 1) of a significand by its last four digits, if not all
    # 0: 2 * (11 - their trailing zeros)
    digits_key = 22 - 2 * sum(np.arange(10**4) % 10**k == 0 for k in (1, 2, 3))
    digits_key[0] = 0
    return significand, suffixes, form_key, digits_key, _keep_masks()


def _keep_masks():
    """The slot columns each layout keeps, as void items by key."""
    masks = np.zeros((_FORMS, 12, 2, G_WIDTH), dtype=bool)
    for form in range(_FORMS - 1):  # the last form, an empty cell, keeps none
        for digits in range(1, 13):
            for sign in (0, 1):
                keep = masks[form, digits - 1, sign]
                keep[0] = sign
                if form == 18:  # 0
                    keep[1] = True
                elif form < 4:  # 0.000ddd
                    keep[1:6 - form] = True
                    keep[_A:_A + digits] = True
                else:  # ddd[.ddd], or d[.ddd]e+dd
                    point = form - 3 if form < 16 else 1
                    keep[_A:_A + point] = True
                    keep[_POINT] = digits > point
                    keep[_POINT + point:_POINT + digits] = True
                    if form >= 16:
                        keep[_SUFFIX:_SUFFIX + form - 12] = True
    return masks.reshape(-1, G_WIDTH).view(f"V{G_WIDTH}")[:, 0]


def _scaled(a, s):
    """``a * 10**s`` rounded once, for |s| <= 22."""
    return np.where(s >= 0, a * _P10.take(s, mode="clip"), a / _P10.take(-s, mode="clip"))


def g12(x, rows, keep, start, stride, empty_nan):
    """Fill the %.12g slots of (n, c) float64 ``x`` in ``rows`` and their
    keep masks in ``keep``: column k's slots start at column
    ``start + k * stride`` of each row, and hold _SLOT's bytes. A NaN in a
    column k with ``empty_nan[k]`` is an empty cell. Returns the flat
    indices into ``x`` of the values left to Python's formatting."""
    significand_items, suffixes, form_key, digits_key, keep_masks = _g12_tables()
    n, count = x.shape
    x = x.ravel()
    a = np.abs(x)
    special = ~((a > 0.0) & (a < np.inf))  # zeros, infinities and NaN
    if special.any():
        a[special] = 1.0
    s = 11 - np.floor(np.log10(a)).astype(np.int64)
    y = a * _P10.take(s, mode="clip") if s.min() >= 0 else _scaled(a, s)
    d = np.rint(y)
    python = np.abs(y - d) == 0.5
    # a misjudged exponent, or a significand that rounds up to 10**12: scale
    # by one power of ten more or less. A tie that decided a carry has gone
    # to Python above.
    off = np.flatnonzero((d < 1e11) | (d >= 1e12))
    if len(off):
        s[off] += np.where(d[off] < 1e11, 1, -1)
        y[off] = _scaled(a[off], s[off])
        d[off] = np.rint(y[off])
        python[off] |= np.abs(y[off] - d[off]) == 0.5
        carry = off[d[off] == 1e12]
        d[carry], s[carry] = 1e11, s[carry] - 1
        python[off] |= (d[off] < 1e11) | (d[off] >= 1e12)
    python |= special | ((s + 22).view(np.uint64) > 44)
    d[python] = 1e11
    significand = d.astype(np.int64)
    high = significand // 10**4
    top = high // 10**4
    low = significand - high * 10**4
    blocks = np.empty((len(x), 6), dtype=np.intp)  # A's items, then the point's and B's
    blocks[:, 0], blocks[:, 3] = top, top + 10**4
    blocks[:, 1] = blocks[:, 4] = high - top * 10**4
    blocks[:, 2] = blocks[:, 5] = low
    field(rows, start + _A, 24, count, stride)[:] = significand_items.take(blocks).view("V24").reshape(n, count)
    exponent = (11 - _EXP_MIN) - s
    key = form_key.take(exponent, mode="clip")
    if key.max() >= 24 * 16:
        field(rows, start + _SUFFIX, 5, count, stride)[:] = suffixes.take(exponent, mode="clip").reshape(n, count)
    key += digits_key.take(low)
    key += np.signbit(x)
    zeros = np.flatnonzero(low == 0)
    if len(zeros):  # the trailing zeros reach into the second or first block
        middle = blocks[zeros, 1]
        key[zeros] += np.where(middle > 0, digits_key.take(middle) - 8, digits_key.take(top[zeros]) - 16)
    special = np.flatnonzero(special)
    if len(special):
        value = x[special]
        zero, blank = value == 0.0, (value != value) & empty_nan[special % count]
        key[special[zero]] = _ZERO_KEY + np.signbit(value[zero])
        key[special[blank]] = _EMPTY_KEY
        python[special[zero | blank]] = False
    field(keep, start, G_WIDTH, count, stride)[:] = keep_masks.take(key).reshape(n, count)
    return np.flatnonzero(python)


CHUNK_ROWS = 1024  # rows per formatted chunk of a table


def _tail_masks(width):
    """Keep masks of the last k of ``width`` columns, k = 0..width, as
    void items."""
    masks = np.arange(width) >= width - np.arange(width + 1)[:, None]
    return masks.view(f"V{width}")[:, 0]


def table(columns, empty_nan=()):
    """Yield the CSV rows of ``columns``, 1-d arrays of one length, as text
    CHUNK_ROWS rows at a time; each row is its cells joined by "," and ended
    by a newline. Integer and bool columns are written as ``%d`` and must be
    non-negative; float columns as ``%.12g``, except that a NaN in a column
    whose index is in ``empty_nan`` is an empty cell. Adjacent float columns
    are formatted together."""
    columns = [np.asarray(c) for c in columns]
    total = len(columns[0])
    # [first column, columns, field width, float]: a run of float columns,
    # each a %.12g slot, or one integer column as wide as its largest numeral
    runs = []
    for index, column in enumerate(columns):
        is_float = column.dtype.kind == "f"
        if is_float and runs and runs[-1][3]:
            runs[-1][1] += 1
        elif is_float:
            runs.append([index, 1, G_WIDTH, True])
        elif column.min(initial=0) < 0:
            raise ValueError("integer table columns must be non-negative")
        else:
            runs.append([index, 1, int(digit_counts(column.max(initial=0), 10, 1)), False])
    if not total:
        return
    # each field is followed by its separator
    starts = np.cumsum([0] + [(width + 1) * count for _, count, width, _ in runs]).tolist()
    rows = min(CHUNK_ROWS, total)
    text = np.empty((rows, starts[-1]), dtype=np.uint8)
    keep = np.zeros((rows, starts[-1]), dtype=bool)
    for (_, count, width, is_float), start in zip(runs, starts):
        for stop in range(start + width, start + count * (width + 1), width + 1):
            if is_float:
                text[:, stop - width:stop] = _SLOT
            text[:, stop], keep[:, stop] = ord(","), True
    text[:, -1] = ord("\n")
    for first in range(0, total, rows):
        n = min(rows, total - first)
        chunk_text, chunk_keep = text[:n], keep[:n]
        for (index, count, width, is_float), start in zip(runs, starts):
            if not is_float:
                values = columns[index][first:first + n].astype(np.int64)
                put(chunk_text, start + width, values, width, 10)
                field(chunk_keep, start, width)[:] = _tail_masks(width).take(digit_counts(values, 10, 1))
                continue
            values = np.stack([column[first:first + n] for column in columns[index:index + count]], axis=1)
            values = values.astype(np.float64, copy=False)
            empty = np.isin(np.arange(index, index + count), list(empty_nan))
            for i in g12(values, chunk_text, chunk_keep, start, G_WIDTH + 1, empty).tolist():
                row, k = divmod(i, count)
                cell = b"%.12g" % values[row, k]  # at most 19 bytes, as -1.23456789012e-308
                slot = start + k * (G_WIDTH + 1)
                chunk_keep[row, slot:slot + G_WIDTH] = False
                chunk_text[row, slot + _LOOSE[:len(cell)]] = np.frombuffer(cell, dtype=np.uint8)
                chunk_keep[row, slot + _LOOSE[:len(cell)]] = True
        yield chunk_text[chunk_keep].tobytes().decode("ascii")


# A hex float token and the separator after it
_HEX_TOKEN = b"+0x1.0000000000000p+0000 "
HEX_WIDTH = len(_HEX_TOKEN)
_MIN_EXPONENT, _MAX_EXPONENT = -1022, 1023


def _token_ends():
    """A token's first five bytes and its last seven with the separator, by
    the top 12 bits of its double, the sign and the biased exponent; as void
    items. The exponent 2047 of the infinities and NaN is never written."""
    top = np.arange(4096)
    biased = top & 0x7FF
    heads = np.empty((4096, 5), dtype=np.uint8)
    heads[:] = np.frombuffer(_HEX_TOKEN[:5], dtype=np.uint8)
    heads[:, 0] = np.where(top >> 11, ord("-"), ord("+"))
    heads[:, 3] = ord("0") + (biased > 0)
    exponent = np.maximum(biased, 1) - 1023
    tails = np.empty((4096, 7), dtype=np.uint8)
    tails[:] = np.frombuffer(_HEX_TOKEN[18:], dtype=np.uint8)
    tails[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    put(tails, 6, np.abs(exponent), 4, 10)
    return heads.view("V5")[:, 0], tails.view("V7")[:, 0]


_HEADS, _TAILS = _token_ends()


def _token_values():
    """Per column of a token with its separator, the value of each byte
    that may stand there, NaN for the others: a digit's value, -1 for "-",
    1 for "+" and the rest."""
    allowed = [b"+-", b"0", b"x", b"01", b".", *[b"0123456789ABCDEFabcdef"] * 13, b"p", b"+-", *[b"0123456789"] * 4,
               b" "]
    values = np.full((HEX_WIDTH, 256), np.nan)
    for column, chars in enumerate(allowed):
        values[column, list(chars)] = [int(c, 16) if c in "0123456789ABCDEFabcdef" else -1 if c == "-" else 1
                                       for c in chars.decode()]
    return values.ravel()


_HEX_VALUES = _token_values()
_HEX_COLUMN_AT = (256 * np.arange(HEX_WIDTH)).astype(np.uint16)  # where column k's values start
# Rows of weights on a token's column values: their sums are its sign, its
# significand (leading bit and mantissa) as an integer, its exponent's sign
# and its exponent's magnitude; exact in float64, being integers below 2**53
_HEX_WEIGHTS = np.zeros((4, HEX_WIDTH))
_HEX_WEIGHTS[0, 0] = 1.0
_HEX_WEIGHTS[1, 3] = 2.0**52
_HEX_WEIGHTS[1, 5:18] = 16.0 ** np.arange(12, -1, -1)
_HEX_WEIGHTS[2, 19] = 1.0
_HEX_WEIGHTS[3, 20:24] = 10.0 ** np.arange(3, -1, -1)


def hex_floats(values):
    """Finite ``values`` as a row of hex float tokens separated by spaces."""
    x = np.asarray(values, dtype=np.float64).ravel()
    finite = np.isfinite(x)
    if not finite.all():
        index = int(np.argmin(finite))
        raise ValueError(f"value {index} is {float(x[index])!r}, not finite")
    rows = np.empty((len(x), HEX_WIDTH), dtype=np.uint8)
    # the 16 hex digits of each double's bits, two per big-endian byte, from
    # column 2; the last 13 are the mantissa's, and the head overwrites the rest
    field(rows, 2, 16)[:] = _HEX[2].take(x.astype(">f8").view(np.uint8)).view("V16")
    top = (x.view(np.uint64) >> np.uint64(52)).astype(np.intp)
    field(rows, 0, 5)[:] = _HEADS.take(top)
    field(rows, 18, 7)[:] = _TAILS.take(top)
    return rows.ravel()[:-1].tobytes().decode("ascii")


def parse_hex_floats(text):
    """The float64 array of a row that ``hex_floats`` writes; hex digits
    may be either case. A token that is not of its form, or whose exponent
    is outside -1022..1023, raises ValueError; so every value read is
    finite."""
    data = (text + " ").encode("utf-8") if text else b""
    if len(data) % HEX_WIDTH:
        raise ValueError(f"a row of {len(data) - 1} bytes is not tokens of {HEX_WIDTH - 1} bytes "
                         "separated by spaces")
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, HEX_WIDTH)
    values = _HEX_VALUES.take(rows + _HEX_COLUMN_AT)
    bad = np.isnan(values)
    if bad.any():
        index = int(np.argmax(bad)) // HEX_WIDTH
        raise ValueError(f"token {index} {_token(rows, index)!r} is not of the form ±0x1.HHHHHHHHHHHHHp±EEEE")
    sign, significand, exponent_sign, magnitude = _HEX_WEIGHTS @ values.T
    exponent = (exponent_sign * magnitude).astype(np.int64)
    outside = (exponent < _MIN_EXPONENT) | (exponent > _MAX_EXPONENT)
    if outside.any():
        index = int(np.argmax(outside))
        raise ValueError(f"token {index} {_token(rows, index)!r} has an exponent outside "
                         f"{_MIN_EXPONENT}..{_MAX_EXPONENT}")
    return np.ldexp(sign * significand, exponent - 52)


def _token(rows, index):
    return rows[index, :-1].tobytes().decode("utf-8", "replace")
