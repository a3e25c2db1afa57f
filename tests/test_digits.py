"""The packed-digit table writer: %d and %.12g cells as Python's % writes them;
and the hex float rows of snapshot files."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canskew import _digits


def one_by_one(columns, empty_nan=()):
    """The rows of ``columns`` formatted value by value with Python's %."""
    rows = []
    for values in zip(*(np.asarray(c).tolist() for c in columns)):
        cells = []
        for index, value in enumerate(values):
            if isinstance(value, float):
                cells.append("" if index in empty_nan and math.isnan(value) else "%.12g" % value)
            else:
                cells.append("%d" % value)
        rows.append(",".join(cells) + "\n")
    return "".join(rows)


def written(columns, empty_nan=()):
    return "".join(_digits.table(columns, empty_nan))


# doubles that stress the rounding: ties at the 12th digit, the carry to
# 10**12, the ends of the exact powers of ten, subnormals
EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e-4, 9.99999999999e-5, 9.999999999995e-5, 0.0001, 1e11, 1e12, 999999999999.5, 999999999999.4, 123456789012.5,
         0.125, 1.5, 2.5, 1e16, 1e22, 1e23, 1e-11, 9.9999999999995e-12, 1e33, 9.999999999995e33, 1e34, 1e-5, 1e100,
         -1e-100, 1234.5678905, 0.5]


class TestG12:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=50))
    @example(EDGES)
    def test_any_double(self, values):
        column = np.array(values, dtype=np.float64)
        assert written([column]) == one_by_one([column])

    @settings(max_examples=300, deadline=None)
    @given(significand=st.integers(10**11, 10**12 - 1), exponent=st.integers(-335, 296), negative=st.booleans())
    @example(significand=999_999_999_999, exponent=-16, negative=False)
    @example(significand=123_456_789_012, exponent=0, negative=True)
    def test_near_ties(self, significand, exponent, negative):
        # the double nearest (D + 1/2) * 10**k, where the 12th digit rounds
        # half way, and its neighbours
        tie = float(Fraction(2 * significand + 1, 2) * Fraction(10) ** exponent)
        tie = -tie if negative else tie
        column = np.array([tie, np.nextafter(tie, math.inf), np.nextafter(tie, -math.inf)])
        assert written([column]) == one_by_one([column])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-320, 309)
        column = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers])
        assert written([column]) == one_by_one([column])

    def test_nan_is_empty_only_where_asked(self):
        columns = [np.array([math.nan, 1.0]), np.array([math.nan, math.nan]), np.array([2.0, -0.0])]
        assert written(columns, {1}) == "nan,,2\n1,,-0\n"


class TestTable:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=30))
    def test_integers(self, values):
        column = np.array(values, dtype=np.int64)
        assert written([column, column.astype(np.float64), column % 2 == 1]) == \
            one_by_one([column, column.astype(np.float64), (column % 2).astype(np.int64)])

    def test_negative_integers_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            written([np.array([1, -1])])

    def test_no_rows(self):
        assert written([np.zeros(0), np.zeros(0, dtype=np.int64)]) == ""

    def test_rows_across_chunks(self):
        # integer, float and integer columns around a run of floats, with
        # NaN, zeros and values Python formats, over three chunks
        rng = np.random.default_rng(7)
        n = 2 * _digits.CHUNK_ROWS + 9
        floats = [rng.normal(size=n) * 10.0 ** rng.integers(-12, 14, n) for _ in range(4)]
        floats[1][::5] = 0.0
        floats[2][::7] = math.nan
        floats[3][::11] = 123456789012.5
        columns = [np.arange(n), *floats, rng.random(n) < 0.5]
        chunks = list(_digits.table(columns, {3}))
        assert len(chunks) == 3
        assert "".join(chunks) == one_by_one([np.arange(n), *floats, columns[-1].astype(np.int64)], {3})


# zeros, the smallest subnormals, the smallest normals and the largest doubles
HEX_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.5, 3.0]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestHexFloats:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True), max_size=50))
    @example(HEX_EDGES)
    def test_round_trip(self, values):
        row = _digits.hex_floats(values)
        tokens = row.split(" ") if row else []
        assert [len(token) for token in tokens] == [24] * len(values)
        assert bits([float.fromhex(token) for token in tokens]) == bits(values)  # -0.0 is not 0.0
        assert bits(_digits.parse_hex_floats(row)) == bits(values)

    def test_token_layout(self):
        assert _digits.hex_floats(HEX_EDGES[:5]) == ("+0x0.0000000000000p-1022 -0x0.0000000000000p-1022 "
                                                     "+0x0.0000000000001p-1022 -0x0.0000000000001p-1022 "
                                                     "+0x1.0000000000000p-1022")

    def test_either_case_reads(self):
        row = _digits.hex_floats([math.pi, -1e-5])
        assert bits(_digits.parse_hex_floats(row.lower())) == bits([math.pi, -1e-5])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, value):
        with pytest.raises(ValueError, match=f"value 1 is {value!r}, not finite"):
            _digits.hex_floats([1.0, value])

    @pytest.mark.parametrize("row, message", [
        ("+0x1.000000000000Gp+0000", r"token 0 .* is not of the form"),
        ("+0x1.8000000000000p+0001 +0x2.0000000000000p+0000", r"token 1 .* is not of the form"),
        ("+0x1.8000000000000p+0001 +0x1.8000000000000p 0001", r"token 1 .* is not of the form"),
        ("+0x1.8000000000000p+0001,+0x1.8000000000000p+0001", r"token 0 .* is not of the form"),
        ("+0x1.8000000000000p+001", "a row of 23 bytes"),
        ("+0x1.8000000000000p+0001 1.5", "a row of 28 bytes"),
        ("+0x1.8000000000000p+0001  ", "a row of 26 bytes"),
        ("+0x1.0000000000000p+1024", r"token 0 .* has an exponent outside -1022..1023"),
        ("+0x0.0000000000001p-1023", r"token 0 .* has an exponent outside -1022..1023"),
        ("-0x1.0000000000000p+9999", r"token 0 .* has an exponent outside -1022..1023"),
        ("+0x1.0000000000000p+0000 +0x1.00000000000\u00e9p+0000", r"token 1 .* is not of the form"),
    ])
    def test_malformed_rows_refused(self, row, message):
        with pytest.raises(ValueError, match=message):
            _digits.parse_hex_floats(row)
