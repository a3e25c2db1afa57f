"""Log parsing, serialization round-trips, and gap repair."""
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canskew import traceio
from canskew.cli import main as cli_main
from canskew.clock import MAX_CAN_ID, ClockSpec, MessageSchedule, NoiseModel, Trace, ppm, synthesize_trace
from canskew.traceio import CHUNK_LINES, SLICE_BYTES, LogFormat, ParseError, fill_missing, parse_log, write_trace


class TestParse:
    def test_candump_line(self):
        trace = parse_log("(1234.567890) can0 185#DEADBEEF\n", LogFormat.CANDUMP)
        assert trace.records == [(1234.567890, 0x185)]

    @pytest.mark.parametrize("stamp, t", [("1.5", 1 + 500000 / 1e6), ("2.05", 2 + 50000 / 1e6),
                                          ("4.1234", 4 + 123400 / 1e6), ("3.000007", 3 + 7 / 1e6)])
    def test_short_micros_pad_right(self, stamp, t):
        # seconds plus right-padded microseconds over 1e6, in two steps
        assert parse_log(f"({stamp}) can0 1#", LogFormat.CANDUMP).times.tolist() == [t]

    def test_csv_line(self):
        trace = parse_log("timestamp,can_id,data\n0.100000,0x0D1,00\n", LogFormat.CSV)
        assert trace.records == [(0.1, 0x0D1)]

    def test_out_of_order_sorted_stably(self):
        text = (
            "(2.000000) can0 101#\n"
            "(1.000000) can0 102#\n"
            "(1.000000) can0 103#\n"
        )
        trace = parse_log(text, LogFormat.CANDUMP)
        assert [mid for _, mid in trace.records] == [0x102, 0x103, 0x101]

    def test_malformed_line_reports_number(self):
        text = "(1.000000) can0 101#\nnot a record\n"
        with pytest.raises(ParseError) as exc:
            parse_log(text, LogFormat.CANDUMP)
        assert exc.value.line_number == 2

    def test_empty_input(self):
        with pytest.raises(ValueError):
            parse_log("", LogFormat.CANDUMP)
        with pytest.raises(ValueError):
            parse_log("   \n", LogFormat.CSV)

    def test_id_out_of_range(self):
        with pytest.raises(ParseError):
            parse_log("(1.000000) can0 FFFFFFFF#\n", LogFormat.CANDUMP)

    @pytest.mark.parametrize("text, can_id", [("0x185", 0x185), ("0X1a0", 0x1A0), ("389", 389), (" 17 ", 17)])
    def test_csv_id_hex_with_prefix_else_decimal(self, text, can_id):
        trace = parse_log(f"timestamp,can_id,data\n0.5,{text},\n", LogFormat.CSV)
        assert trace.records == [(0.5, can_id)]

    @pytest.mark.parametrize("text", ["1A0", "0x", "0xZZ", "", "3.5"])
    def test_csv_bad_id(self, text):
        with pytest.raises(ParseError) as exc:
            parse_log(f"timestamp,can_id,data\n0.5,0x1,\n0.6,{text},\n", LogFormat.CSV)
        assert exc.value.line_number == 3

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "1e400", "9" * 400 + ".5"])
    def test_csv_non_finite_timestamp_rejected(self, stamp):
        with pytest.raises(ParseError, match="timestamp out of range") as exc:
            parse_log(f"timestamp,can_id,data\n{stamp},0x185,\n1.0,0x185,\n", LogFormat.CSV)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("text, fmt, line", [
        ("timestamp,can_id,data\n0.5,0x1,\n1_0.5,0x1_A,\nnan,0x1,\n", LogFormat.CSV, 3),
        ("timestamp,can_id,data\n0.5,0x1,\n \u0662.5 ,\u0661\u0662,\nnan,0x1,\n", LogFormat.CSV, 3),
        ("(0.5) can0 1#\n(\u0663.\u0665) can0 1A#\nnot a record\n", LogFormat.CANDUMP, 2),
    ])
    def test_numerals_of_ascii_digits_only(self, text, fmt, line):
        # float and int would read "_" between digits and Unicode digits
        with pytest.raises(ParseError) as exc:
            parse_log(text, fmt)
        assert exc.value.line_number == line

    def test_csv_bad_header(self):
        with pytest.raises(ParseError):
            parse_log("time,id\n0.1,0x1\n", LogFormat.CSV)

    def test_seconds_beyond_double_range_rejected(self):
        text = "(1.000000) can0 101#\n\n(" + "9" * 400 + ".5) can0 FFFFFFFF#\n"
        with pytest.raises(ParseError, match="timestamp out of range") as exc:
            parse_log(text, LogFormat.CANDUMP)
        assert exc.value.line_number == 3

    def test_extended_id_accepted(self):
        trace = parse_log("(1.000000) can0 1FFFFFFF#\n", LogFormat.CANDUMP)
        assert trace.records == [(1.0, 0x1FFFFFFF)]

    @pytest.mark.parametrize("text, fmt", [("(1.5) can0 185#\n", "candump"),
                                           ("timestamp,can_id,data\n1.5,0x185,\n", "csv")])
    def test_format_given_as_its_value(self, text, fmt):
        assert parse_log(text, fmt).records == parse_log(text, LogFormat(fmt)).records == [(1.5, 0x185)]

    def test_unknown_format_named(self):
        with pytest.raises(ValueError, match="'xml'"):
            parse_log("(1.5) can0 185#\n", "xml")


def candump_lines(count, seed):
    """``count`` varied candump records with blank lines among them: 1-6
    digit micros, upper- and lowercase hex ids of any width, payloads, several
    interfaces, tab and multi-space separators, trailing blanks and ties."""
    rng = np.random.default_rng(seed)
    micros = ["%06d" % m for m in rng.integers(0, 10**6, count).tolist()]
    digits = rng.integers(1, 7, count).tolist()
    widths = rng.integers(1, 9, count).tolist()
    ids = ["%0*x" % pair for pair in zip(widths, rng.integers(0, MAX_CAN_ID + 1, count).tolist())]
    upper = (rng.random(count) < 0.5).tolist()
    payload_bytes = rng.integers(0, 256, (count, 8)).tolist()
    payload_len = rng.integers(0, 9, count).tolist()
    seps = rng.choice([" ", "\t", "  "], count).tolist()
    ifaces = rng.choice(["can0", "vcan1", "slcan12"], count).tolist()
    tails = rng.choice(["", " ", "\t"], count).tolist()
    blanks = rng.choice(["", "   ", "\t"], count).tolist()
    blank_before = (rng.random(count) < 0.03).tolist()
    lines = []
    for k in range(count):
        if blank_before[k]:
            lines.append(blanks[k])
        lines.append("(%d.%s)%s%s %s#%s%s" % (
            k // 3, micros[k][:digits[k]], seps[k], ifaces[k], ids[k].upper() if upper[k] else ids[k],
            bytes(payload_bytes[k][:payload_len[k]]).hex(), tails[k]))
    return lines


def join_lines(lines, seed):
    """Join lines with a mix of LF and CRLF endings."""
    rng = np.random.default_rng(seed)
    return "".join(line + ("\r\n" if crlf else "\n") for line, crlf in zip(lines, rng.random(len(lines)) < 0.3))


@pytest.fixture(scope="module")
def long_candump():
    lines = candump_lines(2 * CHUNK_LINES + 1500, seed=21)
    return lines, join_lines(lines, seed=22)


def line_past_first_chunk(lines, offset):
    """Index of the ``offset``-th record after the first chunk's records."""
    records = [i for i, line in enumerate(lines) if line.strip()]
    return records[CHUNK_LINES + offset]


class TestChunkedParse:
    def test_equals_merge_of_single_line_parses(self, long_candump):
        lines, text = long_candump
        whole = parse_log(text, LogFormat.CANDUMP)
        single = Trace.merge(*(parse_log(line, LogFormat.CANDUMP) for line in lines if line.strip()))
        assert len(whole) == len(single) > 2 * CHUNK_LINES
        assert whole.times.tobytes() == single.times.tobytes()
        assert whole.ids.tobytes() == single.ids.tobytes()
        assert whole == single

    @pytest.mark.parametrize("bad, message", [("(12.5) can0 #", "not a candump record"),
                                              ("(12.5) can0 20000000#", "CAN id 0x20000000 outside")])
    def test_bad_line_past_first_chunk(self, long_candump, bad, message):
        lines, _ = long_candump
        index = line_past_first_chunk(lines, 700)
        assert not all(line.strip() for line in lines[:index])
        text = join_lines(lines[:index] + [bad] + lines[index + 1:], seed=23)
        with pytest.raises(ParseError, match=message) as exc:
            parse_log(text, LogFormat.CANDUMP)
        assert exc.value.line_number == index + 1

    @pytest.mark.parametrize("first, second, message", [
        ("(1.5) can0 20000000#", "(1.5) can0 #", "CAN id 0x20000000 outside"),
        ("(1.5) can0 #", "(1.5) can0 20000000#", "not a candump record"),
    ])
    def test_first_bad_line_wins(self, long_candump, first, second, message):
        lines, _ = long_candump
        i, j = line_past_first_chunk(lines, 100), line_past_first_chunk(lines, 900)
        text = join_lines(lines[:i] + [first] + lines[i + 1:j] + [second] + lines[j + 1:], seed=24)
        with pytest.raises(ParseError, match=message) as exc:
            parse_log(text, LogFormat.CANDUMP)
        assert exc.value.line_number == i + 1


def refuse(lines, before):
    raise AssertionError("a chunk was parsed line by line")


class TestArrayPass:
    """A log of every record form the regex grammar allows parses as the
    line-by-line path parses it, and the forms canskew writes never reach
    that path."""

    def test_candump_grammar(self, long_candump):
        lines, text = long_candump
        for joined in (text, "\n".join(lines)):
            want = line_by_line(joined, LogFormat.CANDUMP)
            assert len(np.frombuffer(want[0])) == sum(1 for line in lines if line.strip())
            assert outcome(joined, LogFormat.CANDUMP) == want

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_written_form(self, fmt, monkeypatch):
        trace = synthesize_trace(MessageSchedule(0x185, 0.01, start_time=1.0), ClockSpec(skew=ppm(100)),
                                 NoiseModel(), 3 * CHUNK_LINES // 2, seed=3)
        text = write_trace(trace, fmt)
        monkeypatch.setattr(traceio, "_candump_lines", refuse)
        monkeypatch.setattr(traceio, "_csv_lines", refuse)
        restored = parse_log(text, fmt)
        assert np.array_equal(np.round(restored.times * 1e6), np.floor(np.round(trace.times * 1e9) / 1e3))
        assert np.array_equal(restored.ids, trace.ids)


PLAIN_BREAKS = ["\n", "\n", "\n", "\r\n"]
ODD_BREAKS = PLAIN_BREAKS + ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
ASCII_BLANKS = [" ", " ", "\t", "\x1f", "  ", " \t "]
ODD_BLANKS = ASCII_BLANKS + ["\xa0", "\u3000", " \xa0"]
NOISE = st.text(alphabet="().,# 0123456789abcdefxXg_\t\x01\xa0\u0661\u0663", max_size=10)
HEX_IDS = st.builds(lambda can_id, width, upper: ("%0*X" if upper else "%0*x") % (width, can_id),
                    st.integers(0, MAX_CAN_ID), st.sampled_from([1, 2, 3, 3, 8]), st.booleans())


def digits(most):
    """Decimal numerals of 1 to ``most`` digits, leading zeros included."""
    return st.builds(lambda value, count: str(value).zfill(most)[-count:],
                     st.integers(0, 10**most - 1), st.integers(1, most))


def candump_fields(blanks):
    return {"sec": digits(18), "micros": digits(6), "sep1": st.sampled_from(blanks),
            "sep2": st.sampled_from(blanks), "iface": st.sampled_from(["can0", "vcan1", "a.b", "x#y", "(1.5)", "\x01"]),
            "id": HEX_IDS, "payload": st.sampled_from(["", "", "00", "DEADBEEF", "deadbeef", "0123456789abcDEF"]),
            "tail": st.sampled_from(["", "", *blanks])}


def near_2_53():
    """Decimals whose digits make an integer near 2**53, where the array
    pass stops taking them."""
    return st.builds(lambda units, point: f"{units // 10**point}.{units % 10**point:0{point}d}",
                     st.integers(2**53 - 99, 2**53 + 99), st.integers(1, 15))


def csv_fields(blanks):
    return {"time": st.one_of(st.builds("{}.{}".format, digits(10), digits(7)), near_2_53()),
            "id": st.builds("{}{}".format, st.sampled_from(["0x", "0x", "0X"]), HEX_IDS),
            "rest": st.sampled_from(["", "", "DEADBEEF", "a,b", "x" + blanks[-1]])}


CANDUMP_BAD = {"sec": ["", "9" * 19, "1" * 20, "9" * 309, "1_0", "\u0663"], "micros": ["", "1234567", "1a", "\u0665"],
               "sep1": [""],
               "sep2": [""], "iface": ["", "a b"], "id": ["", "123456789", "20000000", "FFFFFFFF", "1g"],
               "payload": ["DEADg", "#"], "tail": ["x", "\x01"]}
CSV_BAD = {"time": ["5", "nan", "inf", "-inf", "1e400", "-1.5", " 1.5", "1_0.5", ".5", "5.", "", "\u0661.5",
                    "9" * 309 + ".5", "9007199254.740993", "1" * 12 + "." + "9" * 7],
           "id": ["389", " 17 ", "", "0x", "0xZZ", "-5", "0x1_A", '"0x1"', "0x123456789", "0x20000000", "0x1 "],
           "rest": ['"q,uote"', "\x01", "\xa0"]}


def lines(fields, bad, layout, blanks):
    """Lines of ``layout``: good ``fields`` mostly, one of them bad now and
    then; or blank or random lines."""
    good = st.fixed_dictionaries(fields(blanks))
    mutant = st.tuples(good, st.sampled_from([(name, value) for name, values in bad.items() for value in values]))
    return st.one_of(*(good.map(lambda values: layout.format(**values)) for _ in range(5)),
                     *(mutant.map(lambda pair: layout.format(**{**pair[0], pair[1][0]: pair[1][1]}))
                       for _ in range(2)),
                     st.sampled_from(["", "", *blanks]), NOISE)


def log_texts(fields, bad, layout):
    """Up to 8 lines, each ended by a line break, the last maybe by none:
    half the texts have ASCII blanks and LF or CRLF only, half also Unicode
    blanks and the line breaks only splitlines knows."""
    def texts(blanks, breaks):
        return st.builds(lambda body, final: "".join(body) + final,
                         st.lists(st.builds(str.__add__, lines(fields, bad, layout, blanks), st.sampled_from(breaks)),
                                  max_size=8),
                         st.sampled_from(["", "", layout.format(**{name: "1" for name in fields(blanks)})]))
    return st.one_of(texts(ASCII_BLANKS, PLAIN_BREAKS), texts(ODD_BLANKS, ODD_BREAKS))


CANDUMP_TEXTS = log_texts(candump_fields, CANDUMP_BAD, "({sec}.{micros}){sep1}{iface}{sep2}{id}#{payload}{tail}")
CSV_TEXTS = log_texts(csv_fields, CSV_BAD, "{time},{id},{rest}")
CSV_HEADERS = ["timestamp,can_id,data\n"] * 4 + ["\n \r\nTimestamp, CAN_ID ,Data,x\r\n", "time,id\n",
                                                "\x0btimestamp,can_id,data\x85", ""]


def outcome(text, fmt):
    """The parsed times and ids as bytes, or the exception's type, message
    and line number."""
    try:
        trace = parse_log(text, fmt)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return trace.times.tobytes(), trace.ids.tobytes()


def line_by_line(text, fmt):
    """``outcome`` with the whole text parsed line by line, in one chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_array_pass", lambda *args: None)
        patch.setattr(traceio, "SLICE_BYTES", 10**18)
        return outcome(text, fmt)


def by_arrays(text, fmt, slice_bytes):
    """``outcome`` with the array pass offered every slice of ``slice_bytes``,
    however short the text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_ARRAY_MIN_CHARS", 0)
        patch.setattr(traceio, "SLICE_BYTES", slice_bytes)
        return outcome(text, fmt)


# a slice ends at the last line break within SLICE_BYTES, else at the next
# one: slices of 1 to 7 bytes hold one line each (or a few blank ones), and
# 40 bytes end within most second records
SLICE_SIZES = [1, 2, 3, 7, 40, SLICE_BYTES]
CANDUMP_EDGES = ["(1.1234567) can0 1#", "(1.) can0 1#", "(.5) can0 1#", "(1a.5) can0 1#", "(1.5a) can0 1#",
                 "(" + "9" * 18 + ".5) can0 1#", "(" + "9" * 19 + ".5) can0 1#", "(" + "9" * 309 + ".5) can0 1#",
                 " (1.5) can0 1#", "(1.5)can0 1#", "(1.5) can0", "(1.5) can0 1# x", "(1.5) can0 #",
                 "(1.5) can0 123456789#", "(1.5) can0 000000001#", "(1.5) can0 1FFFFFFF#", "(1.5) can0 20000000#",
                 "(1.5) can0 1#DEADg", "(1.5) can0 1##", "(1.5)\x1fcan0\t1#\t\x1f ", "(1.5) can0 1#\r"]
CSV_EDGES = ["900719925.4740992,0x1,", "900719925.4740993,0x1,", "12345678901234567.8,0x1,",
             "123456789012345678.9,0x1,", "5,0x1,", "1.,0x1,", ".5,0x1,", "1.5 ,0x1,", "nan,0x1,", "1e400,0x1,",
             "1.5", "1.5,0x1", "1.5,0X1F,", "1.5,0x,", "1.5,0xg,", "1.5,0x1 ,", "1.5,0x1;", "1.5,389,",
             "1.5,0x123456789,", "1.5,0x" + "0" * 20 + "1,", "1.5,0x20000000,", '1.5,0x1,"q"', "1.5,0x1,\r"]


class TestArrayPassMatchesLineParser:
    """Differential fuzz: the array pass gives bit-identical times and ids,
    or the same error at the same line, as the line-by-line parser. Each
    line is also parsed alone, so that a bad line early in a text hides no
    later one."""

    @staticmethod
    def check(texts, fmt, slice_bytes):
        for text in texts:
            assert by_arrays(text, fmt, slice_bytes) == line_by_line(text, fmt), text

    @settings(max_examples=75, deadline=None)
    @given(text=CANDUMP_TEXTS, slice_bytes=st.sampled_from(SLICE_SIZES))
    @example(text="\n".join(CANDUMP_EDGES), slice_bytes=1)
    def test_candump(self, text, slice_bytes):
        self.check([text, *text.splitlines(keepends=True)], LogFormat.CANDUMP, slice_bytes)

    @settings(max_examples=75, deadline=None)
    @given(header=st.sampled_from(CSV_HEADERS), text=CSV_TEXTS, slice_bytes=st.sampled_from(SLICE_SIZES))
    @example(header=CSV_HEADERS[0], text="\n".join(CSV_EDGES), slice_bytes=1)
    def test_csv(self, header, text, slice_bytes):
        self.check([header + text, *(CSV_HEADERS[0] + line for line in text.splitlines(keepends=True))],
                   LogFormat.CSV, slice_bytes)


DECIMAL, HEX_DIGITS = "0123456789", "0123456789abcdefABCDEF"
SAME_WIDTH_BLANKS = " \t\x1f"
TOKEN_BYTES = "az09#()._\x01"  # an interface: no blank, "#", "(" and ")" included
REST_BYTES = "az09,.x \t\x1f"  # what follows a CSV record's id
# bytes to write over a line of a uniform slice, by class: digits, hex
# letters, other bytes, blanks, line breaks, foreign bytes and the quote
ODD_BYTES = ["09", "aF", "gx.#(),", " \t\x1f", "\r\n", "\x0b\x1c", '"']


def fixed(alphabet, size):
    return st.text(alphabet=alphabet, min_size=size, max_size=size)


def hex_ids(width, clean):
    """Ids of ``width`` hex digits in either case: in range if ``clean``,
    else at times above MAX_CAN_ID."""
    top = 16**width - 1
    values = st.integers(0, min(top, MAX_CAN_ID))
    return st.builds(lambda value, case: case("%0*x" % (width, value)),
                     values if clean else st.one_of(values, st.integers(0, top)),
                     st.sampled_from([str.lower, str.upper]))


def candump_layout(clean):
    """A candump line's form and its fields' least and greatest widths and
    strategies by width: 1-18 second digits (to 20 unless ``clean``), 1-6
    micro digits, blank runs of spaces, tabs and \x1f, an interface, a 1-8
    digit id and a payload."""
    return "({}.{}){}{}{}{}#{}{}", [
        (1, 18 if clean else 20, partial(fixed, DECIMAL)), (1, 6, partial(fixed, DECIMAL)),
        (1, 2, partial(fixed, SAME_WIDTH_BLANKS)), (1, 5, partial(fixed, TOKEN_BYTES)),
        (1, 2, partial(fixed, SAME_WIDTH_BLANKS)), (1, 8, partial(hex_ids, clean=clean)),
        (0, 16, partial(fixed, HEX_DIGITS)), (0, 2, partial(fixed, SAME_WIDTH_BLANKS))]


def csv_layout(clean):
    """A CSV record line's form and fields, as ``candump_layout``'s: a time
    of at most 15 digits if ``clean``, else up to 28; "0x", or also "0X"
    unless ``clean``; a 1-8 digit id; no data field or one of fixed length."""
    return "{}.{},{}{}{}", [
        (1, 10 if clean else 18, partial(fixed, DECIMAL)), (1, 5 if clean else 10, partial(fixed, DECIMAL)),
        (2, 2, lambda width: st.just("0x") if clean else st.sampled_from(["0x", "0X"])),
        (1, 8, partial(hex_ids, clean=clean)),
        (0, 7, lambda width: st.builds(",{}".format, fixed(REST_BYTES, width - 1)) if width else st.just(""))]


@st.composite
def uniform_texts(draw, layout):
    """(text, clean): lines of one length, all ended by LF or all by CRLF,
    of one layout if clean. Else the fields may pass the array passes'
    limits; lines after the first may have a second layout of the same
    length, one byte moved from a field to its neighbour; and one or two
    may have a byte written over or two neighbouring bytes swapped, often
    at a punctuation mark or blank. A second layout that fits the first's
    columns yields the same values, so the written-over bytes are what test
    each column's check."""
    clean = draw(st.booleans())
    form, fields = layout(clean)
    widths = [draw(st.integers(least, most)) for least, most, _ in fields]
    layouts = [widths]
    k = draw(st.integers(0, len(fields) - 2))
    give, take = (k, k + 1) if draw(st.booleans()) else (k + 1, k)
    if not clean and widths[give] > fields[give][0] and fields[take][0] < fields[take][1]:
        layouts.append([w - (i == give) + (i == take) for i, w in enumerate(widths)])

    def lines_of(widths):
        return st.builds(form.format, *(field(width) for (_, _, field), width in zip(fields, widths)))

    lines = [draw(lines_of(widths)), *draw(st.lists(st.one_of(*map(lines_of, layouts)), max_size=11))]
    for _ in range(0 if clean else draw(st.sampled_from([0, 1, 1, 2]))):
        i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
        line = lines[i]
        marks = [p for p, c in enumerate(line[:-1]) if not c.isalnum()]
        j = draw(st.sampled_from(marks) if marks and draw(st.booleans()) else st.integers(0, len(line) - 2))
        lines[i] = (line[:j] + draw(st.sampled_from(draw(st.sampled_from(ODD_BYTES)))) + line[j + 1:]
                    if draw(st.booleans())
                    else line[:j] + line[j + 1] + line[j] + line[j + 2:])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + end for line in lines), clean


def refuse_slice(*args):
    raise AssertionError("a slice of lines the row pass takes reached the line parser")


class TestUniformSlices:
    """Slices of lines of one length and layout parse as (lines, width)
    views: to the line parser's times and ids, or to its error at its line.
    Slices of lines within the row pass's limits never reach the line
    parser."""

    @staticmethod
    def check(text, fmt, clean, slice_bytes):
        want = line_by_line(text, fmt)
        assert by_arrays(text, fmt, slice_bytes) == want
        if clean:
            with pytest.MonkeyPatch.context() as patch:
                for name in ("_candump_lines", "_csv_lines"):
                    patch.setattr(traceio, name, refuse_slice)
                assert by_arrays(text, fmt, slice_bytes) == by_arrays(text.encode(), fmt, slice_bytes) == want

    @settings(max_examples=40, deadline=None)
    @given(case=uniform_texts(candump_layout), slice_bytes=st.sampled_from([40, 100, SLICE_BYTES]))
    @example(case=("(1.5) can0 185#\n(1.5) can 0185#\n(15.) can0 185#\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("(1.5) can0 185#\n(1.5( can0 185#\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("(1.5) can0 185#\n(1.5) ca 0 185#\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("(1.5) can0 185#\n(a.5) can0 185#\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("(1.5) can0 185#\n(1.5) can0 1g5#\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("(1.5) can0 185#\n(1.5)\x0bcan0 185#\n", False), slice_bytes=SLICE_BYTES)
    def test_candump(self, case, slice_bytes):
        text, clean = case
        self.check(text, LogFormat.CANDUMP, clean, slice_bytes)

    @settings(max_examples=40, deadline=None)
    @given(case=uniform_texts(csv_layout), slice_bytes=st.sampled_from([40, 100, SLICE_BYTES]))
    @example(case=("1.50,0x185,\n15.0,0x185,\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("1.5,0x185,ab\n1.5,0x185,a\"\n", False), slice_bytes=SLICE_BYTES)
    @example(case=("1.5,0x185,ab\n1.5,0x185,\rb\n", False), slice_bytes=SLICE_BYTES)
    def test_csv(self, case, slice_bytes):
        text, clean = case
        self.check("timestamp,can_id,data\n" + text, LogFormat.CSV, clean, slice_bytes)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_written_log_groups_at_digit_boundary(self, fmt, monkeypatch):
        # 1 ms apart from 1 s on: the seconds gain a digit at 10 s, 9 000
        # lines in, within the second of several slices
        trace = synthesize_trace(MessageSchedule(0x185, 0.001, start_time=1.0), ClockSpec(), NoiseModel(),
                                 3 * CHUNK_LINES, seed=4)
        text = write_trace(trace, fmt)
        assert len(text) > 3 * SLICE_BYTES
        want = line_by_line(text, fmt)
        rows, lines = ("_candump_rows", "_candump_lines") if fmt is LogFormat.CANDUMP else ("_csv_rows", "_csv_lines")
        row_parser, array_pass, slices = getattr(traceio, rows), traceio._array_pass, []

        def counted_slice(piece, parser):
            slices.append([])
            return array_pass(piece, parser)

        def counted_rows(group):
            slices[-1].append(group.shape[1])
            return row_parser(group)

        monkeypatch.setattr(traceio, "_array_pass", counted_slice)
        monkeypatch.setattr(traceio, rows, counted_rows)
        monkeypatch.setattr(traceio, lines, refuse_slice)
        for data in (text, text.encode()):
            slices.clear()
            assert outcome(data, fmt) == want
            grouped = [widths for widths in slices if len(widths) > 1]
            # one slice straddles 10 s: two groups, one per seconds width
            assert len(slices) > 3 and len(grouped) == 1 and len(set(grouped[0])) == len(grouped[0]) == 2, slices


@st.composite
def grouped_texts(draw, fmt):
    """Written-form candump or CSV lines that differ in length: 1-4 second
    digits, 3- or 8-digit ids and 0-8 payload bytes, at times of few values,
    so that they tie. Lines of one length share one layout (a line whose
    length another layout took first is left out), and all end in LF or all
    in CRLF, the last maybe without its LF."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    layouts, lines = {}, []
    for _ in range(draw(st.integers(1, 60))):
        sec, micros = draw(st.sampled_from([0, 7, 10, 99, 100, 2048])), draw(st.sampled_from([0, 5, 999_999]))
        id_digits = draw(st.sampled_from([3, 8]))
        can_id = draw(st.integers(0, 0xFFF if id_digits == 3 else MAX_CAN_ID))
        payload = draw(st.binary(max_size=8)).hex().upper()
        line = (f"({sec}.{micros:06d}) can0 {can_id:0{id_digits}X}#{payload}" if fmt is LogFormat.CANDUMP
                else f"{sec}.{micros:06d},0x{can_id:0{id_digits}X},{payload}")
        layout = (len(str(sec)), id_digits, len(payload))
        if layouts.setdefault(len(line), layout) == layout:
            lines.append(line + end)
    text = "".join(lines)
    return text if draw(st.booleans()) else text[:-1]


def mixed_candump(count, seed, payloads, weights, long_ids):
    """A written-form candump log of ``count`` frames 1 ms apart from 100 s
    on: ids of 3 hex digits, or of 8 for a ``long_ids`` share, and payload
    byte counts drawn from ``payloads`` with ``weights``."""
    rng = np.random.default_rng(seed)
    us = (100_000_000 + 1000 * np.arange(count)).tolist()
    long = (rng.random(count) < long_ids).tolist()
    ids = np.where(long, rng.integers(0x800, MAX_CAN_ID + 1, count), rng.integers(0, 0x800, count)).tolist()
    sizes = rng.choice(payloads, count, p=weights).tolist()
    data = rng.integers(0, 256, (count, 8), dtype=np.uint8)
    return "".join(f"({t // 10**6}.{t % 10**6:06d}) can0 {i:0{8 if wide else 3}X}#{bytes(d[:n]).hex().upper()}\n"
                   for t, i, wide, n, d in zip(us, ids, long, sizes, data))


# 6 line lengths per slice (70 % of frames with 8 payload bytes, the rest 2
# and 4-7), and 18 (30 % 8-digit ids, 0-8 payload bytes alike)
MIXED_LOGS = {6: ([8, 2, 4, 5, 6, 7], [0.7] + [0.06] * 5, 0.0), 18: (list(range(9)), [1 / 9] * 9, 0.3)}


def line_parser_name(fmt):
    return "_candump_lines" if fmt is LogFormat.CANDUMP else "_csv_lines"


class TestGroupedRows:
    """A slice whose lines differ in length, each length in one layout, is
    parsed by the row pass one length group at a time, as ``str`` and as
    ``bytes`` at any slice size: to the line parser's times and ids, tied
    times in text order, and never by the line parser. A slice with a blank
    line goes to the line parser whole."""

    @staticmethod
    def check(text, fmt, slice_bytes):
        want = line_by_line(text, fmt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(traceio, line_parser_name(fmt), refuse_slice)
            assert by_arrays(text, fmt, slice_bytes) == by_arrays(text.encode(), fmt, slice_bytes) == want

    @settings(max_examples=40, deadline=None)
    @given(text=grouped_texts(LogFormat.CANDUMP), slice_bytes=st.sampled_from([40, 100, 400, SLICE_BYTES]))
    @example(text="(7.000000) can0 185#\n(7.000000) can0 1FFFFFFF#AB\n(7.000000) can0 186#\n(7.000000) can0 1#0",
             slice_bytes=SLICE_BYTES)
    def test_candump(self, text, slice_bytes):
        self.check(text, LogFormat.CANDUMP, slice_bytes)

    @settings(max_examples=40, deadline=None)
    @given(text=grouped_texts(LogFormat.CSV), slice_bytes=st.sampled_from([40, 100, 400, SLICE_BYTES]))
    @example(text="7.0,0x185,\r\n7.0,0x1FFFFFFF,AB\r\n7.0,0x186,\r\n7.0,0x1,0\r", slice_bytes=SLICE_BYTES)
    # as rows of the first line's 32 bytes, every row ends in LF
    @example(text="0.000000,0x000,0000000000000000\n" + "0.000000,0x000,\n" * 4, slice_bytes=SLICE_BYTES)
    def test_csv(self, text, slice_bytes):
        self.check("timestamp,can_id,data\n" + text, LogFormat.CSV, slice_bytes)

    @pytest.mark.parametrize("lengths", sorted(MIXED_LOGS))
    def test_mixed_payloads_and_id_widths(self, lengths):
        text = mixed_candump(20_000, lengths, *MIXED_LOGS[lengths])
        assert len({len(line) for line in text[:SLICE_BYTES].splitlines()[:-1]}) == lengths
        self.check(text, LogFormat.CANDUMP, SLICE_BYTES)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    @pytest.mark.parametrize("blank", ["\n", "\r\n", " \t\n"])
    def test_a_blank_line_sends_its_slice_to_the_line_parser(self, fmt, blank, monkeypatch):
        records = (["(7.000000) can0 185#\n", "(10.000000) can0 1FFFFFFF#AB\n", "(2.500000) can0 1#\n"]
                   if fmt is LogFormat.CANDUMP else ["7.000000,0x185,\n", "10.000000,0x1FFFFFFF,AB\n", "2.500000,0x1,\n"])
        body = [*records[:2], blank, records[2]]
        text = ("" if fmt is LogFormat.CANDUMP else "timestamp,can_id,data\n") + "".join(body)
        line_parser, calls = getattr(traceio, line_parser_name(fmt)), []

        def counted(lines, before):
            calls.append(len(lines))
            return line_parser(lines, before)

        want = line_by_line(text, fmt)
        monkeypatch.setattr(traceio, line_parser_name(fmt), counted)
        assert by_arrays(text, fmt, SLICE_BYTES) == by_arrays(text.encode(), fmt, SLICE_BYTES) == want
        assert calls == [len(body)] * 2


class TestBytesAndSlices:
    """UTF-8 bytes parse as their text does, at every slice size: the same
    times and ids, or the same error at the same line, as the whole text
    parsed line by line."""

    @settings(max_examples=75, deadline=None)
    @given(text=CANDUMP_TEXTS, slice_bytes=st.sampled_from(SLICE_SIZES))
    def test_candump(self, text, slice_bytes):
        assert by_arrays(text.encode(), LogFormat.CANDUMP, slice_bytes) == line_by_line(text, LogFormat.CANDUMP)

    @settings(max_examples=75, deadline=None)
    @given(header=st.sampled_from(CSV_HEADERS), text=CSV_TEXTS, slice_bytes=st.sampled_from(SLICE_SIZES))
    def test_csv(self, header, text, slice_bytes):
        text = header + text
        assert by_arrays(text.encode(), LogFormat.CSV, slice_bytes) == line_by_line(text, LogFormat.CSV)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    @pytest.mark.parametrize("slice_bytes", [1, 700, SLICE_BYTES])
    def test_shuffled_and_tied_times(self, fmt, slice_bytes, monkeypatch):
        rng = np.random.default_rng(31)
        if fmt is LogFormat.CANDUMP:
            lines = candump_lines(4000, seed=32)
        else:
            trace = Trace(times=rng.integers(0, 500, 4000) / 8.0, ids=rng.integers(0, 0x800, 4000))
            lines = write_trace(trace, fmt).splitlines()
        lines = lines[:1] + [lines[i] for i in rng.permutation(np.arange(1, len(lines)))] + lines[1:800]
        text = join_lines(lines, seed=33)
        want = line_by_line(text, fmt)
        assert (np.diff(np.frombuffer(want[0])) == 0).any()  # tied times
        monkeypatch.setattr(traceio, "SLICE_BYTES", slice_bytes)
        assert outcome(text, fmt) == outcome(text.encode(), fmt) == want

    @pytest.mark.parametrize("as_bytes", [False, True])
    @pytest.mark.parametrize("slice_bytes", [1000, SLICE_BYTES])
    def test_bad_line_in_a_later_slice(self, long_candump, as_bytes, slice_bytes, monkeypatch):
        lines, _ = long_candump
        index = len(lines) - 50
        text = join_lines(lines[:index] + ["(12.5) can0 #"] + lines[index + 1:], seed=25)
        assert len(text[:text.index("(12.5) can0 #")].encode()) > 2 * slice_bytes
        want = line_by_line(text, LogFormat.CANDUMP)
        assert want[0] is ParseError and want[2] == index + 1
        monkeypatch.setattr(traceio, "SLICE_BYTES", slice_bytes)
        assert outcome(text.encode() if as_bytes else text, LogFormat.CANDUMP) == want


class TestUndecodable:
    """A byte that is not UTF-8 is a ParseError naming its line, unless a
    bad line comes before it."""

    @pytest.mark.parametrize("data, fmt, line, message", [
        (b"(1.0) can0 1#\n\n(2.0) can0 2#\xff\n", LogFormat.CANDUMP, 3, "not UTF-8: invalid start byte 0xff"),
        (b"(1.0) can0 1#\r\xff(2.0) can0 2#\n", LogFormat.CANDUMP, 2, "not UTF-8"),
        (b"\xe2\x82(1.0) can0 1#\n", LogFormat.CANDUMP, 1, "not UTF-8"),
        (b"(1.0) can0 1#\nnot a record\n(2.0) can0 2#\xff\n", LogFormat.CANDUMP, 2, "not a candump record"),
        (b"\n\xfftimestamp,can_id,data\n1.0,0x1,\n", LogFormat.CSV, 2, "not UTF-8"),
        (b"timestamp,can_id,data\n1.0,0x1,\n2.0,0x1,\xc3\x28\n", LogFormat.CSV, 3, "not UTF-8"),
    ])
    def test_short_log(self, data, fmt, line, message):
        assert len(data) < traceio._ARRAY_MIN_CHARS
        with pytest.raises(ParseError, match=message) as exc:
            parse_log(data, fmt)
        assert exc.value.line_number == line

    @pytest.mark.parametrize("earlier_bad_line", [False, True])
    def test_multi_slice_log(self, long_candump, earlier_bad_line, monkeypatch):
        lines, _ = long_candump
        index = line_past_first_chunk(lines, 700)
        lines = lines[:index] + ["(1.5) can\x00 1#"] + lines[index + 1:]
        if earlier_bad_line:
            lines[index - 3] = "(1.5) can0 #"
        data = join_lines(lines, seed=26).encode().replace(b"\x00", b"\xff")
        monkeypatch.setattr(traceio, "SLICE_BYTES", 4096)
        with pytest.raises(ParseError) as exc:
            parse_log(data, LogFormat.CANDUMP)
        if earlier_bad_line:
            assert exc.value.line_number == index - 2 and "not a candump record" in str(exc.value)
        else:
            assert exc.value.line_number == index + 1 and "not UTF-8" in str(exc.value)


def spec_text(times, ids, fmt):
    """A log written record by record: each time rounded to nanoseconds, half
    to even, then truncated to microseconds."""
    lines = [] if fmt is LogFormat.CANDUMP else ["timestamp,can_id,data\n"]
    for t, can_id in zip(times.tolist(), ids.tolist()):
        sec, micros = divmod(round(t * 1e9) // 1000, 10**6)
        lines.append(f"({sec}.{micros:06d}) can0 {can_id:03X}#\n" if fmt is LogFormat.CANDUMP
                     else f"{sec}.{micros:06d},0x{can_id:03X},\n")
    return "".join(lines)


class TestWrite:
    def test_empty_trace(self):
        empty = Trace(times=np.array([]), ids=np.array([], dtype=np.uint32))
        assert write_trace(empty, LogFormat.CANDUMP) == ""
        assert write_trace(empty, LogFormat.CSV) == "timestamp,can_id,data\n"

    PINNED_TIMES = [0.0, 0.123456499999, 5e-10, 1.5e-9, 2.5e-9, 1.0005e-6, 1.9995e-6, -5e-10, 1e-7, -4e-10,
                    1234.5678905, 1718000000.25]
    PINNED = {
        LogFormat.CANDUMP: (
            "(0.000000) can0 000#\n(0.123456) can0 7FF#\n(0.000000) can0 1FFFFFFF#\n(0.000000) can0 000#\n"
            "(0.000000) can0 7FF#\n(0.000001) can0 1FFFFFFF#\n(0.000002) can0 000#\n(0.000000) can0 7FF#\n"
            "(0.000000) can0 1FFFFFFF#\n(0.000000) can0 000#\n(1234.567890) can0 7FF#\n"
            "(1718000000.249999) can0 1FFFFFFF#\n"
        ),
        LogFormat.CSV: (
            "timestamp,can_id,data\n0.000000,0x000,\n0.123456,0x7FF,\n0.000000,0x1FFFFFFF,\n0.000000,0x000,\n"
            "0.000000,0x7FF,\n0.000001,0x1FFFFFFF,\n0.000002,0x000,\n0.000000,0x7FF,\n0.000000,0x1FFFFFFF,\n"
            "0.000000,0x000,\n1234.567890,0x7FF,\n1718000000.249999,0x1FFFFFFF,\n"
        ),
    }

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_pinned_output(self, fmt):
        # nanosecond ties (5e-10, 1.5e-9, 1.9995e-6, -5e-10) round half to
        # even before the microsecond truncation
        trace = Trace(times=np.array(self.PINNED_TIMES), ids=np.array([0, 0x7FF, MAX_CAN_ID] * 4, dtype=np.uint32))
        assert write_trace(trace, fmt) == self.PINNED[fmt]

    @pytest.mark.parametrize("fmt", list(LogFormat))
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), 9.3e9])
    def test_unwritable_timestamp_rejected(self, fmt, t):
        trace = Trace.from_records([(0.5, 0x1), (t, 0x2)])
        with pytest.raises(ValueError, match="2\\*\\*63 ns"):
            write_trace(trace, fmt)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_format_given_as_its_value(self, fmt):
        trace = Trace.from_records([(1.5, 0x185)])
        assert write_trace(trace, fmt.value) == write_trace(trace, fmt)

    def test_unknown_format_named(self):
        with pytest.raises(ValueError, match="'xml'"):
            write_trace(Trace.from_records([(1.5, 0x185)]), "xml")

    def test_microsecond_truncation(self):
        trace = Trace.from_records([(0.1234567, 0x10)])
        assert write_trace(trace, LogFormat.CANDUMP).startswith("(0.123456)")

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_round_trip_exact_at_microseconds(self, fmt):
        trace = synthesize_trace(MessageSchedule(0x185, 0.1, start_time=1.0),
                                 ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(quantization_step=1e-6), 1000, seed=2)
        text = write_trace(trace, fmt)
        restored = parse_log(text, fmt)
        # exact at microsecond resolution: same microsecond integers, and a
        # second round-trip is bit-identical
        assert np.array_equal(np.round(restored.times * 1e6), np.round(trace.times * 1e6))
        assert np.array_equal(restored.ids, trace.ids)
        assert parse_log(write_trace(restored, fmt), fmt) == restored

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_round_trip_truncates_to_microseconds(self, fmt):
        trace = Trace.from_records([(0.000001499, 0x1), (1.9999996, 0x1)])
        restored = parse_log(write_trace(trace, fmt), fmt)
        assert np.allclose(restored.times, [1e-6, 1.999999], atol=1e-12)


    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_negative_timestamp_rejected(self, fmt):
        trace = Trace.from_records([(0.5, 0x1), (-4.2e-6, 0x2), (-1.0, 0x3)])
        with pytest.raises(ValueError, match=r"-0\.0000042"):
            write_trace(trace, fmt)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_first_bad_timestamp_past_the_first_chunk_named(self, fmt):
        times = np.arange(2 * CHUNK_LINES + 10) * 1e-3
        times[CHUNK_LINES + 3], times[2 * CHUNK_LINES + 1] = -1.5, np.nan
        with pytest.raises(ValueError, match=r"negative timestamp -1\.5"):
            write_trace(Trace(times=times, ids=np.ones(len(times))), fmt)

    def test_sub_microsecond_negative_rounds_to_zero(self):
        # rounding at nanoseconds first: -0.4 ns is written as 0
        trace = Trace.from_records([(-4e-10, 0x1)])
        assert write_trace(trace, LogFormat.CANDUMP) == "(0.000000) can0 001#\n"

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(st.tuples(st.floats(0.0, 1e6), st.integers(0, MAX_CAN_ID)), min_size=1, max_size=30),
        fmt=st.sampled_from(list(LogFormat)),
    )
    def test_non_negative_traces_round_trip(self, records, fmt):
        records.sort(key=lambda r: r[0])
        trace = Trace.from_records(records)
        restored = parse_log(write_trace(trace, fmt), fmt)
        # the writer rounds at nanoseconds, then truncates to microseconds
        expected_us = [round(t * 1e9) // 1000 for t, _ in records]
        assert np.round(restored.times * 1e6).astype(np.int64).tolist() == expected_us
        assert restored.ids.tolist() == [mid for _, mid in records]

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_id_beyond_29_bits_refused(self, fmt):
        # parse_log refuses it, so the writer does not write it
        trace = Trace(times=np.array([1.0, 2.0, 3.0]), ids=np.array([0x185, 0x20000000, 0xFFFFFFFF], dtype=np.uint32))
        with pytest.raises(ValueError, match="CAN id 0x20000000"):
            write_trace(trace, fmt)
        with pytest.raises(ParseError, match="CAN id 0x20000000"):
            parse_log(spec_text(trace.times, trace.ids, fmt), fmt)

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_lines_as_formatted_one_by_one(self, fmt):
        # past one chunk; within the first, unsorted times whose seconds
        # cross 9 -> 10, 99 -> 100 and 999 -> 1000, and ids of 1 to 8 hex
        # digits, so that its lines take many layouts
        rng = np.random.default_rng(11)
        n = CHUNK_LINES + 3000
        edges = np.array([9.9999995, 9.999999, 10.0, 99.9999996, 100.0, 999.999999, 999.9999996, 1000.0, 0.0, 5e-10])
        times = np.where(rng.random(n) < 0.3, rng.choice(edges, n), rng.uniform(0.0, 1100.0, n))
        ids = rng.integers(0, 16 ** rng.integers(1, 9, n)).clip(max=MAX_CAN_ID).astype(np.uint32)
        assert write_trace(Trace(times=times, ids=ids), fmt) == spec_text(times, ids, fmt)

    def test_generate_refuses_negative_times(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        code = cli_main(["generate", "--start-time", "0", "--count", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "negative timestamp" in err
        assert not out.exists()


class TestFillMissing:
    def test_no_gaps_identity(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 50, seed=0)
        assert fill_missing(trace, 1, 0.1) == trace

    def test_single_missing_message(self):
        times = np.concatenate([np.arange(10) * 0.1, np.arange(11, 20) * 0.1])
        trace = Trace(times=times, ids=np.ones(len(times), dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        assert len(repaired) == len(trace) + 1
        inserted = repaired.times[~np.isin(repaired.times, times)]
        assert inserted == pytest.approx([1.0])  # midpoint of the 0.9-1.1 gap

    def test_double_gap_spacing(self):
        times = np.array([0.0, 0.1, 0.2, 0.5, 0.6])
        trace = Trace(times=times, ids=np.ones(5, dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        assert np.count_nonzero(~np.isin(repaired.times, times)) == 2
        diffs = np.diff(repaired.arrivals(1))
        assert np.all(diffs >= 0.09) and np.all(diffs <= 0.11)

    def test_originals_preserved(self):
        times = np.array([0.0, 0.1, 0.45, 0.55])
        trace = Trace(times=times, ids=np.ones(4, dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        originals = repaired.times[np.isin(repaired.times, times)]
        assert np.array_equal(originals, times)

    def test_no_large_gaps_after_repair(self):
        rng = np.random.default_rng(4)
        keep = np.sort(rng.choice(300, size=260, replace=False))
        times = keep * 0.1
        trace = Trace(times=times, ids=np.ones(len(times), dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        assert np.all(np.diff(repaired.arrivals(1)) <= 1.5 * 0.1 + 1e-12)

    def test_other_ids_untouched(self):
        trace = Trace.from_records([(0.0, 1), (0.5, 1), (0.02, 2), (0.9, 2)])
        repaired = fill_missing(trace, 1, 0.1)
        assert np.array_equal(repaired.arrivals(2), trace.arrivals(2))

    def test_pinned_filler_times(self):
        times = np.array([0.3, 0.4, 0.61, 0.7, 1.13, 1.2, 1.3451])
        repaired = fill_missing(Trace(times=times, ids=np.ones(7, dtype=np.uint32)), 1, 0.1)
        inserted = repaired.times[~np.isin(repaired.times, times)]
        assert inserted.tolist() == [0.505, 0.8074999999999999, 0.9149999999999999, 1.0225]

    def test_period_validation(self):
        trace = Trace.from_records([(0.0, 1), (0.1, 1)])
        for period in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^period must be finite and > 0, got {period}$"):
                fill_missing(trace, 1, period)

    @staticmethod
    def merged(trace, message_id, period):
        """The repair as a merge of the trace with its filler arrivals, or the
        trace itself when it needs none."""
        a = trace.arrivals(message_id)
        fills = [np.zeros(0)]
        for i in np.flatnonzero(np.diff(a) > 1.5 * period).tolist():
            n_ins = int(np.floor((a[i + 1] - a[i]) / period - 0.5))
            fills.append(a[i] + (a[i + 1] - a[i]) / (n_ins + 1) * np.arange(1, n_ins + 1))
        fills = np.concatenate(fills)
        if not len(fills):
            return trace
        return Trace.merge(trace, Trace(times=fills, ids=np.full(len(fills), message_id, dtype=np.uint32)))

    @settings(max_examples=100, deadline=None)
    @given(records=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.6, 1.0]),
                                                st.floats(0.0, 2.0)), st.sampled_from([1, 2])), max_size=40),
           ordered=st.booleans(), period=st.sampled_from([0.05, 0.1, 0.3]))
    def test_equals_merge_with_fillers(self, records, ordered, period):
        # fillers land on original times (ties) with these grids and periods
        if ordered:
            records.sort(key=lambda r: r[0])
        trace = Trace(times=np.array([t for t, _ in records]), ids=np.array([m for _, m in records]))
        repaired, want = fill_missing(trace, 1, period), self.merged(trace, 1, period)
        assert repaired.times.tobytes() == want.times.tobytes()
        assert repaired.ids.tobytes() == want.ids.tobytes()


class TestMemoryBudget:
    """Peak traced allocations on a 200 000-line log, against bounds that
    follow from the design. ``parse_log`` holds its output (8 + 4 bytes per
    record), a byte per record to test time order, and the temporaries of
    one slice at a time: its bytes (and its text, for a ``str``), its lines
    of one length gathered as rows and their columns, and 8-byte arrays per
    line (line ends, lengths and order where lines differ in length, and
    numeral values), 4.5 to 6.4 bytes per byte of the slice, bounded here by
    8; the first parse in a process reads as the later ones, so none is run
    first. The log text is the caller's. ``fill_missing`` holds either the
    id's arrivals, their gaps and a mask (17 bytes per record of the id) or
    its output and one mask (13 bytes per record), bounded here by 20.
    ``write_trace`` holds the chunk strings and their join, two bytes per
    character of the text, and the temporaries of one chunk of CHUNK_LINES
    records (its 8-byte time, second, micro and id arrays, its (lines,
    width) rows and their bytes, and where digit counts differ within the
    chunk, the per-line counts, line ends and order), bounded here by 400
    bytes per record of the chunk. ``canskew generate`` writes each chunk to
    its file as it is made, so it holds no copy of the text: what
    ``synthesize_trace`` holds at its peak, or the trace and one chunk's
    temporaries, within the same 400 bytes per record of a chunk. Parsing
    the whole text at once took over 100 bytes per record here, and
    repairing by a merge 48."""

    RECORDS = 200_000

    @pytest.fixture(scope="class")
    def trace(self):
        trace = synthesize_trace(MessageSchedule(0x185, 0.01, start_time=1.0), ClockSpec(skew=ppm(100)),
                                 NoiseModel(), self.RECORDS + 200, seed=5)
        keep = np.ones(len(trace), dtype=bool)
        keep[1000::1000] = False
        return Trace(times=trace.times[keep], ids=trace.ids[keep])

    @staticmethod
    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", list(LogFormat))
    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_parse_log(self, trace, fmt, as_bytes):
        text = write_trace(trace, fmt)
        text = text.encode() if as_bytes else text
        restored, peak = self.peak(parse_log, text, fmt)
        assert len(restored) == len(trace) >= self.RECORDS
        assert peak <= 13 * len(trace) + 8 * traceio.SLICE_BYTES, peak

    @pytest.mark.parametrize("fmt", list(LogFormat))
    def test_write_trace(self, trace, fmt):
        text, peak = self.peak(write_trace, trace, fmt)
        assert len(text) > 15 * len(trace)
        assert peak <= 2 * len(text) + 400 * CHUNK_LINES, peak

    def test_generate(self, tmp_path):
        # generate's own settings, synthesized without writing
        schedule, clock = MessageSchedule(0x185, 0.1, start_time=1.0), ClockSpec(skew=ppm(100), jitter_std=25e-6)
        _, synthesis = self.peak(synthesize_trace, schedule, clock, NoiseModel(), self.RECORDS, 0)
        out = tmp_path / "generated.log"
        code, peak = self.peak(cli_main, ["generate", "--count", str(self.RECORDS), "--out", str(out)])
        assert code == 0 and out.stat().st_size > 20 * self.RECORDS
        assert peak <= synthesis + 400 * CHUNK_LINES, (peak, synthesis)

    def test_fill_missing(self, trace):
        repaired, peak = self.peak(fill_missing, trace, 0x185, 0.01)
        assert len(repaired) == len(trace) + 200
        assert peak <= 20 * len(trace), peak
