"""Log parsing, serialization round-trips, and gap repair."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canskew.cli import main as cli_main
from canskew.clock import MAX_CAN_ID, ClockSpec, MessageSchedule, NoiseModel, Trace, ppm, synthesize_trace
from canskew.traceio import CHUNK_LINES, LogFormat, ParseError, fill_missing, parse_log, write_trace


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
        inserted = repaired.times[repaired.inserted]
        assert inserted == pytest.approx([1.0])  # midpoint of the 0.9-1.1 gap

    def test_double_gap_spacing(self):
        times = np.array([0.0, 0.1, 0.2, 0.5, 0.6])
        trace = Trace(times=times, ids=np.ones(5, dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        assert int(repaired.inserted.sum()) == 2
        diffs = np.diff(repaired.arrivals(1))
        assert np.all(diffs >= 0.09) and np.all(diffs <= 0.11)

    def test_originals_preserved(self):
        times = np.array([0.0, 0.1, 0.45, 0.55])
        trace = Trace(times=times, ids=np.ones(4, dtype=np.uint32))
        repaired = fill_missing(trace, 1, 0.1)
        originals = repaired.times[~repaired.inserted]
        assert np.allclose(originals, times, atol=1e-15)

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
        assert repaired.times[repaired.inserted].tolist() == [0.505, 0.8074999999999999, 0.9149999999999999, 1.0225]

    def test_period_validation(self):
        trace = Trace.from_records([(0.0, 1), (0.1, 1)])
        with pytest.raises(ValueError):
            fill_missing(trace, 1, 0.0)
