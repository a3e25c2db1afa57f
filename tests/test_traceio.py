"""Log parsing, serialization round-trips, and gap repair."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canskew.cli import main as cli_main
from canskew.clock import MAX_CAN_ID, ClockSpec, MessageSchedule, NoiseModel, Trace, ppm, synthesize_trace
from canskew.traceio import LogFormat, ParseError, fill_missing, parse_log, write_trace


class TestParse:
    def test_candump_line(self):
        trace = parse_log("(1234.567890) can0 185#DEADBEEF\n", LogFormat.CANDUMP)
        assert trace.records == [(1234.567890, 0x185)]

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

    def test_extended_id_accepted(self):
        trace = parse_log("(1.000000) can0 1FFFFFFF#\n", LogFormat.CANDUMP)
        assert trace.records == [(1.0, 0x1FFFFFFF)]


class TestWrite:
    def test_empty_trace(self):
        empty = Trace(times=np.array([]), ids=np.array([], dtype=np.uint32))
        assert write_trace(empty, LogFormat.CANDUMP) == ""
        assert write_trace(empty, LogFormat.CSV) == "timestamp,can_id,data\n"

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

    def test_period_validation(self):
        trace = Trace.from_records([(0.0, 1), (0.1, 1)])
        with pytest.raises(ValueError):
            fill_missing(trace, 1, 0.0)
