"""Command-line interface: subcommands, config files, seeds, exit codes."""
import hashlib
import re

import numpy as np
import pytest

from canskew import formal, harness, traceio
from canskew.cli import _parse_grid, build_parser, main
from canskew.curves import SuccessCurve
from canskew.traceio import LogFormat, parse_log
from conftest import BAD_REFERENCE_ROWS, bad_reference_rows


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlumbing:
    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--kappa", "--gamma", "--big-gamma", "--warmup", "--variant", "--batch-size"])
    def test_consistency_takes_only_the_flags_it_reads(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["consistency", flag, "0", "t.log"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_data_error_exits_1(self, capsys, tmp_path):
        missing = tmp_path / "missing.log"
        code, _, err = run_cli(["detect", "--input", str(missing)], capsys)
        assert code == 1
        assert "error:" in err

    def test_seed_and_digest_printed(self, capsys, tmp_path):
        out = tmp_path / "t.log"
        code, _, err = run_cli(["generate", "--count", "10", "--seed", "42", "--out", str(out)], capsys)
        assert code == 0
        assert "seed=42" in err
        assert "config_digest=" in err

    def test_env_seed_overrides(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CANSKEW_SEED", "777")
        out = tmp_path / "t.log"
        code, _, err = run_cli(["generate", "--count", "10", "--seed", "1", "--out", str(out)], capsys)
        assert code == 0
        assert "seed=777" in err

    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        # the parser is built once per process; a config file's values go to
        # that call's namespace only
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("format=csv\nseed=5\njitter_std=1e-3\n")
        calls = [["generate", "--count", "5", "--config", str(cfg)], ["generate", "--count", "5"],
                 ["correlate", "--batches", "30"]]
        cached = [run_cli(argv, capsys) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(argv, capsys))
        assert cached == fresh and build_parser() is build_parser()
        (_, with_config, err_config), (_, without, err_plain), _ = cached
        assert with_config.startswith("timestamp,can_id,data\n") and "seed=5 " in err_config
        assert without.startswith("(") and "seed=5 " not in err_plain and err_plain != err_config

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count=12\nformat=csv\n")
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(["generate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,can_id,data"
        assert len(lines) == 13

    @pytest.mark.parametrize("flags", [["--count", "100"], ["--count=100"]])
    def test_explicit_flag_beats_config_file(self, capsys, tmp_path, flags):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count=50\nformat=csv\n")
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(["generate", *flags, "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 100

    def test_flag_named_apart_from_its_key_beats_config_file(self, capsys, tmp_path):
        # --id sets message_id
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("message_id=389\n")
        out = tmp_path / "t.log"
        code, _, _ = run_cli(["generate", "--count", "3", "--id", "0x200", "--config", str(cfg),
                              "--out", str(out)], capsys)
        assert code == 0
        assert [line.split()[-1] for line in out.read_text().splitlines()] == ["200#"] * 3

    @pytest.mark.parametrize("value, written", [("0x1A0", "1A0#"), ("389", "185#")])
    def test_config_value_read_with_the_option_type(self, capsys, tmp_path, value, written):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"count=2\nmessage_id={value}\n")
        out = tmp_path / "t.log"
        code, _, err = run_cli(["generate", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0, err
        assert [line.split()[-1] for line in out.read_text().splitlines()] == [written] * 2

    def test_bad_config_value_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("message_id=0xZZ\n")
        code, _, err = run_cli(["generate", "--config", str(cfg), "--out", str(tmp_path / "t.log")], capsys)
        assert code == 1
        assert "0xZZ" in err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key=1\n")
        code, _, err = run_cli(["generate", "--config", str(cfg)], capsys)
        assert code == 1
        assert "bogus_key" in err

    def test_abbreviated_flag_exits_2(self, capsys, tmp_path):
        # a prefix of --count would parse, then lose to the config file's count
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count=5\n")
        out = tmp_path / "t.log"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--cou", "3", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2 and not out.exists()
        assert "unrecognized arguments: --cou 3" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--he"])  # not --help
        assert exc.value.code == 2

    def test_positional_config_key_rejected(self, capsys, tmp_path):
        trace = tmp_path / "t1.log"
        run_cli(["generate", "--count", "400", "--out", str(trace)], capsys)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"inputs={trace}\n")
        code, _, err = run_cli(["consistency", "--config", str(cfg), "--batch-sizes", "20", str(trace)], capsys)
        assert code == 1
        assert "unknown config key 'inputs'" in err


class TestNegativeValues:
    """A token of '-' and then a digit or '.' after an option that takes a
    value is that option's value."""

    @pytest.mark.parametrize("flag, value", [("--delta-t", "-1e-6"), ("--skew-ppm", "-1e2"),
                                             ("--mistiming", "-.5e-3")])
    def test_spaced_value_parses_as_the_joined_form(self, flag, value):
        parser = build_parser()
        spaced = parser.parse_args(["sweep", flag, value])
        assert spaced == parser.parse_args(["sweep", f"{flag}={value}"])
        assert getattr(spaced, flag[2:].replace("-", "_")) == float(value)

    def test_spaced_delta_t_runs(self, capsys, tmp_path):
        out, runs = tmp_path / "curve.csv", []
        for flags in (["--delta-t", "-1e-6"], ["--delta-t=-1e-6"]):
            code, _, err = run_cli(["sweep", *flags, "--warmup", "5", "--trials", "2", "--horizon", "2",
                                    "--grid", "-1:1:1e-6", "--out", str(out)], capsys)
            runs.append((code, err, out.read_text()))
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("command", ["sweep", "predict"])
    def test_grid_given_once_or_twice(self, command):
        parser = build_parser()
        required = ["--model", "ntp", "--snapshot", "s.csv"] if command == "predict" else []
        assert parser.parse_args([command, *required, "--grid", "-50:50:1e-6"]).grid == "-50:50:1e-6"
        twice = parser.parse_args([command, *required, "--grid", "-50:50:1e-6", "--grid", "-.5:5:1e-6"])
        assert twice.grid == "-.5:5:1e-6"

    def test_spaced_negative_flag_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("skew_ppm=300\ncount=20\nformat=csv\n")
        outs = [tmp_path / f"{i}.csv" for i in range(3)]
        for out, argv in zip(outs, [["--skew-ppm", "-1e2", "--config", str(cfg)],
                                    ["--skew-ppm=-1e2", "--count", "20", "--format", "csv"], ["--config", str(cfg)]]):
            assert run_cli(["generate", *argv, "--out", str(out)], capsys)[0] == 0
        spaced, joined, from_file = (out.read_text() for out in outs)
        assert spaced == joined != from_file

    @pytest.mark.parametrize("argv", [["correlate", "--independent", "-1e2"], ["correlate", "--independent", "-1"],
                                      ["detect", "--input", "t.log", "--fill-missing", "-1e2"]])
    def test_flag_without_value_takes_no_negative_number(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err

    def test_generate_digest_is_pinned(self, capsys, monkeypatch):
        # the spelling perfbench's log pipeline passes; the digest is the
        # one this argv printed before the rule
        monkeypatch.delenv("CANSKEW_SEED", raising=False)
        code, _, err = run_cli(["generate", "--skew-ppm", "-40.0", "--count", "10"], capsys)
        assert code == 0
        assert "config_digest=8c6a36618d8cc0cb9becbba4ce14ad4f993c2f0a19e6dc494a88896a3d61b53a" in err


class TestBadInput:
    @pytest.fixture
    def trace(self, capsys, tmp_path):
        path = tmp_path / "trace.log"
        assert run_cli(["generate", "--count", "400", "--out", str(path)], capsys)[0] == 0
        return path

    @pytest.mark.parametrize("value", ["nan", "-1", "-1e-3"])
    def test_bad_arbitration_scale_exits_1(self, capsys, tmp_path, value):
        code, _, err = run_cli(["correlate", "--batches", "30", "--arb-exp-scale", value,
                                "--out", str(tmp_path / "pair.csv")], capsys)
        assert code == 1 and f"--arb-exp-scale must be >= 0, got {float(value)}" in err
        assert not (tmp_path / "pair.csv").exists()

    def test_infinite_arbitration_scale_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(["correlate", "--batches", "30", "--arb-exp-scale", "inf",
                                "--out", str(tmp_path / "pair.csv")], capsys)
        assert code == 1 and "--arb-exp-scale must be finite, got inf" in err
        assert not (tmp_path / "pair.csv").exists()

    @pytest.mark.parametrize("flag, field", [("--transmission-duration", "transmission_duration"),
                                             ("--period", "period")])
    @pytest.mark.parametrize("value", ["nan", "0", "-1e-3"])
    def test_bad_correlate_scalar_exits_1_naming_its_field(self, capsys, tmp_path, flag, field, value):
        code, _, err = run_cli(["correlate", "--batches", "30", flag, value, "--out", str(tmp_path / "pair.csv")],
                               capsys)
        rule = "must be finite and > 0" if field == "period" else "must be > 0"
        assert code == 1 and f"{field} {rule}, got {float(value)}" in err
        assert not (tmp_path / "pair.csv").exists()

    def test_nan_fill_period_exits_1(self, capsys, tmp_path, trace):
        code, _, err = run_cli(["detect", "--input", str(trace), "--warmup", "5", "--variant", "sota",
                                "--fill-missing", "--period", "nan", "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 1 and "period must be finite and > 0, got nan" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("generate", [], "period must be finite and > 0, got inf"),
        ("attack", [], "period must be finite and > 0, got inf"),
        ("sweep", ["--warmup", "5", "--trials", "2", "--horizon", "2"], "period must be finite and > 0, got inf"),
        ("correlate", ["--batches", "30"], "period must be finite and > 0, got inf"),
        ("consistency", [], "the NTP variant requires a finite nominal period > 0, got inf"),
        ("detect", ["--variant", "ntp"], "the NTP variant requires a finite nominal period > 0, got inf"),
        ("detect", ["--variant", "sota", "--fill-missing"], "period must be finite and > 0, got inf"),
    ], ids=["generate", "attack", "sweep", "correlate", "consistency", "detect-ntp", "detect-sota-fill"])
    def test_infinite_period_exits_1(self, capsys, tmp_path, trace, command, flags, message):
        inputs = {"detect": ["--input", str(trace), "--warmup", "5"], "consistency": [str(trace)]}
        code, _, err = run_cli([command, *inputs.get(command, []), *flags, "--period", "inf",
                                "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1 and f"error: {message}\n" in err
        assert not (tmp_path / "out.csv").exists()

    def test_infinite_period_snapshot_exits_1(self, capsys, tmp_path, trace):
        # the SOTA detector reads no period, but its snapshot keeps one for the models
        snap, out = tmp_path / "snap.csv", tmp_path / "out.csv"
        code, _, err = run_cli(["detect", "--input", str(trace), "--warmup", "5", "--variant", "sota",
                                "--period", "inf", "--snapshot-out", str(snap), "--out", str(out)], capsys)
        assert code == 1 and "error: snapshot requires a finite period > 0 or none, got inf\n" in err
        assert not snap.exists() and not out.exists()

    @pytest.mark.parametrize("argv, delta_t", [
        (["attack", "--delta-t", "-0.2"], -0.2),
        (["sweep", "--grid", "-3:0:0.05", "--warmup", "5", "--trials", "2", "--horizon", "2"], -3 * 0.05),
    ], ids=["attack", "sweep"])
    def test_backwards_attacker_stream_exits_1(self, capsys, tmp_path, argv, delta_t):
        # T = 0.1 s: a delta-T of -0.2 s or -0.15 s gives the attacker a negative period
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1 and f"error: delta_t = {delta_t} gives the attacker a period" in err
        assert not (tmp_path / "out.csv").exists()

    def test_negative_warmup_exits_1(self, capsys, tmp_path, trace):
        code, _, err = run_cli(["detect", "--input", str(trace), "--warmup", "-5",
                                "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 1 and "warmup_batches must be >= 0" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, warmup", [("detect", 0), ("detect", 1), ("sweep", 1)])
    def test_warmup_under_two_exits_1(self, capsys, tmp_path, trace, command, warmup):
        # armed batches follow: fewer than two unarmed errors give no sigma to score them against
        flags = ["--input", str(trace)] if command == "detect" else ["--trials", "2", "--horizon", "2"]
        code, _, err = run_cli([command, *flags, "--warmup", str(warmup), "--out", str(tmp_path / "out.csv")],
                               capsys)
        assert code == 1 and err.endswith(f"error: a warmup of {warmup} batches leaves {warmup} CUSUM reference "
                                          "errors; arming needs at least 2\n")
        assert not (tmp_path / "out.csv").exists()

    def test_horizon_past_the_reference_cap_exits_1(self, capsys, tmp_path, monkeypatch):
        # refused before the trials' arrivals, 20 * 10**8 per trial here, are drawn
        monkeypatch.setattr(harness, "_synthetic_trials", lambda *args: pytest.fail("trials were built"))
        code, _, err = run_cli(["sweep", "--warmup", "5", "--trials", "2", "--horizon", "100000000",
                                "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1 and err.endswith("error: a horizon of 100000000 batches would outlive the warm references "
                                          "(REFERENCE_CAP = 10000)\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "consistency"])
    def test_zero_period_exits_1(self, capsys, tmp_path, trace, command):
        args = ["--input", str(trace), "--warmup", "5"] if command == "detect" else [str(trace)]
        code, _, err = run_cli([command, *args, "--period", "0",
                                "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1 and "nominal period > 0" in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "consistency"])
    @pytest.mark.parametrize("count, line, slice_bytes", [(100, 3, None), (400, 350, 1024)],
                             ids=["short", "sliced"])
    def test_undecodable_byte_names_its_line(self, capsys, tmp_path, trace, monkeypatch, command, count, line,
                                             slice_bytes):
        lines = trace.read_bytes().splitlines(keepends=True)[:count]
        lines[line - 1] = lines[line - 1].replace(b"can0", b"can\xff")
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"".join(lines))
        assert (bad.stat().st_size < traceio._ARRAY_MIN_CHARS) == (slice_bytes is None)
        if slice_bytes:
            monkeypatch.setattr(traceio, "SLICE_BYTES", slice_bytes)
        args = ["--input", str(bad)] if command == "detect" else [str(bad)]
        code, _, err = run_cli([command, *args, "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 1 and f"error: line {line}: not UTF-8" in err
        assert not (tmp_path / "out.csv").exists()

    def test_predict_without_sums_exits_1(self, capsys, tmp_path, trace):
        snap = tmp_path / "snap.csv"
        assert run_cli(["detect", "--input", str(trace), "--warmup", "5", "--snapshot-out", str(snap),
                        "--out", str(tmp_path / "r.csv")], capsys)[0] == 0
        lines = snap.read_text().splitlines(keepends=True)
        snap.write_text("".join(line for line in lines if not line.startswith(("ot_sum,", "tt_sum,"))))
        code, _, err = run_cli(["predict", "--model", "ntp", "--snapshot", str(snap),
                                "--grid", "-1:1:1e-7", "--horizon", "3"], capsys)
        assert code == 1 and "least-squares sums" in err


@pytest.fixture(scope="module")
def sota_snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("snap")
    trace, snap = path / "trace.log", path / "snap.csv"
    assert main(["generate", "--count", "4020", "--seed", "3", "--out", str(trace)]) == 0
    assert main(["detect", "--input", str(trace), "--variant", "sota", "--warmup", "150",
                 "--snapshot-out", str(snap), "--out", str(path / "r.csv")]) == 0
    return snap


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("snap")
    trace, snap = path / "trace.log", path / "snap.csv"
    assert main(["generate", "--count", "4020", "--seed", "3", "--out", str(trace)]) == 0
    assert main(["detect", "--input", str(trace), "--variant", "ntp", "--warmup", "150",
                 "--snapshot-out", str(snap), "--out", str(path / "r.csv")]) == 0
    return snap


def grid_command(command, snapshot):
    return (["--model", "ntp", "--snapshot", str(snapshot)] if command == "predict"
            else ["--warmup", "20", "--trials", "2", "--horizon", "3"])


class TestNonFiniteGrids:
    @pytest.mark.parametrize("spec", ["-1:1:nan", "-1:1:inf", "nan:1:1e-7", "-inf:1:1e-7", "-1:inf:1e-7"])
    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_non_finite_grid_spec_exits_1(self, capsys, tmp_path, snapshot, command, spec):
        out = tmp_path / "curve.csv"
        code, _, err = run_cli([command, *grid_command(command, snapshot), f"--grid={spec}", "--out", str(out)],
                               capsys)
        assert code == 1 and f"grid spec {spec!r}" in err and "finite" in err
        assert not out.exists()

    def test_overflowing_forecast_exits_1(self, capsys, tmp_path, snapshot):
        # finite grid points whose forecast overflows give no density to recurse on
        out, forecast = tmp_path / "curve.csv", tmp_path / "forecast.csv"
        code, _, err = run_cli(["predict", "--model", "ntp", "--snapshot", str(snapshot), "--grid=-1:1:1e308",
                                "--horizon", "3", "--forecast-out", str(forecast), "--out", str(out)], capsys)
        assert code == 1 and "error densities must be finite" in err
        assert "Warning" not in err
        assert not out.exists() and not forecast.exists()


class TestNanConfig:
    @pytest.mark.parametrize("flag, name", [
        ("--big-gamma", "detection_threshold"), ("--gamma", "update_threshold"), ("--kappa", "sensitivity"),
        ("--jitter-std", "jitter_std"), ("--delay-std", "delay_std"),
        ("--attacker-jitter-std", "jitter_std"), ("--attacker-delay-std", "delay_std"),
    ])
    def test_nan_flag_exits_1(self, capsys, tmp_path, flag, name):
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(["sweep", "--variant", "sota", "--trials", "2", "--warmup", "60", "--horizon", "2",
                                "--grid=-4:4:100e-6", flag, "nan", "--out", str(out)], capsys)
        assert code == 1 and f"{name} must be" in err and "nan" in err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["ntp", "sota"])
    @pytest.mark.parametrize("name", ["sigma", "sigma_cusum", "mu_cusum", "mu", "prev_batch_mean", "o_acc", "t",
                                      "skew", "ot_sum", "tt_sum", "period"])
    def test_predict_names_a_nan_snapshot_field(self, capsys, tmp_path, snapshot, sota_snapshot, model, name):
        lines = (snapshot if model == "ntp" else sota_snapshot).read_text().splitlines(keepends=True)
        edited = [f"{name},nan\n" if line.startswith(f"{name},") else line for line in lines]
        assert edited != lines
        bad = tmp_path / "snap.csv"
        bad.write_text("".join(edited))
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(["predict", "--model", model, "--snapshot", str(bad), "--grid=-1:1:1e-7",
                                "--horizon", "3", "--out", str(out)], capsys)
        assert code == 1 and re.search(rf"^error: snapshot requires (a finite )?{name}\b.*, got nan$", err, re.M)
        assert not out.exists()

    @pytest.mark.parametrize("model", ["ntp", "sota"])
    def test_predict_refuses_an_infinite_period(self, capsys, tmp_path, snapshot, sota_snapshot, model):
        text = (snapshot if model == "ntp" else sota_snapshot).read_text()
        bad = tmp_path / "snap.csv"
        bad.write_text(re.sub(r"^period,.*$", "period,inf", text, count=1, flags=re.M))
        code, _, err = run_cli(["predict", "--model", model, "--snapshot", str(bad), "--grid=-1:1:1e-7",
                                "--horizon", "3", "--out", str(tmp_path / "curve.csv")], capsys)
        assert code == 1 and "error: snapshot requires a finite period > 0 or none, got inf\n" in err
        assert not (tmp_path / "curve.csv").exists()

    def test_predict_refuses_a_nan_config(self, capsys, tmp_path, snapshot):
        text = snapshot.read_text()
        assert "\nsensitivity,8.0\n" in text
        bad = tmp_path / "snap.csv"
        bad.write_text(text.replace("\nsensitivity,8.0\n", "\nsensitivity,nan\n"))
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(["predict", "--model", "ntp", "--snapshot", str(bad), "--grid=-1:1:1e-7",
                                "--horizon", "3", "--out", str(out)], capsys)
        assert code == 1 and "sensitivity must be >= 0, got nan" in err
        assert not out.exists()


class TestSnapshotReferences:
    @pytest.mark.parametrize("case", BAD_REFERENCE_ROWS)
    @pytest.mark.parametrize("model", ["ntp", "sota"])
    def test_predict_refuses_a_bad_reference_row(self, capsys, tmp_path, snapshot, sota_snapshot, model, case):
        text = (snapshot if model == "ntp" else sota_snapshot).read_text()
        row = re.search(r"^reference_errors,(.*)$", text, re.M)[1]
        assert row.startswith(("+0x", "-0x"))
        bad = tmp_path / "snap.csv"
        bad.write_text(text.replace(row, bad_reference_rows(row.split(" "))[case]))
        out = tmp_path / "curve.csv"
        code, _, err = run_cli(["predict", "--model", model, "--snapshot", str(bad), "--grid=-1:1:1e-7",
                                "--horizon", "3", "--out", str(out)], capsys)
        assert code == 1 and "error: snapshot field reference_errors: " in err
        assert not out.exists()

    def test_decimal_row_predicts_as_the_hex_row(self, capsys, tmp_path, snapshot):
        # snapshot files written before the hex rows hold decimal tokens
        text = snapshot.read_text()
        row = re.search(r"^reference_errors,(.*)$", text, re.M)[1]
        old = tmp_path / "old.csv"
        old.write_text(text.replace(row, " ".join(repr(float.fromhex(token)) for token in row.split(" "))))
        curves = []
        for snap in (snapshot, old):
            out = tmp_path / "curve.csv"
            assert run_cli(["predict", "--model", "ntp", "--snapshot", str(snap), "--grid=-3:3:1e-7",
                            "--horizon", "5", "--out", str(out)], capsys)[0] == 0
            curves.append(out.read_text())
        assert curves[0] == curves[1]


class TestGridSize:
    # both specs are refused before an array is made: the point count alone
    # is past the cap
    @pytest.mark.parametrize("spec, count", [("0:1e15:1e-9", 10**15 + 1), ("-1e18:1e18:1e-30", 2 * 10**18 + 1)],
                             ids=["1e15-points", "2e18-points"])
    @pytest.mark.parametrize("command", ["predict", "sweep"])
    def test_oversized_grid_spec_exits_1(self, capsys, tmp_path, snapshot, command, spec, count):
        out = tmp_path / "curve.csv"
        code, _, err = run_cli([command, *grid_command(command, snapshot), f"--grid={spec}", "--out", str(out)],
                               capsys)
        assert code == 1 and f"grid spec {spec!r} has {count} points" in err
        assert not out.exists()

    def test_cap_is_100000_points(self):
        assert len(_parse_grid("1:100000:1e-9")) == 100_000
        assert len(_parse_grid("-50000.4:49999.4:1e-9")) == 100_000
        with pytest.raises(ValueError, match="has 100001 points; at most 100000"):
            _parse_grid("0:100000:1e-9")


class TestWorkflows:
    def test_generate_detect_predict(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        report = tmp_path / "report.csv"
        snap = tmp_path / "snap.csv"
        curve = tmp_path / "pred.csv"
        assert run_cli(["generate", "--count", "4020", "--seed", "3", "--out", str(trace)], capsys)[0] == 0
        code, _, _ = run_cli([
            "detect", "--input", str(trace), "--variant", "ntp", "--warmup", "150",
            "--snapshot-out", str(snap), "--out", str(report),
        ], capsys)
        assert code == 0
        header = report.read_text().splitlines()[0]
        assert header == "batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm"
        code, _, _ = run_cli([
            "predict", "--model", "ntp", "--snapshot", str(snap),
            "--grid", "-10:10:1e-7", "--horizon", "20", "--out", str(curve),
        ], capsys)
        assert code == 0
        parsed = SuccessCurve.from_csv(curve.read_text())
        assert len(parsed.grid) == 21
        assert parsed.p_success.max() > 0.9

    def test_full_reference_fifo_snapshot_reads_back(self, capsys, tmp_path):
        # 10 060 batches of 20 messages: the detector's 10 000-entry CUSUM
        # reference FIFO fills, so the snapshot's reference field is long
        trace = tmp_path / "trace.log"
        snap = tmp_path / "snap.csv"
        assert run_cli(["generate", "--count", str(10_060 * 20), "--out", str(trace)], capsys)[0] == 0
        code, _, _ = run_cli([
            "detect", "--input", str(trace), "--variant", "ntp", "--warmup", "50",
            "--snapshot-out", str(snap), "--out", str(tmp_path / "report.csv"),
        ], capsys)
        assert code == 0
        line = next(row for row in snap.read_text().splitlines() if row.startswith("reference_errors,"))
        assert len(line.split(",", 1)[1].split()) == 10_000
        code, _, err = run_cli([
            "predict", "--model", "ntp", "--snapshot", str(snap),
            "--grid", "-2:2:1e-7", "--horizon", "10", "--out", str(tmp_path / "pred.csv"),
        ], capsys)
        assert code == 0, err

    def test_predict_forecast_out(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        snap = tmp_path / "snap.csv"
        forecast = tmp_path / "forecast.csv"
        assert run_cli(["generate", "--count", "4020", "--seed", "3", "--out", str(trace)], capsys)[0] == 0
        assert run_cli(["detect", "--input", str(trace), "--variant", "ntp", "--warmup", "150",
                        "--snapshot-out", str(snap), "--out", str(tmp_path / "r.csv")], capsys)[0] == 0
        code, _, _ = run_cli([
            "predict", "--model", "ntp", "--snapshot", str(snap), "--grid", "-1:1:1e-7",
            "--horizon", "4", "--forecast-out", str(forecast), "--out", str(tmp_path / "pred.csv"),
        ], capsys)
        assert code == 0
        lines = forecast.read_text().splitlines()
        assert lines[0] == "delta_t,batch,t_hat,o_acc_hat,skew_hat,e_hat,mu_cusum_hat,sigma_cusum_hat,e_n_mean,e_n_std"
        assert len(lines) == 1 + 3 * 4
        # the bytes written when each delta-T's rows came from its own
        # one-point forecast and were prefixed with the delta-T
        assert hashlib.sha256(forecast.read_bytes()).hexdigest() == \
            "534b3b56fd970dd14a1f1d6c01f14f7f36e24c16651c839a61a22b44697d26cb"

    def test_predict_forecasts_each_delta_t_once(self, capsys, tmp_path, monkeypatch):
        trace, snap = tmp_path / "trace.log", tmp_path / "snap.csv"
        assert run_cli(["generate", "--count", "4020", "--seed", "3", "--out", str(trace)], capsys)[0] == 0
        assert run_cli(["detect", "--input", str(trace), "--variant", "ntp", "--warmup", "150",
                        "--snapshot-out", str(snap), "--out", str(tmp_path / "r.csv")], capsys)[0] == 0
        plain = tmp_path / "plain.csv"
        assert run_cli(["predict", "--model", "ntp", "--snapshot", str(snap), "--grid", "-2:2:1e-7",
                        "--horizon", "4", "--out", str(plain)], capsys)[0] == 0
        calls = []
        forecast = formal.ntp_forecast
        monkeypatch.setattr(formal, "ntp_forecast", lambda *args: calls.append(args) or forecast(*args))
        pred = tmp_path / "pred.csv"
        assert run_cli(["predict", "--model", "ntp", "--snapshot", str(snap), "--grid", "-2:2:1e-7",
                        "--horizon", "4", "--forecast-out", str(tmp_path / "f.csv"), "--out", str(pred)],
                       capsys)[0] == 0
        # one grid-wide pass over the horizon covers each delta-T once
        assert len(calls) == 1
        snapshot, grid, horizon = calls[0]
        assert np.array_equal(grid, np.arange(-2, 3) * 1e-7) and horizon == 4
        assert pred.read_text() == plain.read_text()

    def test_predict_forecast_out_rejects_sota(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        snap = tmp_path / "snap.csv"
        assert run_cli(["generate", "--count", "4020", "--out", str(trace)], capsys)[0] == 0
        assert run_cli(["detect", "--input", str(trace), "--variant", "sota", "--warmup", "150",
                        "--snapshot-out", str(snap), "--out", str(tmp_path / "r.csv")], capsys)[0] == 0
        forecast = tmp_path / "forecast.csv"
        code, _, err = run_cli([
            "predict", "--model", "sota", "--snapshot", str(snap), "--grid", "-1:1:1e-6",
            "--forecast-out", str(forecast),
        ], capsys)
        assert code == 2
        assert "--forecast-out" in err
        assert not forecast.exists()

    def test_attack_emits_longer_trace(self, capsys, tmp_path):
        out = tmp_path / "attack.log"
        code, _, _ = run_cli([
            "attack", "--warmup", "50", "--normal-count", "1020",
            "--attack-batches", "10", "--out", str(out),
        ], capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 1020 + 200
        # readable back: no record before time 0
        assert len(parse_log(out.read_text(), LogFormat.CANDUMP)) == 1020 + 200

    def test_sweep_compare_msi(self, capsys, tmp_path):
        exp = tmp_path / "exp.csv"
        code, _, _ = run_cli([
            "sweep", "--variant", "ntp", "--warmup", "150", "--trials", "5",
            "--horizon", "10", "--grid", "-4:4:2e-7", "--out", str(exp),
        ], capsys)
        assert code == 0
        curve = SuccessCurve.from_csv(exp.read_text())
        assert curve.p_success.max() == 1.0
        assert (curve.trials, curve.horizon, curve.source) == (5, 10, "EXPERIMENTAL")
        # the same values labelled as a prediction compare at ADE 0
        pred = tmp_path / "pred.csv"
        pred.write_text(SuccessCurve(grid=curve.grid, p_success=curve.p_success, horizon=10,
                                     source="PREDICTED").to_csv())
        code, out_text, _ = run_cli(["compare", str(pred), str(exp)], capsys)
        assert code == 0
        assert out_text.startswith("ADE = 0")
        code, out_text, _ = run_cli(["msi", "--curve", str(exp), "--epsilon", "0.05"], capsys)
        assert code == 0
        assert out_text.startswith("epsilon-MSI =")

    def test_compare_rejects_experimental_grid_beyond_prediction(self, capsys, tmp_path):
        grid = np.arange(-50, 51) * 1e-6
        pred, exp = tmp_path / "pred.csv", tmp_path / "exp.csv"
        narrow = np.abs(grid) <= 10e-6
        pred.write_text(SuccessCurve(grid=grid[narrow], p_success=np.ones(narrow.sum()),
                                     source="PREDICTED").to_csv())
        exp.write_text(SuccessCurve(grid=grid, p_success=np.ones(len(grid))).to_csv())
        code, out_text, err = run_cli(["compare", str(pred), str(exp)], capsys)
        assert code == 1 and out_text == ""
        assert "80 of 101 experimental grid points lie outside the predicted grid" in err

    def test_compare_rejects_two_monte_carlo_curves(self, capsys, tmp_path):
        exp = tmp_path / "exp.csv"
        exp.write_text(SuccessCurve(grid=np.zeros(1), p_success=np.ones(1), trials=5, horizon=10).to_csv())
        code, out_text, err = run_cli(["compare", str(exp), str(exp)], capsys)
        assert code == 1 and out_text == ""
        assert "both curves are Monte Carlo results" in err

    def test_compare_rejects_different_horizons(self, capsys, tmp_path):
        pred, exp = tmp_path / "pred.csv", tmp_path / "exp.csv"
        pred.write_text(SuccessCurve(grid=np.zeros(1), p_success=np.ones(1), horizon=20,
                                     source="PREDICTED").to_csv())
        exp.write_text(SuccessCurve(grid=np.zeros(1), p_success=np.ones(1), trials=5, horizon=60).to_csv())
        code, out_text, err = run_cli(["compare", str(pred), str(exp)], capsys)
        assert code == 1 and out_text == ""
        assert "different horizons: 20 attack batches" in err

    def test_compare_reads_two_column_curves_as_before(self, capsys, tmp_path):
        old = tmp_path / "old.csv"
        old.write_text("delta_t_seconds,p_success\n-1e-06,0.5\n0,1\n1e-06,0.5\n")
        code, out_text, err = run_cli(["compare", str(old), str(old)], capsys)
        assert code == 0, err
        assert out_text.startswith("ADE = 0")

    def test_correlate(self, capsys, tmp_path):
        out = tmp_path / "pair.csv"
        code, _, _ = run_cli(["correlate", "--batches", "100", "--out", str(out)], capsys)
        assert code == 0
        last = out.read_text().splitlines()[-1]
        assert last.startswith("rho,")
        assert float(last.split(",")[1]) > 0.95

    def test_consistency(self, capsys, tmp_path):
        trace = tmp_path / "trace.log"
        run_cli(["generate", "--count", "4000", "--jitter-std", "1e-4", "--out", str(trace)], capsys)
        out = tmp_path / "consistency.csv"
        code, _, _ = run_cli([
            "consistency", "--batch-sizes", "20,40", "--out", str(out), str(trace),
        ], capsys)
        assert code == 0
        assert out.read_text().startswith("variant,case,sigma_ppm,skews_ppm")
