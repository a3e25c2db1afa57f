"""Command-line front end.

Every subcommand accepts flags and/or a flat key=value config file (flags
win), honors the CANSKEW_SEED environment variable over any configured seed,
and prints the effective seed plus a SHA-256 digest of the resolved
configuration to stderr so runs can be reproduced and audited.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import re
import sys

import numpy as np

from . import attacks, correlation, formal, harness, ids, traceio
from .clock import ClockSpec, MessageSchedule, NoiseModel, ppm

SEED_ENV_VAR = "CANSKEW_SEED"
# far above the 61-, 81- and 601-point grids of the studies; a larger spec is
# refused before its array is allocated
MAX_GRID_POINTS = 100_000
GRID_HELP = f"start:stop:scale, e.g. -50:50:1e-6; at most {MAX_GRID_POINTS} points"


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{number}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_grid(text):
    """Grid spec 'start:stop:scale' -> integer range scaled, e.g. -50:50:1e-6
    is -50..50 microseconds in 1-step units of the scale. At most
    ``MAX_GRID_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:scale, got {text!r}")
    start, stop, scale = float(parts[0]), float(parts[1]), float(parts[2])
    if not all(map(math.isfinite, (start, stop, scale))):
        raise ValueError(f"grid spec {text!r}: start, stop and scale must be finite")
    if stop < start or scale <= 0:
        raise ValueError(f"bad grid spec {text!r}")
    first, last = int(round(start)), int(round(stop))
    if last - first + 1 > MAX_GRID_POINTS:
        raise ValueError(f"grid spec {text!r} has {last - first + 1} points; "
                         f"at most {MAX_GRID_POINTS} are allowed")
    return np.arange(first, last + 1) * scale


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that keeps its actions by dest, so config file keys
    can be matched to their options, and that gives an option the negative
    number that follows it.

    argparse reads a token such as ``-1e-6`` or ``-50:50:1e-6`` as an option
    string. Here a token that starts with ``-`` and then a digit or ``.``,
    after an option that takes a value, is that option's value; no option
    string looks like that."""

    def __init__(self, *args, **kwargs):
        self.actions_by_dest = {}
        # a prefix of an option would parse, but could not be matched
        # against the config file; options must be spelled out
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.actions_by_dest[action.dest] = action
        return action

    def parse_known_args(self, args, namespace=None):
        takes_value = {option for action in self.actions_by_dest.values() if action.nargs != 0
                       for option in action.option_strings}
        joined = []
        for token in args:
            if joined and joined[-1] in takes_value and re.match(r"-[0-9.]", token):
                joined[-1] += "=" + token
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


def _resolve(args, argv):
    """Fill argparse defaults from the config file and the seed env var.

    ``argv`` is the parsed command line. A config key names the dest of one
    of the subcommand's options (positionals are not settable); when one of
    the option's strings is on the command line, as ``--flag value`` or
    ``--flag=value``, the flag wins over the file. File values are converted
    with the option's own type, so ``message_id=0x185`` reads as ``--id 0x185``.
    """
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        given = {token.partition("=")[0] for token in argv if token.startswith("--")}
        for key, raw in file_values.items():
            action = args._actions.get(key)
            if action is None or not action.option_strings or not hasattr(args, key):
                raise ValueError(f"unknown config key {key!r}")
            if given.intersection(action.option_strings):
                continue  # explicit flag wins
            if isinstance(action.default, bool):  # store_true flags
                setattr(args, key, raw.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, (action.type or str)(raw))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None and hasattr(args, "seed"):
        args.seed = int(env_seed)
    return args


def _announce(args):
    items = sorted((k, repr(v)) for k, v in vars(args).items() if k not in ("func", "_actions"))
    digest = hashlib.sha256("\n".join(f"{k}={v}" for k, v in items).encode()).hexdigest()
    seed = getattr(args, "seed", None)
    print(f"seed={seed} config_digest={digest}", file=sys.stderr)


def _write_output(args, text):
    """Write ``text``, a str or an iterable of str pieces written as they
    come, to --out, else to stdout."""
    pieces = (text,) if isinstance(text, str) else text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _ids_config(args):
    return ids.IdsConfig(
        variant=ids.Variant(args.variant),
        batch_size=args.batch_size,
        rls_lambda=args.rls_lambda,
        update_threshold=args.gamma,
        detection_threshold=args.big_gamma,
        sensitivity=args.kappa,
    )


def _target_clock(args):
    return ClockSpec(skew=ppm(args.skew_ppm), jitter_std=args.jitter_std)


def _target_noise(args):
    return NoiseModel(delay_mean=args.delay_mean, delay_std=args.delay_std,
                      quantization_step=args.quantization)


def _attacker(args):
    clock = ClockSpec(skew=ppm(args.attacker_skew_ppm), jitter_std=args.attacker_jitter_std)
    noise = NoiseModel(delay_mean=args.attacker_delay_mean, delay_std=args.attacker_delay_std,
                       quantization_step=args.quantization)
    return clock, noise


def _attack_spec(args, attack_batches):
    clock, noise = _attacker(args)
    delta_t0 = attacks.compute_delta_t0(clock.skew, ppm(args.skew_ppm), args.period)
    return attacks.AttackSpec(
        delta_t0=delta_t0,
        delta_t=args.delta_t,
        mistiming=args.mistiming,
        start_batch=args.warmup + 1,
        attack_batches=attack_batches,
        attacker_clock=clock,
        attacker_noise=noise,
    )


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=0)


def _add_clock_flags(parser):
    parser.add_argument("--id", dest="message_id", type=lambda s: int(s, 0), default=0x185)
    parser.add_argument("--period", type=float, default=0.1, help="nominal period in seconds")
    parser.add_argument("--skew-ppm", type=float, default=100.0, help="target clock skew")
    parser.add_argument("--jitter-std", type=float, default=25e-6)
    parser.add_argument("--delay-mean", type=float, default=0.0)
    parser.add_argument("--delay-std", type=float, default=0.0)
    parser.add_argument("--quantization", type=float, default=0.0)


def _add_rls_flag(parser):
    parser.add_argument("--rls-lambda", type=float, default=0.9995)


def _add_ids_flags(parser):
    parser.add_argument("--variant", choices=[v.value for v in ids.Variant], default="ntp")
    parser.add_argument("--batch-size", type=int, default=20)
    _add_rls_flag(parser)
    parser.add_argument("--gamma", type=float, default=4.0, help="reference update threshold")
    parser.add_argument("--big-gamma", type=float, default=5.0, help="detection threshold")
    parser.add_argument("--kappa", type=float, default=8.0, help="CUSUM sensitivity")
    parser.add_argument("--warmup", type=int, default=1000)


def _add_attack_flags(parser):
    parser.add_argument("--attacker-skew-ppm", type=float, default=150.0)
    parser.add_argument("--attacker-jitter-std", type=float, default=25e-6)
    parser.add_argument("--attacker-delay-mean", type=float, default=0.0)
    parser.add_argument("--attacker-delay-std", type=float, default=0.0)
    parser.add_argument("--delta-t", type=float, default=0.0)
    parser.add_argument("--mistiming", type=float, default=0.0)


def _cmd_generate(args):
    schedule = MessageSchedule(args.message_id, args.period, start_time=args.start_time)
    from .clock import synthesize_trace

    trace = synthesize_trace(schedule, _target_clock(args), _target_noise(args), args.count, args.seed)
    _write_output(args, traceio.write_chunks(trace, args.format))
    return 0


def _read_log(path, fmt):
    """Parse the log file at ``path``; its bytes are released once parsed."""
    with open(path, "rb") as fh:
        return traceio.parse_log(fh.read(), traceio.LogFormat(fmt))


def _cmd_detect(args):
    trace = _read_log(args.input, args.format)
    if args.fill_missing:
        trace = traceio.fill_missing(trace, args.message_id, args.period)
    report = ids.run_ids(trace, args.message_id, _ids_config(args), args.warmup, period=args.period)
    if args.snapshot_out:
        state = report.final_state
        snap = formal.take_snapshot(report, state, state.batch_index + 1)
        with open(args.snapshot_out, "w", encoding="utf-8") as fh:
            fh.write(formal.snapshot_to_csv(snap))
    _write_output(args, report.to_csv())
    return 0


def _cmd_attack(args):
    # first nominal arrival at 1 s, as generate's default, so jitter cannot
    # push a timestamp below zero
    schedule = MessageSchedule(args.message_id, args.period, start_time=1.0)
    spec = _attack_spec(args, args.attack_batches)
    trace = attacks.cloaked_trace(spec, schedule, _target_clock(args), _target_noise(args),
                                  args.normal_count, args.batch_size, args.seed)
    _write_output(args, traceio.write_chunks(trace, args.format))
    return 0


def _cmd_sweep(args):
    schedule = MessageSchedule(args.message_id, args.period)
    source = harness.SyntheticSource(schedule, _target_clock(args), _target_noise(args))
    grid = _parse_grid(args.grid) if args.grid else harness.default_grid(args.period)
    cfg = harness.ExperimentConfig(ids=_ids_config(args), warmup_batches=args.warmup,
                                   trials=args.trials, horizon=args.horizon, grid=grid, seed=args.seed)
    curve = harness.monte_carlo_ps(source, _attack_spec(args, args.horizon), cfg, vary=args.vary)
    _write_output(args, curve.to_csv())
    return 0


def _cmd_predict(args):
    if args.forecast_out and args.model != "ntp":
        print("error: --forecast-out needs --model ntp; the sota model has no per-batch forecast",
              file=sys.stderr)
        return 2
    with open(args.snapshot, encoding="utf-8") as fh:
        snap = formal.snapshot_from_csv(fh.read())
    if snap.config.variant.value != args.model:
        raise ValueError(f"snapshot is for the {snap.config.variant.value} variant, not {args.model}")
    grid = _parse_grid(args.grid)
    if args.forecast_out:
        curve, forecast = formal.ntp_success_curve(snap, grid, horizon=args.horizon)
        with open(args.forecast_out, "w", encoding="utf-8") as fh:
            fh.write(forecast.to_csv())
    else:
        curve = formal.success_curve(snap, grid, horizon=args.horizon)
    _write_output(args, curve.to_csv())
    return 0


def _cmd_compare(args):
    curves, recorded = [], []
    for path in (args.predicted, args.experimental):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        curves.append(harness.SuccessCurve.from_csv(text))
        recorded.append(harness.SuccessCurve.records_provenance(text))
    predicted, experimental = curves
    if all(recorded):
        if predicted.source == experimental.source == "EXPERIMENTAL":
            raise ValueError(f"both curves are Monte Carlo results (source EXPERIMENTAL): "
                             f"{args.predicted} must be a predicted curve")
        if predicted.horizon > 0 and experimental.horizon > 0 and predicted.horizon != experimental.horizon:
            raise ValueError(f"the curves are for different horizons: {predicted.horizon} attack batches "
                             f"in {args.predicted}, {experimental.horizon} in {args.experimental}")
    value = harness.ade(predicted, experimental)
    _write_output(args, f"ADE = {value:.4g}%\n")
    return 0


def _cmd_msi(args):
    with open(args.curve, encoding="utf-8") as fh:
        curve = harness.SuccessCurve.from_csv(fh.read())
    value = harness.epsilon_msi(curve, args.epsilon)
    _write_output(args, f"epsilon-MSI = {value:.6g} s\n")
    return 0


def _cmd_correlate(args):
    scale = args.arb_exp_scale
    if not scale >= 0.0:
        raise ValueError(f"--arb-exp-scale must be >= 0, got {scale}")
    if scale == math.inf:
        raise ValueError("--arb-exp-scale must be finite, got inf")
    arb = (lambda rng, size: rng.exponential(scale, size)) if scale > 0.0 else None
    scenario = correlation.CorrelationScenario(
        id_v=args.id_v, id_w=args.id_w,
        transmission_duration=args.transmission_duration,
        arbitration_delay_dist=arb, batch_size=args.batch_size, period=args.period,
    )
    independent = ClockSpec(skew=ppm(args.independent_skew_ppm), jitter_std=args.jitter_std) \
        if args.independent else None
    trace_v, trace_w = correlation.simulate_sibling_pair(
        scenario, ClockSpec(skew=ppm(args.skew_ppm), jitter_std=args.jitter_std),
        args.batches, args.seed, independent_clock=independent,
    )
    pair = correlation.correlate_pair(trace_v, trace_w, scenario)
    _write_output(args, pair.to_csv())
    return 0


def _cmd_consistency(args):
    traces = [_read_log(path, args.format) for path in args.inputs]
    batch_sizes = [int(v) for v in args.batch_sizes.split(",")]
    # the study sets the variant and batch size of each run itself
    config = ids.IdsConfig(variant=ids.Variant.NTP, rls_lambda=args.rls_lambda)
    result = harness.consistency_study(traces, args.message_id, batch_sizes, config, args.period)
    _write_output(args, result.to_csv())
    return 0


@functools.cache
def build_parser():
    """The argparse tree of every subcommand, built once per process:
    parsing and ``_resolve`` only read it."""
    parser = argparse.ArgumentParser(prog="canskew", allow_abbrev=False,
                                     description="Clock-skew IDS and cloaking-attack toolkit for periodic CAN traffic")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="synthesize a periodic trace")
    _add_common(p)
    _add_clock_flags(p)
    p.add_argument("--count", type=int, default=20000)
    p.add_argument("--start-time", type=float, default=1.0,
                   help="first nominal arrival (keeps jittered timestamps non-negative)")
    p.add_argument("--format", choices=["candump", "csv"], default="candump")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("detect", help="run a detector over a trace log")
    _add_common(p)
    _add_clock_flags(p)
    _add_ids_flags(p)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["candump", "csv"], default="candump")
    p.add_argument("--fill-missing", action="store_true")
    p.add_argument("--snapshot-out", help="also save the end-of-run detector snapshot")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("attack", help="emit a normal trace followed by a cloaked spoofed stream")
    _add_common(p)
    _add_clock_flags(p)
    _add_attack_flags(p)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--normal-count", type=int, default=20020)
    p.add_argument("--attack-batches", type=int, default=60)
    p.add_argument("--format", choices=["candump", "csv"], default="candump")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sweep", help="Monte Carlo success curve over a parameter grid")
    _add_common(p)
    _add_clock_flags(p)
    _add_ids_flags(p)
    _add_attack_flags(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--horizon", type=int, default=60)
    p.add_argument("--grid", help=GRID_HELP)
    p.add_argument("--vary", choices=["delta_t", "mistiming"], default="delta_t")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("predict", help="model-predicted success curve from a detector snapshot")
    _add_common(p)
    p.add_argument("--model", choices=["sota", "ntp"], required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--grid", required=True, help=GRID_HELP)
    p.add_argument("--horizon", type=int, default=60)
    p.add_argument("--forecast-out",
                   help="also write the per-batch NTP forecast for every delta-T (ntp model only)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("compare", help="area deviation error between two curves")
    _add_common(p)
    p.add_argument("predicted")
    p.add_argument("experimental")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("msi", help="epsilon maximum slackness index of a curve")
    _add_common(p)
    p.add_argument("--curve", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.set_defaults(func=_cmd_msi)

    p = sub.add_parser("correlate", help="sibling-pair offset correlation study")
    _add_common(p)
    p.add_argument("--id-v", type=lambda s: int(s, 0), default=0x185)
    p.add_argument("--id-w", type=lambda s: int(s, 0), default=0x186)
    p.add_argument("--period", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--batches", type=int, default=10000)
    p.add_argument("--transmission-duration", type=float, default=250e-6)
    p.add_argument("--skew-ppm", type=float, default=100.0)
    p.add_argument("--jitter-std", type=float, default=25e-6)
    p.add_argument("--arb-exp-scale", type=float, default=0.0,
                   help="exponential arbitration-delay scale in seconds (0 = consecutive reception)")
    p.add_argument("--independent", action="store_true",
                   help="give w its own clock (uncorrelated baseline)")
    p.add_argument("--independent-skew-ppm", type=float, default=-80.0)
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("consistency", help="skew-estimate spread across estimator perturbations")
    _add_common(p)
    _add_rls_flag(p)
    p.add_argument("--id", dest="message_id", type=lambda s: int(s, 0), default=0x185)
    p.add_argument("--period", type=float, default=0.1)
    p.add_argument("--format", choices=["candump", "csv"], default="candump")
    p.add_argument("--batch-sizes", default="20,40,60,80,100")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_consistency)

    for command in sub.choices.values():
        command.set_defaults(_actions=command.actions_by_dest)
    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        _resolve(args, argv)
        _announce(args)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
