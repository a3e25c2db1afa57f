#!/usr/bin/env python3
"""Predicted vs experimental attack-success curves for both detector variants.

Runs a Monte Carlo delta-T sweep against a synthetic target, builds the
matching analytic prediction from a snapshot of the warmed-up detector, and
reports the area deviation error and epsilon-MSI of each pair of curves.
Writes <variant>_experimental.csv and <variant>_predicted.csv.
"""
import argparse
from pathlib import Path

import numpy as np

from canskew.clock import ClockSpec, MessageSchedule, NoiseModel, ppm
from canskew.attacks import AttackSpec, compute_delta_t0
from canskew.formal import success_curve, take_snapshot
from canskew.harness import (ExperimentConfig, SyntheticSource, ade, epsilon_msi, monte_carlo_ps,
                             synthetic_warm_state)
from canskew.ids import IdsConfig, Variant


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--period", type=float, default=0.1)
    p.add_argument("--skew-ppm", type=float, default=100.0)
    p.add_argument("--attacker-skew-ppm", type=float, default=150.0)
    p.add_argument("--jitter-std", type=float, default=25e-6)
    p.add_argument("--warmup", type=int, default=1000)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--horizon", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, default=Path("results"))
    return p.parse_args()


def grid_for(variant, period):
    # the SOTA detector tolerates far larger timing deviations than NTP,
    # so it needs a much wider sweep to resolve the curve's shoulders
    scale = period / 0.1
    if variant is Variant.SOTA:
        return np.arange(-40, 41) * 10e-6 * scale
    return np.arange(-30, 31) * 1e-7 * scale


def main():
    args = parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    schedule = MessageSchedule(0x185, args.period)
    target = ClockSpec(skew=ppm(args.skew_ppm), jitter_std=args.jitter_std)
    attacker = ClockSpec(skew=ppm(args.attacker_skew_ppm), jitter_std=args.jitter_std)
    source = SyntheticSource(schedule, target, NoiseModel())
    attack = AttackSpec(
        delta_t0=compute_delta_t0(attacker.skew, target.skew, args.period),
        start_batch=args.warmup + 1, attack_batches=args.horizon,
        attacker_clock=attacker, attacker_noise=NoiseModel(),
    )

    for variant in Variant:
        cfg = ExperimentConfig(ids=IdsConfig(variant=variant), warmup_batches=args.warmup,
                               trials=args.trials, horizon=args.horizon,
                               grid=grid_for(variant, args.period), seed=args.seed)
        experimental = monte_carlo_ps(source, attack, cfg)

        # freeze the same warmup the sweep used, then predict analytically
        snapshot = take_snapshot(None, synthetic_warm_state(source, cfg), args.warmup + 1)
        predicted = success_curve(snapshot, cfg.grid, horizon=args.horizon)

        for label, curve in (("experimental", experimental), ("predicted", predicted)):
            path = args.out_dir / f"{variant.value}_{label}.csv"
            path.write_text(curve.to_csv())
            print(f"wrote {path}")
        print(f"{variant.value}: ADE = {ade(predicted, experimental):.2f}%, "
              f"0.05-MSI = {epsilon_msi(experimental, 0.05) * 1e6:.2f} us")


if __name__ == "__main__":
    main()
