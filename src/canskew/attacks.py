"""Masquerade and cloaking attack trace generation."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clock import (
    ClockSpec,
    NoiseModel,
    Trace,
    quantize,
    receiver_period,
    synthesize_trace,
)

__all__ = [
    "AttackSpec",
    "compute_delta_t0",
    "cloaked_trace",
    "attack_arrivals",
    "attacker_period",
]


@dataclass(frozen=True)
class AttackSpec:
    """Parameters of a cloaking/masquerade attack.

    delta_t0 is the skew-matching extra inter-transmission delay; delta_t the
    residual deviation from it; mistiming perturbs only the gap before the
    first attack message. start_batch counts batches of the consuming IDS
    (batch 0 is its initialization batch), so the attack begins after
    start_batch * N normal messages.
    """

    delta_t0: float
    delta_t: float = 0.0
    mistiming: float = 0.0
    start_batch: int = 1
    attack_batches: int = 1
    attacker_clock: ClockSpec = field(default_factory=ClockSpec)
    attacker_noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if self.start_batch < 1:
            raise ValueError("start_batch must be >= 1")
        if self.attack_batches < 1:
            raise ValueError("attack_batches must be >= 1")


def compute_delta_t0(skew_a, skew_b, period):
    """Extra inter-transmission delay that makes attacker A's stream look
    like target B's: ((S_A - S_B) / (1 + S_B)) * T."""
    if skew_b <= -1.0:
        raise ValueError(f"target skew must be > -1, got {skew_b}")
    return (skew_a - skew_b) / (1.0 + skew_b) * period


def attacker_period(period, delta_t0, delta_t):
    """The attacker's nominal period T + delta_t0 + delta_t, refused unless
    > 0: at a smaller delta-T the spoofed stream would run backwards in time."""
    attack_period = period + delta_t0 + delta_t
    if not attack_period > 0.0:
        raise ValueError(f"delta_t = {delta_t} gives the attacker a period T + delta_t0 + delta_t = "
                         f"{attack_period} s; it must be > 0")
    return attack_period


def attack_arrivals(spec, schedule, target_clock, target_delay_mean, normal_count, batch_size, rng):
    """Receiver-time arrivals of the spoofed stream following the normal part."""
    mu = receiver_period(schedule.period, target_clock.skew)
    # next expected arrival instant of the suppressed target message
    anchor = schedule.start_time + (normal_count - 1) * mu + target_delay_mean
    noise = spec.attacker_noise
    # center so the mean boundary gap is exactly mu + delta_t + mistiming
    base = anchor + mu + spec.delta_t + spec.mistiming - noise.delay_mean
    mu_attack = attacker_period(schedule.period, spec.delta_t0, spec.delta_t) / (1.0 + spec.attacker_clock.skew)
    count = spec.attack_batches * batch_size
    j = np.arange(count, dtype=np.float64)
    nominal = base + j * mu_attack
    eps = rng.normal(0.0, spec.attacker_clock.jitter_std, count) if spec.attacker_clock.jitter_std > 0 else 0.0
    delay = rng.normal(noise.delay_mean, noise.delay_std, count) if noise.delay_std > 0 else noise.delay_mean
    return quantize(nominal - eps + delay, noise.quantization_step)


def cloaked_trace(spec, schedule, target_clock, target_noise, normal_count, batch_size, seed):
    """Normal stream from the target's clock followed by the cloaked spoofed
    stream; the boundary gap is mu + delta_t + mistiming."""
    if normal_count < spec.start_batch * batch_size:
        raise ValueError(f"normal_count must be >= start_batch * batch_size = {spec.start_batch * batch_size}")
    rng = np.random.default_rng(seed)
    normal_seed, attack_seed = rng.integers(0, 2**63, size=2)
    normal = synthesize_trace(schedule, target_clock, target_noise, normal_count, int(normal_seed))
    attack = attack_arrivals(spec, schedule, target_clock, target_noise.delay_mean, normal_count, batch_size,
                             np.random.default_rng(int(attack_seed)))
    times = np.concatenate([normal.times, attack])
    ids = np.concatenate([normal.ids, np.full(len(attack), schedule.message_id, dtype=np.uint32)])
    return Trace(times=times, ids=ids)
