"""Transmitter clock model and synthesis of periodic CAN arrival timestamps.

All times are seconds in the receiver's (reference) clock. Skews are
dimensionless fractions: 100 ppm = 1.0e-4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsufficientDataError",
    "ClockSpec",
    "NoiseModel",
    "MessageSchedule",
    "Trace",
    "ppm",
    "relative_skew",
    "invert_relative_skew",
    "per_period_offset",
    "receiver_period",
    "synthesize_trace",
]

MAX_CAN_ID = 0x1FFFFFFF  # 29-bit extended frame ceiling
MAX_STD_CAN_ID = 0x7FF


class InsufficientDataError(ValueError):
    """A computation needs more samples than the trace provides."""


def ppm(value):
    """Convert a ppm figure to the dimensionless skew fraction used here."""
    return value * 1e-6


@dataclass(frozen=True)
class ClockSpec:
    """A transmitter clock: constant skew plus per-message offset jitter."""

    skew: float = 0.0
    jitter_std: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not self.skew > -1.0:
            raise ValueError(f"skew must be > -1, got {self.skew}")
        if not self.jitter_std >= 0.0:
            raise ValueError(f"jitter_std must be >= 0, got {self.jitter_std}")


@dataclass(frozen=True)
class NoiseModel:
    """Receive-path noise: network delay and receiver timestamp quantization."""

    delay_mean: float = 0.0
    delay_std: float = 0.0
    quantization_step: float = 0.0

    def __post_init__(self):
        for name in ("delay_mean", "delay_std", "quantization_step"):
            if not getattr(self, name) >= 0.0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class MessageSchedule:
    """A periodic message: id, nominal period (transmitter clock), start time."""

    message_id: int
    period: float
    start_time: float = 0.0

    def __post_init__(self):
        if not self.period > 0.0:  # NaN fails too
            raise ValueError(f"period must be > 0, got {self.period}")
        if not 0 <= self.message_id <= MAX_STD_CAN_ID:
            raise ValueError(f"message_id must be in [0, 0x7FF], got {self.message_id:#x}")


@dataclass(frozen=True, eq=False)
class Trace:
    """Timestamped message arrivals, sorted by arrival time."""

    times: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        ids = np.asarray(self.ids, dtype=np.uint32)
        if times.shape != ids.shape or times.ndim != 1:
            raise ValueError("times and ids must be 1-d arrays of equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "ids", ids)

    def __len__(self):
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.ids, other.ids)

    @classmethod
    def from_records(cls, records):
        """Build a trace from an iterable of (arrival_time, message_id)."""
        records = list(records)
        times = np.array([r[0] for r in records], dtype=np.float64)
        ids = np.array([r[1] for r in records], dtype=np.uint32)
        return cls(times=times, ids=ids)

    @property
    def records(self):
        return list(zip(self.times.tolist(), self.ids.tolist()))

    def arrivals(self, message_id):
        """Arrival times of one message id, in trace order."""
        return self.times[self.ids == message_id]

    def validate(self):
        """Check per-id strict monotonicity of arrival times."""
        for mid in np.unique(self.ids):
            a = self.times[self.ids == mid]
            if len(a) > 1 and not np.all(np.diff(a) > 0):
                raise ValueError(f"arrival times of id {int(mid):#x} are not strictly increasing")

    @classmethod
    def merge(cls, *traces):
        """Concatenate traces and stable-sort by arrival time."""
        times = np.concatenate([t.times for t in traces])
        ids = np.concatenate([t.ids for t in traces])
        order = np.argsort(times, kind="stable")
        return cls(times=times[order], ids=ids[order])


def relative_skew(skew_b, skew_a):
    """Skew of clock B relative to clock A: (S_B - S_A) / (1 + S_A)."""
    if skew_a <= -1.0:
        raise ValueError(f"reference skew must be > -1, got {skew_a}")
    return (skew_b - skew_a) / (1.0 + skew_a)


def invert_relative_skew(s_ba):
    """Relative skew seen from the other side: -S_BA / (1 + S_BA)."""
    if s_ba <= -1.0:
        raise ValueError(f"relative skew must be > -1, got {s_ba}")
    return -s_ba / (1.0 + s_ba)


def per_period_offset(period, skew):
    """Clock offset accrued per period so the observed period is T/(1+skew)."""
    return period * skew / (1.0 + skew)


def receiver_period(period, skew):
    """Mean inter-arrival time observed at the receiver."""
    return period / (1.0 + skew)


def quantize(times, step):
    """Round timestamps to the receiver's quantization grid (no-op if step 0)."""
    if step <= 0.0:
        return times
    return np.round(times / step) * step


def synthesize_trace(schedule, clock, noise, count, seed):
    """Generate ``count`` periodic arrivals under the clock/offset/noise model.

    Arrival i is start + i*T - i*O - eps_i + d_i, quantized to the receiver
    grid, with O = T*skew/(1+skew), eps_i ~ N(0, jitter_std^2) and
    d_i ~ N(delay_mean, delay_std^2). Deterministic for a fixed seed.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    rng = np.random.default_rng(seed)
    i = np.arange(count, dtype=np.float64)
    offset = per_period_offset(schedule.period, clock.skew)
    nominal = schedule.start_time + i * (schedule.period - offset)
    eps = rng.normal(0.0, clock.jitter_std, count) if clock.jitter_std > 0 else 0.0
    delay = rng.normal(noise.delay_mean, noise.delay_std, count) if noise.delay_std > 0 else noise.delay_mean
    times = quantize(nominal - eps + delay, noise.quantization_step)
    return Trace(times=times, ids=np.full(count, schedule.message_id, dtype=np.uint32))
