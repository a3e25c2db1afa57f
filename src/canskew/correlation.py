"""Sibling-message correlation detector and the reactive cloaking attack.

Two periodic messages from the same ECU ("siblings") share per-batch average
offsets, so their series correlate strongly; a spoofed stream from another ECU
does not. An attacker that transmits right after each sibling reception
inherits the sibling's offsets and defeats the check.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .clock import InsufficientDataError, MessageSchedule, NoiseModel, Trace, synthesize_trace

__all__ = [
    "CorrelationScenario",
    "PairCorrelation",
    "avg_offset_series",
    "pearson",
    "predicted_rho",
    "simulate_sibling_pair",
    "sibling_cloak_trace",
    "correlate_pair",
    "correlation_verdict",
]

DEFAULT_DROP_THRESHOLD = 0.3


@dataclass(frozen=True)
class CorrelationScenario:
    """A sibling pair: v and w queued back to back on the same ECU.

    ``arbitration_delay_dist`` is a callable (rng, size) -> nonnegative delays
    added to w's arrivals, or None for consecutive reception.
    """

    id_v: int
    id_w: int
    transmission_duration: float
    arbitration_delay_dist: object = None
    batch_size: int = 20
    period: float = 0.1

    def __post_init__(self):
        # written so that NaN fails each check
        if not self.transmission_duration > 0.0:
            raise ValueError(f"transmission_duration must be > 0, got {self.transmission_duration}")
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be finite and > 0, got {self.period}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.id_v == self.id_w:
            raise ValueError("sibling ids must differ")


@dataclass(frozen=True)
class PairCorrelation:
    o_avg_v: np.ndarray
    o_avg_w: np.ndarray
    rho: float

    def __post_init__(self):
        v = np.asarray(self.o_avg_v, dtype=np.float64)
        w = np.asarray(self.o_avg_w, dtype=np.float64)
        if v.shape != w.shape or v.ndim != 1 or len(v) < 2:
            raise ValueError("offset series must be 1-d, equal length >= 2")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [-1, 1], got {self.rho}")
        object.__setattr__(self, "o_avg_v", v)
        object.__setattr__(self, "o_avg_w", w)

    def to_csv(self):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["batch", "o_avg_v", "o_avg_w"])
        for k, (a, b) in enumerate(zip(self.o_avg_v, self.o_avg_w)):
            writer.writerow([k, f"{a:.12g}", f"{b:.12g}"])
        writer.writerow(["rho", f"{self.rho:.12g}", ""])
        return buf.getvalue()


def avg_offset_series(trace, message_id, batch_size, period):
    """Per-batch average offsets O_avg[k] = T - (a_{k,N} - a_{k,0})/N, with
    each batch anchored at the previous batch's last arrival."""
    a = trace.arrivals(message_id)
    n = batch_size
    if len(a) < 2 * n:
        raise InsufficientDataError(f"need >= {2 * n} messages of id {message_id:#x}, got {len(a)}")
    batches = (len(a) - 1) // n
    ends = a[np.arange(batches + 1) * n]
    return period - np.diff(ends) / n


def pearson(x, y):
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("series must be 1-d, equal length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("pearson is undefined for a zero-variance series")
    return float(np.clip(np.dot(dx, dy) / (sx * sy), -1.0, 1.0))


def predicted_rho(var_o, var_d):
    """Model correlation sqrt(Var(O) / (Var(O) + Var(D))) between a series
    and the same series plus independent batch-level arbitration noise."""
    if var_o <= 0.0:
        raise ValueError("var_o must be > 0")
    if var_d < 0.0:
        raise ValueError("var_d must be >= 0")
    return math.sqrt(var_o / (var_o + var_d))


def simulate_sibling_pair(scenario, source_clock, batches, seed, independent_clock=None):
    """Synthesize (trace_v, trace_w) for a sibling pair.

    w arrives at v + transmission_duration + arbitration draw. With
    ``independent_clock`` set, w instead comes from its own clock on a
    separate ECU (the uncorrelated baseline).
    """
    if batches < 2:
        raise ValueError("batches must be >= 2")
    count = batches * scenario.batch_size + 1
    rng = np.random.default_rng(seed)
    seed_v, seed_w = (int(s) for s in rng.integers(0, 2**63, size=2))
    schedule_v = MessageSchedule(scenario.id_v, scenario.period)
    trace_v = synthesize_trace(schedule_v, source_clock, NoiseModel(), count, seed_v)
    if independent_clock is not None:
        schedule_w = MessageSchedule(scenario.id_w, scenario.period,
                                     start_time=scenario.transmission_duration)
        trace_w = synthesize_trace(schedule_w, independent_clock, NoiseModel(), count, seed_w)
        return trace_v, trace_w
    w_times = trace_v.times + scenario.transmission_duration
    if scenario.arbitration_delay_dist is not None:
        arb = np.asarray(scenario.arbitration_delay_dist(rng, count), dtype=np.float64)
        if np.any(arb < 0):
            raise ValueError("arbitration delays must be >= 0")
        w_times = w_times + arb
    trace_w = Trace(times=w_times, ids=np.full(count, scenario.id_w, dtype=np.uint32))
    return trace_v, trace_w


def sibling_cloak_trace(sibling_trace, sibling_id, spoofed_id,
                        transmission_duration, reaction_delay=0.0,
                        jitter_std=0.0, seed=0):
    """Spoofed stream transmitted reactively after each observed sibling
    arrival; it inherits the sibling's per-batch offsets and clock skew."""
    a = sibling_trace.arrivals(sibling_id)
    if len(a) == 0:
        raise InsufficientDataError(f"no messages of id {sibling_id:#x} in trace")
    offsets = transmission_duration + reaction_delay
    if jitter_std > 0.0:
        rng = np.random.default_rng(seed)
        offsets = offsets + rng.normal(0.0, jitter_std, len(a))
    spoofed = Trace(times=a + offsets, ids=np.full(len(a), spoofed_id, dtype=np.uint32))
    return Trace.merge(sibling_trace, spoofed)


def correlate_pair(trace_v, trace_w, scenario):
    """Convenience: offset series for both ids plus their correlation."""
    v = avg_offset_series(trace_v, scenario.id_v, scenario.batch_size, scenario.period)
    w = avg_offset_series(trace_w, scenario.id_w, scenario.batch_size, scenario.period)
    k = min(len(v), len(w))
    return PairCorrelation(o_avg_v=v[:k], o_avg_w=w[:k], rho=pearson(v[:k], w[:k]))


def correlation_verdict(rho_reference, rho_observed, drop_threshold=DEFAULT_DROP_THRESHOLD):
    """Alarm when the observed correlation drops below the reference by more
    than the threshold."""
    for name, value in (("rho_reference", rho_reference), ("rho_observed", rho_observed)):
        if not -1.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [-1, 1], got {value}")
    return rho_reference - rho_observed > drop_threshold
