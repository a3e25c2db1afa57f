"""Clock-skew intrusion detectors: batch offset estimation, RLS skew
tracking, and CUSUM change detection, in two variants (SOTA and NTP-based).
"""
from __future__ import annotations

import copy
import csv
import io
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .clock import InsufficientDataError

__all__ = [
    "Variant",
    "IdsConfig",
    "RlsState",
    "CusumState",
    "IdsState",
    "DetectionReport",
    "sota_avg_offset",
    "ntp_avg_offset",
    "accumulate_offset",
    "rls_update",
    "cusum_step",
    "init_state",
    "process_batch",
    "IdsStreams",
    "run_ids",
]

RLS_INITIAL_P = 1e6  # large prior variance: first update snaps to the data
CUSUM_BOOTSTRAP_BATCHES = 50
REFERENCE_CAP = 10_000
# floor for sigma_cusum: sub-picosecond spread means a noiseless trace, where
# the only variation is float rounding and must not be amplified into alarms
_SIGMA_FLOOR = 1e-12


class Variant(str, Enum):
    SOTA = "sota"
    NTP = "ntp"


@dataclass(frozen=True)
class IdsConfig:
    variant: Variant
    batch_size: int = 20
    rls_lambda: float = 0.9995
    update_threshold: float = 4.0     # gamma
    detection_threshold: float = 5.0  # Gamma
    sensitivity: float = 8.0          # kappa

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 < self.rls_lambda <= 1.0:
            raise ValueError("rls_lambda must be in (0, 1]")
        if self.update_threshold <= 0.0:
            raise ValueError("update_threshold must be > 0")
        if self.detection_threshold <= 0.0:
            raise ValueError("detection_threshold must be > 0")
        if self.sensitivity < 0.0:
            raise ValueError("sensitivity must be >= 0")


@dataclass
class RlsState:
    skew: float = 0.0
    gain_denominator: float = RLS_INITIAL_P  # inverse-covariance scalar P

    def __post_init__(self):
        if self.gain_denominator <= 0.0:
            raise ValueError("gain_denominator must be > 0")


@dataclass
class CusumState:
    """Reference-error statistics plus the two control limits.

    The reference set is a FIFO capped at REFERENCE_CAP; mean/std are kept
    as running sums so a full recompute per update stays O(1).
    """

    mu_cusum: float = 0.0
    sigma_cusum: float = 0.0
    reference_errors: deque = field(default_factory=lambda: deque(maxlen=REFERENCE_CAP))
    l_plus: float = 0.0
    l_minus: float = 0.0
    alarmed: bool = False
    _sum: float = 0.0
    _sumsq: float = 0.0

    @property
    def ready(self):
        return len(self.reference_errors) >= 2

    def add_reference(self, e):
        if len(self.reference_errors) == REFERENCE_CAP:
            old = self.reference_errors[0]
            self._sum -= old
            self._sumsq -= old * old
        self.reference_errors.append(e)
        self._sum += e
        self._sumsq += e * e
        n = len(self.reference_errors)
        self.mu_cusum = self._sum / n
        if n >= 2:
            var = max(0.0, (self._sumsq - n * self.mu_cusum**2) / (n - 1))
            self.sigma_cusum = math.sqrt(var)

    def normalize(self, e):
        return (e - self.mu_cusum) / max(self.sigma_cusum, _SIGMA_FLOOR)


@dataclass
class IdsState:
    """Sequential per-message-id detector state, advanced one batch at a time."""

    config: IdsConfig
    period: float | None = None       # nominal period T (required for NTP)
    batch_index: int = 0
    prev_batch_mean: float = 0.0      # mu[k-1], SOTA offset estimator
    prev_last_arrival: float = 0.0    # a_{k-1,N}
    t_origin: float = 0.0             # last arrival of batch 0
    o_acc: float = 0.0
    elapsed: float = 0.0
    rls: RlsState = field(default_factory=RlsState)
    cusum: CusumState = field(default_factory=CusumState)
    bootstrap_batches: int = CUSUM_BOOTSTRAP_BATCHES
    _bootstrap_errors: list = field(default_factory=list)
    # pre-attack history and inter-arrival stats, consumed by formal snapshots
    o_acc_history: list = field(default_factory=list)
    t_history: list = field(default_factory=list)
    _ia_count: int = 0
    _ia_sum: float = 0.0
    _ia_sumsq: float = 0.0

    def observe_inter_arrivals(self, diffs):
        self._ia_count += len(diffs)
        self._ia_sum += float(np.sum(diffs))
        self._ia_sumsq += float(np.sum(np.square(diffs)))

    def inter_arrival_stats(self):
        n = self._ia_count
        if n < 2:
            raise InsufficientDataError("fewer than 2 inter-arrivals observed")
        mean = self._ia_sum / n
        var = max(0.0, (self._ia_sumsq - n * mean * mean) / (n - 1))
        return mean, math.sqrt(var)


@dataclass
class ReportRow:
    batch: int
    o_avg: float
    o_acc: float
    t: float
    skew: float
    e: float
    e_n: float
    l_plus: float
    l_minus: float
    alarm: bool


@dataclass
class DetectionReport:
    rows: list
    first_alarm_batch: int | None = None
    final_state: IdsState | None = None

    CSV_COLUMNS = ("batch", "o_avg", "o_acc", "t", "skew", "e", "e_n", "l_plus", "l_minus", "alarm")

    def to_csv(self):
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.batch,
                f"{r.o_avg:.12g}",
                f"{r.o_acc:.12g}",
                f"{r.t:.12g}",
                f"{r.skew:.12g}",
                f"{r.e:.12g}",
                "" if math.isnan(r.e_n) else f"{r.e_n:.12g}",
                f"{r.l_plus:.12g}",
                f"{r.l_minus:.12g}",
                int(r.alarm),
            ])
        return buf.getvalue()


def sota_avg_offset(batch_arrivals, prev_mean):
    """Average offset of a batch against expected spacing prev_mean (SOTA)."""
    a = np.asarray(batch_arrivals, dtype=np.float64)
    n = len(a)
    if n < 2:
        raise ValueError("batch must contain at least 2 arrivals")
    i = np.arange(1, n)
    return float(np.mean(a[1:] - (a[0] + i * prev_mean)))


def ntp_avg_offset(batch_arrivals, period):
    """Average per-period offset of a batch (NTP variant).

    ``batch_arrivals`` holds N+1 timestamps: the last arrival of the previous
    batch followed by the N arrivals of this batch.
    """
    a = np.asarray(batch_arrivals, dtype=np.float64)
    if len(a) < 2:
        raise ValueError("need the previous-batch anchor plus >= 1 arrival")
    n = len(a) - 1
    return float(period - (a[-1] - a[0]) / n)


def accumulate_offset(state, o_avg):
    """Fold a batch's average offset into the running accumulated offset."""
    if state.config.variant is Variant.SOTA:
        state.o_acc += abs(o_avg)
    else:
        state.o_acc += state.config.batch_size * o_avg
    return state.o_acc


def rls_update(rls, t_k, o_acc_k, lam):
    """One scalar exponentially-weighted RLS step for the model O_acc = S*t."""
    if t_k <= 0.0:
        raise ValueError("elapsed time must be > 0")
    p = rls.gain_denominator
    gain = p * t_k / (lam + t_k * t_k * p)
    skew = rls.skew + gain * (o_acc_k - rls.skew * t_k)
    p = (p - gain * t_k * p) / lam
    return RlsState(skew=skew, gain_denominator=p)


def cusum_step(cusum, e_k, gamma, big_gamma, kappa):
    """Advance the CUSUM limits with one identification error (in place)."""
    if not cusum.ready:
        raise ValueError("CUSUM reference statistics are uninitialized")
    e_n = cusum.normalize(e_k)
    cusum.l_plus = max(0.0, cusum.l_plus + e_n - kappa)
    cusum.l_minus = max(0.0, cusum.l_minus - e_n - kappa)
    if abs(e_n) < gamma:
        cusum.add_reference(e_k)
    cusum.alarmed = max(cusum.l_plus, cusum.l_minus) > big_gamma
    return cusum


def init_state(config, init_batch, period=None):
    """Seed detector state from the initialization batch (batch 0)."""
    a = np.asarray(init_batch, dtype=np.float64)
    if len(a) != config.batch_size:
        raise ValueError("initialization batch must contain exactly N arrivals")
    if config.variant is Variant.NTP and period is None:
        raise ValueError("the NTP variant requires the nominal period")
    state = IdsState(config=config, period=period)
    state.prev_batch_mean = float(a[-1] - a[0]) / (len(a) - 1)
    state.prev_last_arrival = float(a[-1])
    state.t_origin = float(a[-1])
    state.observe_inter_arrivals(np.diff(a))
    return state


def process_batch(state, batch_arrivals, armed=True):
    """Process one batch of N arrivals and return the per-batch report row."""
    cfg = state.config
    n = cfg.batch_size
    a = np.asarray(batch_arrivals, dtype=np.float64)
    if len(a) != n:
        raise ValueError(f"expected a batch of {n} arrivals, got {len(a)}")
    last = float(a[-1])

    if cfg.variant is Variant.SOTA:
        o_avg = sota_avg_offset(a, state.prev_batch_mean)
    else:
        o_avg = state.period - (last - state.prev_last_arrival) / n
    accumulate_offset(state, o_avg)
    t_k = last - state.t_origin
    e = state.o_acc - state.rls.skew * t_k

    cusum = state.cusum
    alarm = False
    if cusum.ready:
        e_n = cusum.normalize(e)
        cusum.l_plus = max(0.0, cusum.l_plus + e_n - cfg.sensitivity)
        cusum.l_minus = max(0.0, cusum.l_minus - e_n - cfg.sensitivity)
        if abs(e_n) < cfg.update_threshold:
            cusum.add_reference(e)
        if armed:
            alarm = max(cusum.l_plus, cusum.l_minus) > cfg.detection_threshold
            cusum.alarmed = cusum.alarmed or alarm
    else:
        e_n = float("nan")
        state._bootstrap_errors.append(e)
        # seed references after the bootstrap window, or immediately once
        # armed (short-warmup runs must still get a usable sigma)
        if len(state._bootstrap_errors) >= state.bootstrap_batches or (armed and len(state._bootstrap_errors) >= 2):
            for err in state._bootstrap_errors:
                cusum.add_reference(err)
            state._bootstrap_errors.clear()

    state.rls = rls_update(state.rls, t_k, state.o_acc, cfg.rls_lambda)

    state.batch_index += 1
    # batch mean includes the inter-batch boundary gap
    state.prev_batch_mean = (last - state.prev_last_arrival) / n
    diffs = np.diff(a, prepend=state.prev_last_arrival)
    state.observe_inter_arrivals(diffs)
    state.prev_last_arrival = last
    state.elapsed = t_k
    state.o_acc_history.append(state.o_acc)
    state.t_history.append(t_k)

    return ReportRow(
        batch=state.batch_index,
        o_avg=o_avg,
        o_acc=state.o_acc,
        t=t_k,
        skew=state.rls.skew,
        e=e,
        e_n=e_n,
        l_plus=cusum.l_plus,
        l_minus=cusum.l_minus,
        alarm=alarm,
    )


def _pow2(x):
    """x**2 per element as Python floats compute it: through libm pow, which
    rounds differently from x * x in about one case in a thousand."""
    return np.array([v**2 for v in x.tolist()], dtype=np.float64)


class IdsStreams:
    """Armed detector state of S independent streams, one array entry per
    stream, advanced together one batch per ``step``.

    Stream s branches from ``bases[base_index[s]]``, an ``IdsState`` after its
    unarmed warmup; the bases are read, not kept or changed. Every entry goes
    through the operations of ``process_batch`` on a copy of its base in the
    same order, so a stream alarms at exactly the batch where that copy
    would. Only what the armed step reads is held: the reference FIFO is its
    count and running sums (mu/sigma follow from them), plus each base's own
    references, which are the first evicted once the FIFO is full.
    """

    _PER_STREAM = ("base", "evicted", "t_origin", "prev_batch_mean", "prev_last_arrival", "o_acc",
                   "skew", "gain_denominator", "l_plus", "l_minus", "ref_count", "ref_sum", "ref_sumsq")

    def __init__(self, bases, base_index):
        first = bases[0]
        if any(b.config != first.config or b.period != first.period for b in bases):
            raise ValueError("base states must share one detector config and period")
        if len({b.cusum.ready for b in bases}) > 1:
            raise ValueError("base states must all have reference statistics, or all lack them")
        self.config = first.config
        self.period = first.period
        # an unready base seeds its references from its bootstrap errors plus
        # the first armed error; fold the shared part in now
        self._bootstrapping = not first.cusum.ready
        cusums = []
        for b in bases:
            cusum = b.cusum
            if self._bootstrapping:
                if not b._bootstrap_errors:
                    raise ValueError("base state has processed no batch")
                cusum = copy.deepcopy(cusum)
                for err in b._bootstrap_errors:
                    cusum.add_reference(err)
            cusums.append(cusum)
        self._base_refs = np.full((len(bases), max(len(c.reference_errors) for c in cusums)), np.nan)
        for row, c in zip(self._base_refs, cusums):
            row[: len(c.reference_errors)] = c.reference_errors
        self._base_len = np.array([len(c.reference_errors) for c in cusums])

        self.base = np.asarray(base_index, dtype=np.intp)

        def per_stream(values, dtype=np.float64):
            return np.array(values, dtype=dtype)[self.base]

        self.evicted = np.zeros(len(self.base), dtype=np.int64)
        self.t_origin = per_stream([b.t_origin for b in bases])
        self.prev_batch_mean = per_stream([b.prev_batch_mean for b in bases])
        self.prev_last_arrival = per_stream([b.prev_last_arrival for b in bases])
        self.o_acc = per_stream([b.o_acc for b in bases])
        self.skew = per_stream([b.rls.skew for b in bases])
        self.gain_denominator = per_stream([b.rls.gain_denominator for b in bases])
        self.l_plus = per_stream([c.l_plus for c in cusums])
        self.l_minus = per_stream([c.l_minus for c in cusums])
        self.ref_count = per_stream([len(c.reference_errors) for c in cusums], np.int64)
        self.ref_sum = per_stream([c._sum for c in cusums])
        self.ref_sumsq = per_stream([c._sumsq for c in cusums])

    def __len__(self):
        return len(self.base)

    @property
    def mu_cusum(self):
        return self.ref_sum / self.ref_count

    @property
    def sigma_cusum(self):
        n = self.ref_count
        return np.sqrt(np.maximum(0.0, (self.ref_sumsq - n * _pow2(self.mu_cusum)) / (n - 1)))

    def keep(self, mask):
        """Drop every stream where ``mask`` is False."""
        for name in self._PER_STREAM:
            setattr(self, name, getattr(self, name)[mask])

    def step(self, batches):
        """Advance every stream by one armed batch; row s of ``batches`` holds
        stream s's N arrivals. Returns the per-stream alarm mask."""
        cfg = self.config
        n = cfg.batch_size
        a = np.asarray(batches, dtype=np.float64)
        if a.shape != (len(self), n):
            raise ValueError(f"expected batches of shape ({len(self)}, {n}), got {a.shape}")
        last = a[:, -1].copy()  # kept as prev_last_arrival: no view into the caller's array

        if cfg.variant is Variant.SOTA:
            # in place, as a[1:] - (a[0] + i * prev_mean) per row: one (S, N-1) temporary
            offsets = np.arange(1, n) * self.prev_batch_mean[:, None]
            offsets += a[:, :1]
            o_avg = np.mean(np.subtract(a[:, 1:], offsets, out=offsets), axis=1)
            self.o_acc = self.o_acc + np.abs(o_avg)
        else:
            o_avg = self.period - (last - self.prev_last_arrival) / n
            self.o_acc = self.o_acc + n * o_avg
        t_k = last - self.t_origin
        if np.any(t_k <= 0.0):
            raise ValueError("elapsed time must be > 0")
        e = self.o_acc - self.skew * t_k

        if self._bootstrapping:
            alarm = np.zeros(len(self), dtype=bool)
            add = np.ones(len(self), dtype=bool)
            self._bootstrapping = False
        else:
            e_n = (e - self.mu_cusum) / np.maximum(self.sigma_cusum, _SIGMA_FLOOR)
            self.l_plus = np.maximum(0.0, self.l_plus + e_n - cfg.sensitivity)
            self.l_minus = np.maximum(0.0, self.l_minus - e_n - cfg.sensitivity)
            add = np.abs(e_n) < cfg.update_threshold
            alarm = np.maximum(self.l_plus, self.l_minus) > cfg.detection_threshold
        self._add_references(add, e)

        p = self.gain_denominator
        gain = p * t_k / (cfg.rls_lambda + t_k * t_k * p)
        self.skew = self.skew + gain * (self.o_acc - self.skew * t_k)
        self.gain_denominator = (p - gain * t_k * p) / cfg.rls_lambda

        self.prev_batch_mean = (last - self.prev_last_arrival) / n
        self.prev_last_arrival = last
        return alarm

    def _add_references(self, add, e):
        """``CusumState.add_reference(e)`` on the streams where ``add`` holds."""
        full = add & (self.ref_count == REFERENCE_CAP)
        if full.any():
            base, index = self.base[full], self.evicted[full]
            if np.any(index >= self._base_len[base]):
                raise ValueError(f"a stream outlived its base's references ({REFERENCE_CAP} batches)")
            old = self._base_refs[base, index]
            self.ref_sum[full] -= old
            self.ref_sumsq[full] -= old * old
            self.evicted[full] += 1
        self.ref_sum = np.where(add, self.ref_sum + e, self.ref_sum)
        self.ref_sumsq = np.where(add, self.ref_sumsq + e * e, self.ref_sumsq)
        self.ref_count = self.ref_count + (add & ~full)


def batch_arrivals(trace, message_id, batch_size):
    """Arrivals of one id grouped into consecutive full batches (trailing
    partial batch discarded)."""
    a = trace.arrivals(message_id)
    k = len(a) // batch_size
    if k < 1:
        raise InsufficientDataError(
            f"id {message_id:#x} has {len(a)} messages, fewer than one batch of {batch_size}"
        )
    return a[: k * batch_size].reshape(k, batch_size)


def run_ids(trace, message_id, config, warmup_batches, period=None):
    """Run a detector over one message stream.

    Batch 0 bootstraps the state; batches 1..warmup_batches establish the
    reference statistics and RLS estimate with alarms suppressed; alarms are
    armed from batch warmup_batches + 1 on.
    """
    batches = batch_arrivals(trace, message_id, config.batch_size)
    if len(batches) < warmup_batches + 1:
        raise InsufficientDataError(
            f"trace supplies {len(batches)} batches, need > {warmup_batches} for warmup"
        )
    state = init_state(config, batches[0], period=period)
    rows = []
    first_alarm = None
    for k in range(1, len(batches)):
        row = process_batch(state, batches[k], armed=k > warmup_batches)
        rows.append(row)
        if row.alarm and first_alarm is None:
            first_alarm = row.batch
    return DetectionReport(rows=rows, first_alarm_batch=first_alarm, final_state=state)
