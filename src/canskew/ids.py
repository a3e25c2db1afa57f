"""Clock-skew intrusion detectors: batch offset estimation, RLS skew
tracking, and CUSUM change detection, in two variants (SOTA and NTP-based).
"""
from __future__ import annotations

import copy
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
    "arrival_columns",
    "arrival_stage",
    "rls_stage",
    "cusum_stage",
    "detect",
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
    # lambda-weighted sums of O_acc * t and t * t; the NTP forecast starts from them
    ot_sum: float = 0.0
    tt_sum: float = 0.0

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


@dataclass
class IdsState:
    """Per-message-id detector state after batch ``batch_index``."""

    config: IdsConfig
    period: float | None = None       # nominal period T (required for NTP)
    batch_index: int = 0
    prev_batch_mean: float = 0.0      # mu[k-1], SOTA offset estimator
    prev_last_arrival: float = 0.0    # a_{k-1,N}
    t_origin: float = 0.0             # last arrival of batch 0
    o_acc: float = 0.0
    rls: RlsState = field(default_factory=RlsState)
    cusum: CusumState = field(default_factory=CusumState)
    _bootstrap_errors: list = field(default_factory=list)
    # inter-arrival sums, read by formal snapshots
    _ia_count: int = 0
    _ia_sum: float = 0.0
    _ia_sumsq: float = 0.0

    @property
    def elapsed(self):  # t of batch batch_index
        return self.prev_last_arrival - self.t_origin

    def inter_arrival_stats(self):
        n = self._ia_count
        if n < 2:
            raise InsufficientDataError("fewer than 2 inter-arrivals observed")
        mean = self._ia_sum / n
        var = max(0.0, (self._ia_sumsq - n * mean * mean) / (n - 1))
        return mean, math.sqrt(var)


@dataclass
class DetectionReport:
    """Per-batch columns of one detector pass over batches 1..K (batch 0
    initializes the state), the first armed alarm, and the state after
    batch K. ``skew`` is the RLS estimate after each batch's update; ``e_n``
    is NaN while the reference set is still bootstrapping."""

    o_avg: np.ndarray
    o_acc: np.ndarray
    t: np.ndarray
    skew: np.ndarray
    e: np.ndarray
    e_n: np.ndarray
    l_plus: np.ndarray
    l_minus: np.ndarray
    alarm: np.ndarray
    first_alarm_batch: int | None
    final_state: IdsState

    CSV_COLUMNS = ("batch", "o_avg", "o_acc", "t", "skew", "e", "e_n", "l_plus", "l_minus", "alarm")

    def __len__(self):
        return len(self.alarm)

    @property
    def batch(self):
        return np.arange(1, len(self) + 1)

    def to_csv(self):
        """One row per batch; floats as %.12g, a NaN e_n as an empty cell."""
        g = "%.12g".__mod__
        cols = [map(str, self.batch.tolist())]
        cols += [map(g, getattr(self, name).tolist()) for name in ("o_avg", "o_acc", "t", "skew", "e")]
        e_n = list(map(g, self.e_n.tolist()))
        for k in np.flatnonzero(np.isnan(self.e_n)).tolist():
            e_n[k] = ""
        cols += [e_n, map(g, self.l_plus.tolist()), map(g, self.l_minus.tolist()),
                 map(str, self.alarm.astype(int).tolist())]
        rows = map(",".join, zip(*cols))
        return "\n".join([",".join(self.CSV_COLUMNS), *rows, ""])


def arrival_columns(batches, config, period=None):
    """The arrival columns of the detector pass over a (K+1, N) array whose
    row 0 is the initialization batch: mu, the mean spacing of batches 0..K
    (batch 0's own, then each batch's including the boundary gap into it);
    o_avg of batches 1..K; and O_acc and t of batches 0..K (both 0 at batch
    0). The SOTA offsets are row means over one (K, N-1) block and O_acc a
    cumulative sum, which adds in batch order as a running total does.
    """
    a = np.asarray(batches, dtype=np.float64)
    n = config.batch_size
    if a.ndim != 2 or a.shape[1] != n or len(a) < 1:
        raise ValueError(f"expected an initialization batch plus batches of {n} arrivals, got shape {a.shape}")
    if config.variant is Variant.NTP and (period is None or not period > 0.0):
        raise ValueError(f"the NTP variant requires a nominal period > 0, got {period}")
    last = a[:, -1]
    means = np.concatenate(([(a[0, -1] - a[0, 0]) / (n - 1)], np.diff(last) / n))
    if config.variant is Variant.SOTA:
        # a[1:] - (a[0] + i * mu[k-1]) per row, with mu[k-1] the previous batch's mean
        offsets = np.arange(1, n) * means[:-1, None]
        offsets += a[1:, :1]
        o_avg = np.mean(np.subtract(a[1:, 1:], offsets, out=offsets), axis=1)
        o_acc = np.cumsum(np.concatenate(([0.0], np.abs(o_avg))))
    else:
        o_avg = period - means[1:]
        o_acc = np.cumsum(np.concatenate(([0.0], n * o_avg)))
    return means, o_avg, o_acc, last - last[0]


def arrival_stage(batches, config, period=None):
    """Stage 1 of the detector pass: everything that depends only on the
    arrivals, for a (K+1, N) array whose row 0 is the initialization batch.

    Returns the state after batch K with its arrival fields set (RLS and
    CUSUM still at their priors) and the columns o_avg, O_acc and t of
    batches 1..K (see ``arrival_columns``).
    """
    means, o_avg, o_acc, t = arrival_columns(batches, config, period)
    a = np.asarray(batches, dtype=np.float64)
    n = config.batch_size
    # inter-arrival sums: batch 0's N-1 gaps, then each batch's N gaps (the
    # first crosses the batch boundary), summed per batch, then in batch order
    gaps = np.diff(a.ravel())
    head, rows = gaps[: n - 1], gaps[n - 1:].reshape(-1, n)
    ia_sum = np.cumsum(np.append(np.sum(head), np.sum(rows, axis=1)))[-1]
    ia_sumsq = np.cumsum(np.append(np.sum(np.square(head)), np.sum(np.square(rows), axis=1)))[-1]
    state = IdsState(
        config=config,
        period=period,
        batch_index=len(a) - 1,
        prev_batch_mean=float(means[-1]),
        prev_last_arrival=float(a[-1, -1]),
        t_origin=float(a[0, -1]),
        o_acc=float(o_acc[-1]),
        _ia_count=len(gaps),
        _ia_sum=float(ia_sum),
        _ia_sumsq=float(ia_sumsq),
    )
    return state, o_avg, o_acc[1:], t[1:]


def rls_stage(t, o_acc, lam):
    """Stage 2: the scalar exponentially weighted RLS fit of O_acc = S * t,
    batch by batch from the prior (skew 0, P = RLS_INITIAL_P), which also
    keeps the lambda-weighted sums of O_acc * t and t * t. It reads no CUSUM
    state. Returns the K+1 skews (entry k is the estimate after batch k,
    entry 0 the prior) and the final ``RlsState``."""
    t = np.asarray(t, dtype=np.float64)
    o_acc = np.asarray(o_acc, dtype=np.float64)
    if t.shape != o_acc.shape:
        raise ValueError(f"t and O_acc differ in length: {t.size} and {o_acc.size}")
    if np.any(t <= 0.0):
        raise ValueError("elapsed time must be > 0")
    skew, p, ot, tt = 0.0, RLS_INITIAL_P, 0.0, 0.0
    skews = [skew]
    for t_k, y in zip(t.tolist(), o_acc.tolist()):
        gain = p * t_k / (lam + t_k * t_k * p)
        skew = skew + gain * (y - skew * t_k)
        p = (p - gain * t_k * p) / lam
        ot = lam * ot + y * t_k
        tt = lam * tt + t_k * t_k
        skews.append(skew)
    return np.array(skews), RlsState(skew=skew, gain_denominator=p, ot_sum=ot, tt_sum=tt)


def cusum_stage(cusum, bootstrap, errors, armed_from, config):
    """Stage 4: the two-sided CUSUM over identification errors, in place on
    ``cusum`` and on ``bootstrap``, the errors held back while the reference
    set has fewer than two entries.

    Held-back errors seed the references once there are
    CUSUM_BOOTSTRAP_BATCHES of them, or at the first armed error once there
    are two (short warmups must still get a usable sigma); their e_n is NaN.
    Errors from index ``armed_from`` on are armed: their batch alarms when a
    limit exceeds the detection threshold. Returns the columns e_n, L+, L-
    and alarm.
    """
    kappa, gamma, big_gamma = config.sensitivity, config.update_threshold, config.detection_threshold
    l_plus, l_minus = cusum.l_plus, cusum.l_minus
    e_n_col, l_plus_col, l_minus_col, alarm_col = [], [], [], []
    for k, e in enumerate(np.asarray(errors, dtype=np.float64).tolist()):
        alarm = False
        if cusum.ready:
            e_n = (e - cusum.mu_cusum) / max(cusum.sigma_cusum, _SIGMA_FLOOR)
            l_plus = max(0.0, l_plus + e_n - kappa)
            l_minus = max(0.0, l_minus - e_n - kappa)
            if abs(e_n) < gamma:
                cusum.add_reference(e)
            alarm = k >= armed_from and max(l_plus, l_minus) > big_gamma
        else:
            e_n = math.nan
            bootstrap.append(e)
            if len(bootstrap) >= CUSUM_BOOTSTRAP_BATCHES or (k >= armed_from and len(bootstrap) >= 2):
                for err in bootstrap:
                    cusum.add_reference(err)
                bootstrap.clear()
        e_n_col.append(e_n)
        l_plus_col.append(l_plus)
        l_minus_col.append(l_minus)
        alarm_col.append(alarm)
    cusum.l_plus, cusum.l_minus = l_plus, l_minus
    return (np.array(e_n_col, dtype=np.float64), np.array(l_plus_col, dtype=np.float64),
            np.array(l_minus_col, dtype=np.float64), np.array(alarm_col, dtype=bool))


def detect(batches, config, warmup_batches, period=None):
    """The detector pass over a (K+1, N) batch array: row 0 initializes,
    rows 1..warmup_batches warm up with alarms suppressed, and later rows
    are armed. Stages 1, 2 and 4 run in turn; stage 3 is the error column
    e = O_acc - S[k-1] * t, with S[k-1] the skew held before batch k."""
    if warmup_batches < 0:
        raise ValueError(f"warmup_batches must be >= 0, got {warmup_batches}")
    state, o_avg, o_acc, t = arrival_stage(batches, config, period)
    skews, state.rls = rls_stage(t, o_acc, config.rls_lambda)
    e = o_acc - skews[:-1] * t
    e_n, l_plus, l_minus, alarm = cusum_stage(state.cusum, state._bootstrap_errors, e, warmup_batches, config)
    alarms = np.flatnonzero(alarm)
    return DetectionReport(
        o_avg=o_avg, o_acc=o_acc, t=t, skew=skews[1:], e=e, e_n=e_n, l_plus=l_plus, l_minus=l_minus,
        alarm=alarm, first_alarm_batch=int(alarms[0]) + 1 if len(alarms) else None, final_state=state,
    )


def _pow2(x):
    """x**2 per element as Python floats compute it, through libm pow, which
    rounds differently from x * x in about one case in a thousand.
    np.float_power matched Python's ** on 3M values, where x * x differed
    on 2 594 and np.power with an array exponent on 107 316."""
    return np.float_power(x, 2.0)


class IdsStreams:
    """Armed detector state of S independent streams, one array entry per
    stream, advanced together one batch per ``step``.

    Stream s branches from ``bases[base_index[s]]``, an ``IdsState`` after its
    unarmed warmup; the bases are read, not kept or changed. Every entry goes
    through the operations of the single-stream pass (``detect``) in the
    same order, so a stream alarms at exactly the batch where that pass over
    its base's arrivals followed by its own would. Only what the armed step
    reads is held: the reference FIFO is its
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
    return detect(batches, config, warmup_batches, period)
