"""Clock-skew intrusion detectors: batch offset estimation, RLS skew
tracking, and CUSUM change detection, in two variants (SOTA and NTP-based).

One set of stage functions runs both a single stream (``detect``) and the
Monte Carlo attack phase, where S streams branched from warm states advance
together: there every numeric state field holds an (S,) array and each
stage takes a leading stream axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

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
    # lambda-weighted sums of O_acc * t and t * t; the NTP forecast starts
    # from them. None where nothing reads them (branched streams)
    ot_sum: float | None = 0.0
    tt_sum: float | None = 0.0

    def __post_init__(self):
        if np.less_equal(self.gain_denominator, 0.0).any():
            raise ValueError("gain_denominator must be > 0")


@dataclass
class CusumState:
    """Reference-error statistics plus the two control limits.

    The reference set is a FIFO capped at REFERENCE_CAP, held as the errors
    appended so far, the index of the oldest one still in the set, and the
    set's count and running sums, so adding a reference is O(1).

    For branched streams (see ``_branch``) every field but ``errors`` holds
    one entry per stream, and ``errors`` holds the references of the streams'
    bases laid end to end, which each stream evicts first. A stream's own
    references are not kept: it would evict them only after more than
    REFERENCE_CAP batches, which ``_branch`` rules out.
    """

    mu_cusum: float = 0.0
    sigma_cusum: float = 0.0
    l_plus: float = 0.0
    l_minus: float = 0.0
    errors: list = field(default_factory=list)
    evicted: int = 0
    count: int = 0
    ref_sum: float = 0.0
    ref_sumsq: float = 0.0

    @property
    def reference_errors(self):
        """The errors in the reference set, oldest first."""
        return self.errors[self.evicted:]

    @property
    def ready(self):
        return self.count >= 2


@dataclass
class IdsState:
    """Per-message-id detector state after batch ``batch_index``; for
    branched streams (see ``_branch``) each numeric field holds an (S,)
    array."""

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
        cols = [c.tolist() for c in (self.batch, self.o_avg, self.o_acc, self.t, self.skew, self.e, self.e_n,
                                     self.l_plus, self.l_minus, self.alarm.astype(int))]
        rows = list(map(_ROW.__mod__, zip(*cols)))
        for k in np.flatnonzero(np.isnan(self.e_n)).tolist():
            rows[k] = _ROW_NO_E_N % tuple(c[k] for c in cols[:6] + cols[7:])
        return "\n".join([",".join(self.CSV_COLUMNS), *rows, ""])


# DetectionReport rows: batch, five floats, e_n, two floats, alarm
_ROW = "%d" + ",%.12g" * 8 + ",%d"
_ROW_NO_E_N = "%d" + ",%.12g" * 5 + "," + ",%.12g" * 2 + ",%d"


def _max(a, b):
    """Builtin max of two floats (``a`` unless ``b`` is greater), without
    its cost per call, which is four times this function's."""
    return b if b > a else a


def _rows(x):
    """``x`` by batch, as the stage loops step through it: a column of one
    stream as Python floats, a (K, S) block of S streams as (S,) rows."""
    return x.tolist() if x.ndim == 1 else x


def arrival_columns(state, batches):
    """Stage 1's columns for the batches that follow ``state``: o_avg, O_acc
    and t of a (K, N) array of them, or of a (K, S, N) block holding batch k
    of S branched streams in row k. Advances the state's arrival fields past
    them. The SOTA offsets are row means over one (K, [S,] N-1) block, and
    O_acc is a running total from the state's.
    """
    a = np.asarray(batches, dtype=np.float64)
    n = state.config.batch_size
    if a.shape[1:] != np.shape(state.prev_last_arrival) + (n,):
        raise ValueError(f"expected batches of {n} arrivals after the state, got shape {a.shape}")
    last = np.concatenate(([state.prev_last_arrival], a[..., -1]))
    # mu of each batch, from the gap between batch-last arrivals, after the carried one
    means = np.concatenate(([state.prev_batch_mean], (last[1:] - last[:-1]) / n))
    if state.config.variant is Variant.SOTA:
        # a[1:] - (a[0] + i * mu[k-1]) per row, with mu[k-1] the previous batch's mean
        offsets = np.arange(1, n) * means[:-1, ..., None]
        offsets += a[..., :1]
        # np.mean's sum and division, without its 2.5 us of Python per call
        o_avg = np.add.reduce(np.subtract(a[..., 1:], offsets, out=offsets), axis=-1) / (n - 1)
        increments = np.abs(o_avg)
    else:
        o_avg = state.period - means[1:]
        increments = n * o_avg
    # added in batch order, as np.cumsum adds a column; not np.cumsum itself,
    # which along the batch axis of a (1, S) block takes 15 times as long as
    # one (S,) addition
    o_acc = np.array(list(accumulate(_rows(increments), initial=state.o_acc)))
    state.batch_index = state.batch_index + len(a)
    # the last rows, as Python floats for one stream
    state.prev_batch_mean, state.prev_last_arrival, state.o_acc = (_rows(x[-1:])[0] for x in (means, last, o_acc))
    return o_avg, o_acc[1:], last[1:] - state.t_origin


def arrival_stage(batches, config, period=None):
    """Stage 1 of the detector pass: everything that depends only on the
    arrivals, for a (K+1, N) array whose row 0 is the initialization batch.

    Returns the state after batch K with its arrival fields set (RLS and
    CUSUM still at their priors) and the columns o_avg, O_acc and t of
    batches 1..K (see ``arrival_columns``).
    """
    a = np.asarray(batches, dtype=np.float64)
    n = config.batch_size
    if a.ndim != 2 or a.shape[1] != n or len(a) < 1:
        raise ValueError(f"expected an initialization batch plus batches of {n} arrivals, got shape {a.shape}")
    if config.variant is Variant.NTP and (period is None or not period > 0.0):
        raise ValueError(f"the NTP variant requires a nominal period > 0, got {period}")
    # inter-arrival sums: batch 0's N-1 gaps, then each batch's N gaps (the
    # first crosses the batch boundary), summed per batch, then in batch order
    gaps = np.diff(a.ravel())
    head, rows = gaps[: n - 1], gaps[n - 1:].reshape(-1, n)
    ia_sum = np.cumsum(np.append(np.sum(head), np.sum(rows, axis=1)))[-1]
    ia_sumsq = np.cumsum(np.append(np.sum(np.square(head)), np.sum(np.square(rows), axis=1)))[-1]
    state = IdsState(
        config=config,
        period=period,
        prev_batch_mean=float((a[0, -1] - a[0, 0]) / (n - 1)),
        prev_last_arrival=float(a[0, -1]),
        t_origin=float(a[0, -1]),
        _ia_count=len(gaps),
        _ia_sum=float(ia_sum),
        _ia_sumsq=float(ia_sumsq),
    )
    return (state, *arrival_columns(state, a[1:]))


def rls_stage(t, o_acc, lam, rls=None):
    """Stage 2: the scalar exponentially weighted RLS fit of O_acc = S * t,
    batch by batch from ``rls`` (by default the prior: skew 0, P =
    RLS_INITIAL_P), which also keeps the lambda-weighted sums of O_acc * t
    and t * t unless ``rls`` holds None for them. It reads no CUSUM state.
    The columns are 1-d for one stream, or (K, S) blocks for S streams whose
    ``rls`` fields are (S,) arrays. Returns the K+1 skews (entry k is the
    estimate after batch k, entry 0 the starting one) and the final
    ``RlsState``."""
    t = np.asarray(t, dtype=np.float64)
    o_acc = np.asarray(o_acc, dtype=np.float64)
    if t.shape != o_acc.shape:
        raise ValueError(f"t and O_acc differ in length: {t.size} and {o_acc.size}")
    if (t <= 0.0).any():
        raise ValueError("elapsed time must be > 0")
    rls = rls or RlsState()
    skew, p, ot, tt = rls.skew, rls.gain_denominator, rls.ot_sum, rls.tt_sum
    skews = [skew]
    sums = ot is not None
    for t_k, y in zip(_rows(t), _rows(o_acc)):
        gain = p * t_k / (lam + t_k * t_k * p)
        skew = skew + gain * (y - skew * t_k)
        p = (p - gain * t_k * p) / lam
        if sums:
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
    limit exceeds the detection threshold. ``errors`` is a column, or a
    (K, S) block for the S streams of a branched ``cusum``, whose bootstrap
    then holds (S,) rows. Returns the columns e_n, L+, L- and alarm.
    """
    kappa, gamma, big_gamma = config.sensitivity, config.update_threshold, config.detection_threshold
    errors = np.asarray(errors, dtype=np.float64)
    if not np.isfinite(errors).all():  # keeps the masked reference sums below exact
        raise ValueError("identification errors must be finite")
    # Where Python floats and arrays differ. Builtin max and np.maximum part
    # only on NaN, which np.maximum propagates. Python's mu**2 goes through
    # libm pow, which rounds differently from mu * mu now and then; with
    # nearly equal references the variance cancels down to that last bit.
    # np.float_power matched ** on 3M values, where x * x differed on 2 594
    # and np.power with an array exponent on 107 316.
    if errors.ndim == 1:
        mx, pw, sqrt, any_, no_alarm = _max, pow, math.sqrt, bool, False
        keep = cusum.errors.append
    else:
        mx, pw, sqrt, any_ = np.maximum, np.float_power, np.sqrt, np.ndarray.any
        no_alarm = np.zeros(errors.shape[1:], dtype=bool)
        keep = None  # streams evict only their bases' references (see CusumState)
    c = cusum
    mu, sigma, l_plus, l_minus = c.mu_cusum, c.sigma_cusum, c.l_plus, c.l_minus
    refs, evicted, count, ref_sum, ref_sumsq = c.errors, c.evicted, c.count, c.ref_sum, c.ref_sumsq
    ready = any_(c.ready)
    e_n_col, l_plus_col, l_minus_col, alarm_col = [], [], [], []
    for k, e in enumerate(_rows(errors)):
        if ready:
            e_n = (e - mu) / mx(sigma, _SIGMA_FLOOR)
            l_plus = mx(0.0, l_plus + e_n - kappa)
            l_minus = mx(0.0, l_minus - e_n - kappa)
            alarm = no_alarm if k < armed_from else mx(l_plus, l_minus) > big_gamma
            new = ((abs(e_n) < gamma, e),)
        else:
            e_n, alarm, new = e * math.nan, no_alarm, ()  # e_n NaN, shaped as e
            bootstrap.append(e)
            if len(bootstrap) >= CUSUM_BOOTSTRAP_BATCHES or (k >= armed_from and len(bootstrap) >= 2):
                new = [(True, err) for err in bootstrap]
                bootstrap.clear()
                ready = True
        # add each new error where its mask holds, evicting the oldest
        # reference of a full set first
        for add, err in new:
            full = add & (count == REFERENCE_CAP)
            if any_(full):
                old = refs[evicted]
                ref_sum = ref_sum - old * full
                ref_sumsq = ref_sumsq - old * old * full
                evicted = evicted + full
            if keep and add:
                keep(err)
            err = err * add
            ref_sum = ref_sum + err
            ref_sumsq = ref_sumsq + err * err
            count = count + add - full
        if new:
            mu = ref_sum / count
            sigma = sqrt(mx(0.0, (ref_sumsq - count * pw(mu, 2)) / (count - 1)))
        e_n_col.append(e_n)
        l_plus_col.append(l_plus)
        l_minus_col.append(l_minus)
        alarm_col.append(alarm)
    c.mu_cusum, c.sigma_cusum, c.l_plus, c.l_minus = mu, sigma, l_plus, l_minus
    c.evicted, c.count, c.ref_sum, c.ref_sumsq = evicted, count, ref_sum, ref_sumsq
    return (np.array(e_n_col, dtype=np.float64), np.array(l_plus_col, dtype=np.float64),
            np.array(l_minus_col, dtype=np.float64), np.array(alarm_col, dtype=bool))


def _stages(state, o_acc, t, armed_from):
    """Stages 2 to 4 over the O_acc and t columns of the batches that follow
    ``state``, in place on it; stage 3 is the error column
    e = O_acc - S[k-1] * t, with S[k-1] the skew held before batch k.
    Returns the columns skew, e, e_n, L+, L- and alarm."""
    skews, state.rls = rls_stage(t, o_acc, state.config.rls_lambda, state.rls)
    e = o_acc - skews[:-1] * t
    return (skews[1:], e, *cusum_stage(state.cusum, state._bootstrap_errors, e, armed_from, state.config))


def detect(batches, config, warmup_batches, period=None):
    """The detector pass over a (K+1, N) batch array: row 0 initializes,
    rows 1..warmup_batches warm up with alarms suppressed, and later rows
    are armed."""
    if warmup_batches < 0:
        raise ValueError(f"warmup_batches must be >= 0, got {warmup_batches}")
    state, o_avg, o_acc, t = arrival_stage(batches, config, period)
    skew, e, e_n, l_plus, l_minus, alarm = _stages(state, o_acc, t, warmup_batches)
    alarms = np.flatnonzero(alarm)
    return DetectionReport(
        o_avg=o_avg, o_acc=o_acc, t=t, skew=skew, e=e, e_n=e_n, l_plus=l_plus, l_minus=l_minus,
        alarm=alarm, first_alarm_batch=int(alarms[0]) + 1 if len(alarms) else None, final_state=state,
    )


def _branch(bases, base_index, horizon):
    """The state of S streams, stream s branched from ``bases[base_index[s]]``
    (states after their unarmed warmups), for at most ``horizon`` batches:
    every numeric field but the batch index holds an (S,) array and the
    bootstrap (S,) rows. The bases are read, not kept or changed.

    The inter-arrival and least-squares sums, which only snapshots read,
    are not carried. Counts are floats, as the reference sums that they
    divide are: integer counts would be cast on every step."""
    if len({(b.config, b.period, b.batch_index, len(b._bootstrap_errors), b.cusum.ready) for b in bases}) > 1:
        raise ValueError("base states must share one detector config and period, and stand at the same batch "
                         "and point of the reference bootstrap")
    if horizon > REFERENCE_CAP:
        raise ValueError(f"a horizon of {horizon} batches would outlive the bases' references ({REFERENCE_CAP})")
    base = np.asarray(base_index, dtype=np.intp)

    def per_stream(values):
        return np.array(values, dtype=np.float64)[base]

    # a bootstrapping base's held-back errors are the first references its streams add
    refs = [b._bootstrap_errors or b.cusum.reference_errors for b in bases]
    start = np.cumsum([0] + [len(r) for r in refs[:-1]])
    cusums = [b.cusum for b in bases]
    cusum = CusumState(
        errors=np.array([e for r in refs for e in r], dtype=np.float64), evicted=start[base],
        **{name: per_stream([getattr(c, name) for c in cusums])
           for name in ("mu_cusum", "sigma_cusum", "l_plus", "l_minus", "count", "ref_sum", "ref_sumsq")},
    )
    rls = RlsState(skew=per_stream([b.rls.skew for b in bases]),
                   gain_denominator=per_stream([b.rls.gain_denominator for b in bases]), ot_sum=None, tt_sum=None)
    return IdsState(
        config=bases[0].config, period=bases[0].period, batch_index=bases[0].batch_index, rls=rls, cusum=cusum,
        _bootstrap_errors=list(per_stream([b._bootstrap_errors for b in bases]).T),
        **{name: per_stream([getattr(b, name) for b in bases])
           for name in ("prev_batch_mean", "prev_last_arrival", "t_origin", "o_acc")},
    )


def _keep(state, keep):
    """Drop every stream of a ``_branch`` state where ``keep`` is False."""
    refs = state.cusum.errors
    for part in (state, state.rls, state.cusum):
        for name, value in list(vars(part).items()):
            if isinstance(value, np.ndarray) and value is not refs:
                setattr(part, name, value[keep])
    state._bootstrap_errors[:] = [row[keep] for row in state._bootstrap_errors]


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
