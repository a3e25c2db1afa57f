"""Clock-skew intrusion detectors: batch offset estimation, RLS skew
tracking, and CUSUM change detection, in two variants (SOTA and NTP-based).

``detect`` runs one stream through stage functions that loop over its
batches. The Monte Carlo attack phase advances S streams branched from warm
states (``_branch``), whose numeric state fields hold (S,) arrays, one batch
at a time (``_step``). Both call the same per-batch helpers for each
recurrence: the offsets, the RLS update, the CUSUM limits and the reference
set's add, evict, mean and sigma, on Python floats in the loops and on (S,)
arrays in the step.

The one-stream CUSUM (``cusum_stage``) also has an exact block path. While
the reference set is ready and both limits are 0.0, it assumes that each of
the next errors joins the references and leaves both limits at 0.0, and
computes the block with the same helpers on arrays whose entry p is the
reference set after p of its errors. Those sets' sums are running sums
(np.cumsum adds in order; a full set's evictions are added negations, as
a - b is a + (-b) in IEEE 754), and every other value is the loop's
operation on the same operands, so the prefix up to the first error that
breaks the assumption is bit-identical to the loop's; that error goes
through the per-batch body.
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
    "arrival_stage",
    "rls_stage",
    "cusum_stage",
    "detect",
    "run_ids",
]

RLS_INITIAL_P = 1e6  # large prior variance: first update snaps to the data
CUSUM_BOOTSTRAP_BATCHES = 50
REFERENCE_CAP = 10_000
CUSUM_BLOCK = 1024  # errors that cusum_stage's block path takes at once
# per-batch stretch after a block that ends early: doubles with each such
# block in a row, back to none after a block that ends at its size
_BACKOFF_FIRST, _BACKOFF_CAP = 16, 4096
# floor for sigma_cusum: sub-picosecond spread means a noiseless trace, where
# the only variation is float rounding and must not be amplified into alarms
_SIGMA_FLOOR = 1e-12


class Variant(str, Enum):
    SOTA = "sota"
    NTP = "ntp"


# Variant(value) as a dict lookup, a tenth of the Enum call's cost; a Variant hashes as its value
_VARIANTS = {variant.value: variant for variant in Variant}


@dataclass(frozen=True)
class IdsConfig:
    variant: Variant
    batch_size: int = 20
    rls_lambda: float = 0.9995
    update_threshold: float = 4.0     # gamma
    detection_threshold: float = 5.0  # Gamma
    sensitivity: float = 8.0          # kappa

    def __post_init__(self):
        object.__setattr__(self, "variant", _VARIANTS.get(self.variant) or Variant(self.variant))
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 < self.rls_lambda <= 1.0:
            raise ValueError("rls_lambda must be in (0, 1]")
        # written so that NaN fails each check
        for name in ("update_threshold", "detection_threshold"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.sensitivity >= 0.0:
            raise ValueError(f"sensitivity must be >= 0, got {self.sensitivity}")


@dataclass
class RlsState:
    skew: float = 0.0
    gain_denominator: float = RLS_INITIAL_P  # inverse-covariance scalar P
    # lambda-weighted sums of O_acc * t and t * t, kept by rls_stage; the
    # NTP forecast starts from them. None in branched streams (_branch),
    # which _step advances without them
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
        from . import _digits  # its tables load on the first write, not with the package
        columns = (self.batch, self.o_avg, self.o_acc, self.t, self.skew, self.e, self.e_n, self.l_plus,
                   self.l_minus, self.alarm)
        return "".join([",".join(self.CSV_COLUMNS) + "\n", *_digits.table(columns, empty_nan={6})])


def _max(a, b):
    """Builtin max of two floats (``a`` unless ``b`` is greater), without
    its cost per call, which is four times this function's."""
    return b if b > a else a


# Where Python floats and (S,) arrays differ: max, sqrt and any for the
# one-stream loops and for the stream step. Builtin max and np.maximum part
# only on NaN, which np.maximum propagates. Everything else is an IEEE 754
# operation that both round alike: mu is squared as mu * mu, the correctly
# rounded square, in both (libm pow, which rounds differently now and then,
# is not used). The array any is one reduction, without ndarray.any's Python.
_FLOAT_OPS = (_max, math.sqrt, bool)
_ARRAY_OPS = (np.maximum, np.sqrt, np.logical_or.reduce)


# The detector's per-batch arithmetic, once for both the one-stream loops
# (Python floats) and the stream step (``_step``, (S,) arrays).

def _offsets(config, period, a, prev_means, means):
    """o_avg and the O_acc increment of batches ``a`` (..., N) with mean
    spacings ``means``, each after a batch of mean spacing ``prev_means``.
    SOTA: the row mean of a[1:] - (a[0] + i * mu[k-1]); NTP, which reads
    neither ``a`` nor ``prev_means``: T - mu[k]."""
    if config.variant is Variant.SOTA:
        n = a.shape[-1]
        offsets = np.arange(1, n) * prev_means[..., None]
        offsets += a[..., :1]
        # np.mean's sum and division, without its 2.5 us of Python per call
        o_avg = np.add.reduce(np.subtract(a[..., 1:], offsets, out=offsets), axis=-1) / (n - 1)
        return o_avg, np.abs(o_avg)
    o_avg = period - means
    return o_avg, config.batch_size * o_avg


def _rls_update(skew, p, t, y, lam):
    """The skew and inverse-covariance scalar P after one RLS step on the
    point (t, O_acc = y)."""
    gain = p * t / (lam + t * t * p)
    return skew + gain * (y - skew * t), (p - gain * t * p) / lam


def _limits(e, mu, sigma, l_plus, l_minus, kappa, big_gamma, armed, mx):
    """e_n of the error ``e``, the limits L+ and L- after it, and, if
    ``armed``, whether a limit exceeds the detection threshold ``big_gamma``
    (else False)."""
    e_n = (e - mu) / mx(sigma, _SIGMA_FLOOR)
    l_plus = mx(0.0, l_plus + e_n - kappa)
    l_minus = mx(0.0, l_minus - e_n - kappa)
    return e_n, l_plus, l_minus, armed and mx(l_plus, l_minus) > big_gamma


def _held_back(bootstrap, e, armed):
    """Hold ``e`` back while the reference set bootstraps. Returns the
    (mask, error) pairs that seed the references, all held-back errors, once
    there are CUSUM_BOOTSTRAP_BATCHES of them or, at an armed error, two
    (short warmups must still get a usable sigma); else ()."""
    bootstrap.append(e)
    if len(bootstrap) >= CUSUM_BOOTSTRAP_BATCHES or (armed and len(bootstrap) >= 2):
        new = [(True, err) for err in bootstrap]
        bootstrap.clear()
        return new
    return ()


def _add_references(refs, evicted, count, ref_sum, ref_sumsq, new, keep, ops):
    """Add each error of the (mask, error) pairs ``new`` to the reference
    set where its mask holds, evicting the oldest reference, ``refs[evicted]``,
    of a full set first; ``keep`` appends an added error to ``refs`` (None for
    branched streams, see CusumState). Returns the new evicted index, count
    and sums, and the set's mu_cusum and sigma_cusum; with no pairs, those of
    the set as given (``_cusum_block`` passes the sums of every prefix of a
    block as arrays). ``formal.ntp_forecast`` adds its errors with it too."""
    mx, sqrt, any_ = ops
    for add, err in new:
        full = add & (count == REFERENCE_CAP)
        if any_(full):
            old = refs[evicted]
            ref_sum = ref_sum - old * full
            ref_sumsq = ref_sumsq - old * old * full
            evicted = evicted + full
            count = count - full  # counts are integers, exact in any order
        if keep and add:
            keep(err)
        err = err * add
        ref_sum = ref_sum + err
        ref_sumsq = ref_sumsq + err * err
        count = count + add
    mu = ref_sum / count
    return evicted, count, ref_sum, ref_sumsq, mu, sqrt(mx(0.0, (ref_sumsq - count * (mu * mu)) / (count - 1)))


def arrival_stage(batches, config, period=None):
    """Stage 1 of the detector pass: everything that depends only on the
    arrivals, for a (K+1, N) array whose row 0 is the initialization batch.

    Returns the state after batch K with its arrival fields set (RLS and
    CUSUM still at their priors) and the columns o_avg, O_acc and t of
    batches 1..K. The SOTA offsets are row means over one (K, N-1) block,
    and O_acc is a running total.
    """
    a = np.asarray(batches, dtype=np.float64)
    n = config.batch_size
    if a.ndim != 2 or a.shape[1] != n or len(a) < 1:
        raise ValueError(f"expected an initialization batch plus batches of {n} arrivals, got shape {a.shape}")
    if config.variant is Variant.NTP and (period is None or not 0.0 < period < math.inf):
        raise ValueError(f"the NTP variant requires a finite nominal period > 0, got {period}")
    # inter-arrival sums: batch 0's N-1 gaps, then each batch's N gaps (the
    # first crosses the batch boundary), summed per batch, then in batch order
    gaps = np.diff(a.ravel())
    head, rows = gaps[: n - 1], gaps[n - 1:].reshape(-1, n)
    ia_sum = np.cumsum(np.append(np.sum(head), np.sum(rows, axis=1)))[-1]
    ia_sumsq = np.cumsum(np.append(np.sum(np.square(head)), np.sum(np.square(rows), axis=1)))[-1]
    last = a[:, -1]
    # mu of each batch: batch 0's from its own span, then from the gap
    # between batch-last arrivals
    means = np.concatenate((((a[0, -1] - a[0, 0]) / (n - 1),), (last[1:] - last[:-1]) / n))
    o_avg, increments = _offsets(config, period, a[1:], means[:-1], means[1:])
    # added in batch order, as np.cumsum adds a column
    o_acc = list(accumulate(increments.tolist(), initial=0.0))
    state = IdsState(
        config=config,
        period=period,
        batch_index=len(a) - 1,
        prev_batch_mean=float(means[-1]),
        prev_last_arrival=float(last[-1]),
        t_origin=float(a[0, -1]),
        o_acc=o_acc[-1],
        _ia_count=len(gaps),
        _ia_sum=float(ia_sum),
        _ia_sumsq=float(ia_sumsq),
    )
    return state, o_avg, np.array(o_acc[1:], dtype=np.float64), last[1:] - a[0, -1]


def rls_stage(t, o_acc, lam):
    """Stage 2: the scalar exponentially weighted RLS fit of O_acc = S * t
    over the columns ``t`` and ``o_acc``, batch by batch from the prior
    (skew 0, P = RLS_INITIAL_P), which also keeps the lambda-weighted sums
    of O_acc * t and t * t. It reads no CUSUM state. Returns the K+1 skews
    (entry k is the estimate after batch k, entry 0 the prior's) and the
    final ``RlsState``."""
    t = np.asarray(t, dtype=np.float64)
    o_acc = np.asarray(o_acc, dtype=np.float64)
    if t.shape != o_acc.shape:
        raise ValueError(f"t and O_acc differ in length: {t.size} and {o_acc.size}")
    if t.ndim != 1:
        raise ValueError(f"expected columns of t and O_acc, got shape {t.shape}")
    if (t <= 0.0).any():
        raise ValueError("elapsed time must be > 0")
    skew, p, ot, tt = 0.0, RLS_INITIAL_P, 0.0, 0.0
    skews = [skew]
    put = skews.append
    for t_k, y in zip(t.tolist(), o_acc.tolist()):
        skew, p = _rls_update(skew, p, t_k, y, lam)
        ot = lam * ot + y * t_k
        tt = lam * tt + t_k * t_k
        put(skew)
    return np.array(skews), RlsState(skew=skew, gain_denominator=p, ot_sum=ot, tt_sum=tt)


def cusum_stage(cusum, bootstrap, errors, armed_from, config):
    """Stage 4: the two-sided CUSUM over a column of identification errors,
    in place on ``cusum`` and on ``bootstrap``, the errors held back while
    the reference set has fewer than two entries.

    Held-back errors seed the references (see ``_held_back``); their e_n is
    NaN. Errors from index ``armed_from`` on are armed: their batch alarms
    when a limit exceeds the detection threshold. Returns the columns e_n,
    L+, L- and alarm.

    While the reference set is ready and both limits are 0.0, errors go to
    ``_cusum_block`` up to CUSUM_BLOCK at a time. It takes the longest
    prefix of a block in which every error joins the references and leaves
    both limits at 0.0, computed with the floating-point operations of the
    per-batch body below in the same order, so both paths give the same
    bits. The error that ends a block, and every error while the references
    bootstrap or a limit is nonzero, take the per-batch body. After a block
    that ends early the body runs on for a stretch that doubles with each
    such block in a row (_BACKOFF_FIRST up to _BACKOFF_CAP errors) and is
    reset by a block that does not, so a column where every block ends at
    once tries few of them.
    """
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1:
        raise ValueError(f"expected a column of errors, got shape {errors.shape}")
    if not np.isfinite(errors).all():  # keeps the masked reference sums below exact
        raise ValueError("identification errors must be finite")
    kappa, gamma, big_gamma = config.sensitivity, config.update_threshold, config.detection_threshold
    cap, block = REFERENCE_CAP, CUSUM_BLOCK
    c = cusum
    mu, sigma, l_plus, l_minus = c.mu_cusum, c.sigma_cusum, c.l_plus, c.l_minus
    refs, evicted, count, ref_sum, ref_sumsq = c.errors, c.evicted, c.count, c.ref_sum, c.ref_sumsq
    ready, keep = c.ready, c.errors.append
    values = errors.tolist()
    n = len(values)
    e_n_col, l_plus_col, l_minus_col, alarm_col = np.empty(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    k = backoff = 0
    while k < n:
        if block and ready and not (l_plus or l_minus):
            # a block stops where the set fills: before it, no error evicts; after, every one does
            m = min(block, n - k, cap - count if count < cap else cap)
            taken, e_n, moved = _cusum_block(errors[k:k + m], refs, evicted, count, ref_sum, ref_sumsq, config)
            if taken:
                e_n_col[k:k + taken] = e_n
                evicted, count, ref_sum, ref_sumsq, mu, sigma = moved
                l_plus = l_minus = 0.0
                k += taken
            if taken == m:
                backoff = 0
                continue
            backoff = min(2 * backoff, _BACKOFF_CAP) or _BACKOFF_FIRST
        # the per-batch body: the error that ended a block and ``backoff``
        # more, then on to the next error that could start a block
        start, stop = k, k + backoff if block else n
        e_n_run, l_plus_run, l_minus_run, alarm_run = [], [], [], []
        for k in range(start, n):
            e = values[k]
            if ready:
                e_n, l_plus, l_minus, alarm = _limits(e, mu, sigma, l_plus, l_minus, kappa, big_gamma,
                                                      k >= armed_from, _max)
                joined = abs(e_n) < gamma
                new = ((joined, e),)
            else:
                e_n, alarm = math.nan, False
                new = _held_back(bootstrap, e, k >= armed_from)
                joined = ready = bool(new)
            if new:
                evicted, count, ref_sum, ref_sumsq, mu, sigma = _add_references(refs, evicted, count, ref_sum,
                                                                                ref_sumsq, new, keep, _FLOAT_OPS)
            e_n_run.append(e_n)
            l_plus_run.append(l_plus)
            l_minus_run.append(l_minus)
            alarm_run.append(alarm)
            # as a block assumes of each of its errors: joined, both limits 0.0
            if k >= stop and joined and not (l_plus or l_minus):
                break
        k += 1
        e_n_col[start:k], l_plus_col[start:k], l_minus_col[start:k], alarm_col[start:k] = (
            e_n_run, l_plus_run, l_minus_run, alarm_run)
    c.mu_cusum, c.sigma_cusum, c.l_plus, c.l_minus = mu, sigma, l_plus, l_minus
    c.evicted, c.count, c.ref_sum, c.ref_sumsq = evicted, count, ref_sum, ref_sumsq
    return e_n_col, l_plus_col, l_minus_col, alarm_col


def _cusum_block(errors, refs, evicted, count, ref_sum, ref_sumsq, config):
    """The block path of ``cusum_stage``: the next ``errors`` of a stream
    whose reference set (``refs`` from index ``evicted``, ``count`` errors
    with the given sums) is ready and either stays short of REFERENCE_CAP or
    is full throughout, and whose limits are both 0.0.

    Assumes that every error joins the references and leaves both limits at
    0.0, and repeats the per-batch arithmetic on arrays whose entry p is
    the reference set after the first p errors:
    - its sums are running sums from the carried ones, which add in the
      loop's order (np.cumsum is sequential). A full set evicts its oldest
      reference before each add, as an added negation: a - b is a + (-b);
    - its mean and sigma come from ``_add_references`` given no errors
      (entry 0's are the carried ones, which came from the same sums);
    - error p's e_n and limits come from ``_limits`` on entry p, from limits
      of 0.0.
    Returns how many leading errors the assumption holds for, their e_n,
    and the evicted index, count, sums, mean and sigma after them; the
    taken errors are appended to ``refs``. It takes none where a carried sum
    is not finite or an operation overflows or is invalid: the per-batch
    body's NaN, which ``_max`` turns into 0.0, would be NaN here."""
    if not (math.isfinite(ref_sum) and math.isfinite(ref_sumsq)):
        return 0, None, None
    m = len(errors)
    full = count == REFERENCE_CAP
    with np.errstate(over="raise", invalid="raise"):
        try:
            if full:
                old = np.array(refs[evicted:evicted + m])
                steps = np.empty(2 * m + 1)
                steps[0], steps[2::2] = ref_sum, errors
                np.negative(old, out=steps[1::2])
                sums = np.cumsum(steps)[::2]
                steps[0], steps[2::2] = ref_sumsq, errors * errors
                np.negative(old * old, out=steps[1::2])
                sumsq = np.cumsum(steps)[::2]
                counts = count
            else:
                sums = np.cumsum(np.concatenate(([ref_sum], errors)))
                sumsq = np.cumsum(np.concatenate(([ref_sumsq], errors * errors)))
                counts = np.arange(count, count + m + 1)
            mus, sigmas = _add_references(None, None, counts, sums, sumsq, (), None, _ARRAY_OPS)[4:]
            e_n, l_plus, l_minus, _ = _limits(errors, mus[:-1], sigmas[:-1], 0.0, 0.0, config.sensitivity,
                                              config.detection_threshold, False, np.maximum)
        except FloatingPointError:
            return 0, None, None
    ends = ~(np.abs(e_n) < config.update_threshold) | (np.maximum(l_plus, l_minus) > 0.0)
    taken = int(ends.argmax()) if ends.any() else m
    if not taken:
        return 0, None, None
    refs.extend(errors[:taken].tolist())
    moved = (evicted + taken * full, count + taken * (not full), float(sums[taken]), float(sumsq[taken]),
             float(mus[taken]), float(sigmas[taken]))
    return taken, e_n[:taken], moved


def detect(batches, config, warmup_batches, period=None):
    """The detector pass over a (K+1, N) batch array: row 0 initializes,
    rows 1..warmup_batches warm up with alarms suppressed, and later rows
    are armed."""
    if warmup_batches < 0:
        raise ValueError(f"warmup_batches must be >= 0, got {warmup_batches}")
    state, o_avg, o_acc, t = arrival_stage(batches, config, period)
    skews, state.rls = rls_stage(t, o_acc, config.rls_lambda)
    # stage 3: e = O_acc - S[k-1] * t, with S[k-1] the skew held before batch k
    e = o_acc - skews[:-1] * t
    e_n, l_plus, l_minus, alarm = cusum_stage(state.cusum, state._bootstrap_errors, e, warmup_batches, config)
    alarms = np.flatnonzero(alarm)
    return DetectionReport(
        o_avg=o_avg, o_acc=o_acc, t=t, skew=skews[1:], e=e, e_n=e_n, l_plus=l_plus, l_minus=l_minus,
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


def _keep(state, kept):
    """Keep only the streams of a ``_branch`` state at the indices ``kept``."""
    refs = state.cusum.errors
    for part in (state, state.rls, state.cusum):
        for name, value in list(vars(part).items()):
            if isinstance(value, np.ndarray) and value is not refs:
                setattr(part, name, value.take(kept))
    state._bootstrap_errors[:] = [row.take(kept) for row in state._bootstrap_errors]


def _step(state, batch):
    """Advance the S streams of a ``_branch`` state by one armed batch, in
    place: ``batch`` holds each stream's N arrivals in a row, or for NTP,
    which reads only a batch's last arrival, may hold just that one. Runs
    the per-batch arithmetic of ``detect`` on (S,) arrays and returns the
    batch's rows o_avg, O_acc, t, skew, e, e_n, L+, L- and alarm."""
    config, rls = state.config, state.rls
    n = config.batch_size
    widths = (n, 1) if config.variant is Variant.NTP else (n,)
    if batch.ndim != 2 or len(batch) != len(state.prev_last_arrival) or batch.shape[1] not in widths:
        raise ValueError(f"expected a batch of {n} arrivals per stream, got shape {batch.shape}")
    last = batch[:, -1]
    mean = (last - state.prev_last_arrival) / n
    o_avg, increment = _offsets(config, state.period, batch, state.prev_batch_mean, mean)
    o_acc = state.o_acc + increment
    t = last - state.t_origin
    # each guard one reduction; fmin skips NaN, and no stream reads as inf
    if np.fmin.reduce(t, initial=np.inf) <= 0.0:
        raise ValueError("elapsed time must be > 0")
    skew, p = _rls_update(rls.skew, rls.gain_denominator, t, o_acc, config.rls_lambda)
    if np.fmin.reduce(p, initial=np.inf) <= 0.0:
        raise ValueError("gain_denominator must be > 0")
    e = o_acc - rls.skew * t
    state.batch_index += 1
    state.prev_batch_mean, state.prev_last_arrival, state.o_acc = mean, last, o_acc
    rls.skew, rls.gain_denominator = skew, p
    return (o_avg, o_acc, t, skew, e, *_cusum_streams(state.cusum, state._bootstrap_errors, e, config))


def _cusum_streams(cusum, bootstrap, e, config):
    """Stage 4 of ``_step``: one armed error per stream of a branched
    ``cusum`` (see CusumState), whose streams stand at one point of the
    reference bootstrap, which ``bootstrap`` holds as (S,) rows. Returns the
    rows e_n, L+, L- and alarm."""
    if not np.logical_and.reduce(np.isfinite(e)):  # keeps the masked reference sums exact
        raise ValueError("identification errors must be finite")
    c = cusum
    if np.maximum.reduce(c.count, initial=0.0) >= 2:  # some stream's set is ready
        e_n, c.l_plus, c.l_minus, alarm = _limits(e, c.mu_cusum, c.sigma_cusum, c.l_plus, c.l_minus,
                                                  config.sensitivity, config.detection_threshold, True, np.maximum)
        new = ((np.abs(e_n) < config.update_threshold, e),)
    else:
        e_n, alarm = e * math.nan, np.zeros(e.shape, dtype=bool)
        new = _held_back(bootstrap, e, True)
    if new:
        c.evicted, c.count, c.ref_sum, c.ref_sumsq, c.mu_cusum, c.sigma_cusum = _add_references(
            c.errors, c.evicted, c.count, c.ref_sum, c.ref_sumsq, new, None, _ARRAY_OPS)
    return e_n, c.l_plus, c.l_minus, alarm


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
