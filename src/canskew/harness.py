"""Monte Carlo sweeps, curve metrics, and the estimation-consistency study.

``monte_carlo_ps`` warms a detector once per curve (synthetic source) or once
per trial (recorded source), then runs the armed attack phase of every
(trial, grid point) stream together: one ``ids._step`` per batch advances all
live streams through the same per-batch arithmetic as ``ids.detect``, and
streams that alarm are dropped. Trials redraw only the
attack-stream noise, and grid points translate that trial's arrivals
analytically. Success counts are integers, so aggregation order cannot change
the result.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSpec, attack_arrivals
from .clock import (
    ClockSpec,
    InsufficientDataError,
    MessageSchedule,
    NoiseModel,
    Trace,
    quantize,
    synthesize_trace,
)
from .curves import SuccessCurve
from .ids import IdsConfig, Variant, _branch, _keep, _step, arrival_stage, detect, rls_stage

__all__ = [
    "SyntheticSource",
    "ExperimentConfig",
    "ConsistencyCase",
    "ConsistencyResult",
    "default_grid",
    "synthetic_warm_state",
    "monte_carlo_ps",
    "epsilon_msi",
    "ade",
    "consistency_study",
]


@dataclass(frozen=True)
class SyntheticSource:
    """A synthetic normal-traffic generator: schedule + target clock + noise."""

    schedule: MessageSchedule
    clock: ClockSpec = field(default_factory=ClockSpec)
    noise: NoiseModel = field(default_factory=NoiseModel)


@dataclass(frozen=True)
class ExperimentConfig:
    ids: IdsConfig
    warmup_batches: int = 1000
    trials: int = 100
    horizon: int = 60
    grid: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.warmup_batches < 1:
            raise ValueError("warmup_batches must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        grid = np.asarray(self.grid, dtype=np.float64)  # None gives a 0-d NaN
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("grid must be a non-empty 1-d array")
        if np.count_nonzero(np.isfinite(grid)) != grid.size:
            raise ValueError(f"grid must be finite, got {grid[~np.isfinite(grid)][0]}")
        object.__setattr__(self, "grid", grid)


def default_grid(period, half_width_us=50.0, step_us=1.0):
    """Default delta-T grid: +/-50 us in 1 us steps at T = 100 ms, scaled
    linearly with the period."""
    scale = period / 0.1
    half = half_width_us * 1e-6 * scale
    step = step_us * 1e-6 * scale
    n = int(round(half / step))
    return np.arange(-n, n + 1) * step


def _warmup_state(arrivals, cfg, period):
    """Initialize and warm up a detector on (warmup_batches + 1) * N arrivals."""
    n = cfg.ids.batch_size
    need = (cfg.warmup_batches + 1) * n
    if len(arrivals) < need:
        raise InsufficientDataError(f"warmup needs {need} arrivals, got {len(arrivals)}")
    batches = arrivals[:need].reshape(cfg.warmup_batches + 1, n)
    return detect(batches, cfg.ids, cfg.warmup_batches, period).final_state


def _synthetic_seeds(cfg):
    """The synthetic Monte Carlo seed stream: the first draw from
    ``cfg.seed`` seeds the normal warmup trace, the next ``cfg.trials``
    draws seed each trial's attack arrivals."""
    rng = np.random.default_rng(cfg.seed)
    normal_seed = int(rng.integers(0, 2**63))
    return normal_seed, rng.integers(0, 2**63, size=cfg.trials)


def synthetic_warm_state(source, cfg):
    """The warm detector state that ``monte_carlo_ps(source, ..., cfg)``
    shares across its trials: batch 0 and ``cfg.warmup_batches`` unarmed
    batches of the normal trace seeded by ``_synthetic_seeds``."""
    normal_seed, _ = _synthetic_seeds(cfg)
    count = (cfg.warmup_batches + 1) * cfg.ids.batch_size
    normal = synthesize_trace(source.schedule, source.clock, source.noise, count, normal_seed)
    return _warmup_state(normal.arrivals(source.schedule.message_id), cfg, source.schedule.period)


def monte_carlo_ps(source, attack, cfg, vary="delta_t", message_id=None, period=None):
    """Experimental success curve: fraction of trials with no alarm during the
    attack horizon, per grid point.

    ``source`` is a SyntheticSource (trials redraw attack noise over a shared
    warmup) or a recorded Trace (trials slide the attack start across the log;
    requires message_id and period). ``vary`` selects which AttackSpec field
    the grid sweeps: "delta_t" or "mistiming".
    """
    if vary not in ("delta_t", "mistiming"):
        raise ValueError(f"vary must be 'delta_t' or 'mistiming', got {vary!r}")
    # each trial's stream at grid value 0, unquantized: the grid translates it
    spec = dataclasses.replace(
        attack,
        **{vary: 0.0},
        attack_batches=cfg.horizon,
        attacker_noise=dataclasses.replace(attack.attacker_noise, quantization_step=0.0),
    )
    if isinstance(source, SyntheticSource):
        bases, trial_base, arrivals0 = _synthetic_trials(source, spec, cfg)
    elif isinstance(source, Trace):
        if message_id is None or period is None:
            raise ValueError("replay mode requires message_id and period")
        bases, trial_base, arrivals0 = _replay_trials(source, message_id, period, spec, cfg)
    else:
        raise TypeError(f"source must be SyntheticSource or Trace, got {type(source).__name__}")
    shift_units = _grid_shift_units(attack, vary, cfg.horizon * cfg.ids.batch_size)
    successes = _attack_phase(bases, trial_base, arrivals0, shift_units, cfg.grid,
                              attack.attacker_noise.quantization_step, cfg.horizon)
    return SuccessCurve(grid=cfg.grid, p_success=successes / cfg.trials,
                        trials=cfg.trials, horizon=cfg.horizon, source="EXPERIMENTAL")


def _grid_shift_units(attack, vary, count):
    """Per-arrival translation applied per unit of the swept parameter.

    Sweeping delta_t stretches every inter-transmission gap, so arrival j
    moves by 1 + j/(1 + attacker skew); sweeping mistiming moves the whole
    stream rigidly.
    """
    if vary == "delta_t":
        j = np.arange(count, dtype=np.float64)
        return 1.0 + j / (1.0 + attack.attacker_clock.skew)
    return np.ones(count, dtype=np.float64)


def _synthetic_trials(source, spec, cfg):
    """One warm state shared by every trial, and each trial's attack arrivals."""
    n = cfg.ids.batch_size
    _, trial_seeds = _synthetic_seeds(cfg)
    normal_count = (cfg.warmup_batches + 1) * n
    base_state = synthetic_warm_state(source, cfg)
    arrivals0 = np.array([
        attack_arrivals(spec, source.schedule, source.clock, source.noise.delay_mean,
                        normal_count, n, np.random.default_rng(int(seed)))
        for seed in trial_seeds
    ])
    return [base_state], np.zeros(cfg.trials, dtype=np.intp), arrivals0


def _replay_trials(trace, message_id, period, spec, cfg):
    """A warm state per trial, on the log window that trial starts after, and
    each trial's attack arrivals anchored to its window."""
    n = cfg.ids.batch_size
    a = trace.arrivals(message_id)
    warmup_len = (cfg.warmup_batches + 1) * n
    if len(a) < warmup_len + cfg.trials - 1:
        raise InsufficientDataError(
            f"replay needs {warmup_len + cfg.trials - 1} arrivals of id {message_id:#x}, got {len(a)}"
        )
    rng = np.random.default_rng(cfg.seed)
    trial_seeds = rng.integers(0, 2**63, size=cfg.trials)
    schedule = MessageSchedule(message_id, period)

    bases, arrivals0 = [], []
    for i, seed in enumerate(trial_seeds):
        window = a[i : i + warmup_len]
        state = _warmup_state(window, cfg, period)
        mu_hat, _ = state.inter_arrival_stats()
        # anchor the spoofed stream at the recorded stream's own cadence
        target_skew = period / mu_hat - 1.0
        arrivals = attack_arrivals(
            spec,
            dataclasses.replace(schedule, start_time=float(window[0])),
            ClockSpec(skew=target_skew),
            0.0,
            warmup_len,
            n,
            np.random.default_rng(int(seed)),
        )
        # re-anchor: the recorded last arrival replaces the synthetic one
        arrivals0.append(arrivals - (float(window[0]) + (warmup_len - 1) * mu_hat) + float(window[-1]))
        bases.append(state)
    return bases, np.arange(cfg.trials), np.array(arrivals0)


def _attack_phase(bases, trial_base, arrivals0, shift_units, grid, qstep, horizon):
    """Surviving trials per grid point. Stream (trial t, grid point g) starts
    from trial t's warm state and sees arrivals0[t] translated by
    grid[g] * shift_units, quantized. Batch k of every live stream is formed
    and advanced by one ``ids._step`` at once, so no (streams, horizon * N)
    array is built. Only what the variant reads is formed: each stream's
    whole batch for SOTA, for NTP its last arrival, gathered from the
    (horizon, trials) and (horizon, points) arrays of the last arrivals and
    their translations.

    An alarmed stream leaves the live set at once, but the arrays shrink only
    to the smallest power of two that holds the live streams: dropping
    streams at every alarm gave the per-step arrays a new size almost every
    step, and the heap fragmented (resident memory grew by about 3 MB per 100
    sweeps and kept growing).
    """
    n = bases[0].config.batch_size
    points = len(grid)
    trial, point = np.divmod(np.arange(len(arrivals0) * points), points)
    streams = _branch(bases, trial_base[trial], horizon)
    if bases[0].config.variant is Variant.NTP:
        last0 = np.ascontiguousarray(arrivals0[:, n - 1::n].T)
        last_shift = np.ascontiguousarray((grid[:, None] * shift_units[n - 1::n]).T)

        def batch(k, trial, point):
            return (last0[k][trial] + last_shift[k][point])[:, None]
    else:
        shift = grid[:, None] * shift_units  # each grid point's translation of each attack arrival

        def batch(k, trial, point):
            cols = slice(k * n, (k + 1) * n)
            # np.take of whole rows: half the cost of indexing rows and columns together
            rows = np.take(arrivals0[:, cols], trial, axis=0)
            rows += np.take(shift[:, cols], point, axis=0)
            return rows
    alive = np.ones(len(trial), dtype=bool)
    for k in range(horizon):
        alive &= ~_step(streams, quantize(batch(k, trial, point), qstep))[-1]
        live = int(np.count_nonzero(alive))
        if not live:
            break
        size = 1 << (live - 1).bit_length()
        if size < len(alive):
            keep = alive.copy()
            keep[np.flatnonzero(~alive)[: size - live]] = True
            _keep(streams, keep)
            trial, point, alive = trial[keep], point[keep], alive[keep]
    return np.bincount(point[alive], minlength=points)


def epsilon_msi(curve, epsilon):
    """Width of the grid region where success stays above 1 - epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    mask = curve.p_success > 1.0 - epsilon
    if not np.any(mask):
        return 0.0
    qualifying = curve.grid[mask]
    return float(qualifying.max() - qualifying.min())


def _trapezoid(y, x):
    return float(np.trapezoid(y, x)) if hasattr(np, "trapezoid") else float(np.trapz(y, x))


def ade(predicted, experimental):
    """Area deviation error in percent: 100 * int|P_pred - P_exp| / int P_exp.

    Curves on different grids are compared on the experimental grid, with the
    prediction resampled by linear interpolation. Experimental points outside
    the predicted grid's range are rejected rather than compared against a
    prediction held flat past its ends; the range is widened by a relative
    1e-11 for the rounding of grid values in curve CSVs.
    """
    x = experimental.grid
    p_exp = experimental.p_success
    if predicted.grid.shape == x.shape and np.allclose(predicted.grid, x):
        p_pred = predicted.p_success
    else:
        lo, hi = predicted.grid.min(), predicted.grid.max()
        tol = 1e-11 * max(abs(lo), abs(hi))
        outside = np.count_nonzero((x < lo - tol) | (x > hi + tol))
        if outside:
            raise ValueError(f"{outside} of {len(x)} experimental grid points lie outside the predicted "
                             f"grid [{lo:.6g}, {hi:.6g}]")
        p_pred = np.interp(x, predicted.grid, predicted.p_success)
    denom = _trapezoid(p_exp, x)
    if denom <= 0.0:
        raise ValueError("experimental curve has zero area")
    return 100.0 * _trapezoid(np.abs(p_pred - p_exp), x) / denom


@dataclass(frozen=True)
class ConsistencyCase:
    label: str
    skews_ppm: tuple
    sigma_ppm: float | None  # None when fewer than 2 estimates (insufficient variation)


@dataclass(frozen=True)
class ConsistencyResult:
    cases: dict  # variant value -> list of ConsistencyCase

    def to_csv(self):
        lines = ["variant,case,sigma_ppm,skews_ppm"]
        for variant, cases in self.cases.items():
            for c in cases:
                sigma = "" if c.sigma_ppm is None else f"{c.sigma_ppm:.6g}"
                lines.append(f"{variant},{c.label},{sigma}," + " ".join(f"{s:.6g}" for s in c.skews_ppm))
        return "\n".join(lines) + "\n"


def _final_skew_ppm(arrivals, config, period):
    """Final RLS skew of the detector pass over whole batches of ``arrivals``;
    the skew never reads the CUSUM, so the pass stops after the RLS stage."""
    n = config.batch_size
    k = len(arrivals) // n
    if k < 2:
        raise InsufficientDataError(f"need >= 2 batches of {n}, got {len(arrivals)} arrivals")
    _, _, o_acc, t = arrival_stage(np.reshape(arrivals[: k * n], (k, n)), config, period)
    return rls_stage(t, o_acc, config.rls_lambda)[1].skew * 1e6


def _sigma(values):
    return float(np.std(values, ddof=1)) if len(values) >= 2 else None


def consistency_study(traces, message_id, batch_sizes, config, period):
    """Spread of the final skew estimate under estimator perturbations.

    Case 1 varies the batch size, case 2 the batch start offset (1..N-1 at the
    first batch size), case 3 the trace (when several are given); each case
    reports the std of the final RLS skew in ppm, per detector variant.
    """
    if isinstance(traces, Trace):
        traces = [traces]
    if not batch_sizes:
        raise ValueError("batch_sizes must be non-empty")
    result = {}
    for variant in (Variant.SOTA, Variant.NTP):
        cases = []
        a = traces[0].arrivals(message_id)

        skews = []
        for n in batch_sizes:
            cfg_n = dataclasses.replace(config, variant=variant, batch_size=n)
            skews.append(_final_skew_ppm(a, cfg_n, period))
        cases.append(ConsistencyCase("batch_size", tuple(skews), _sigma(skews)))

        cfg_v = dataclasses.replace(config, variant=variant, batch_size=batch_sizes[0])
        skews = []
        for offset in range(1, cfg_v.batch_size):
            skews.append(_final_skew_ppm(a[offset:], cfg_v, period))
        cases.append(ConsistencyCase("start_offset", tuple(skews), _sigma(skews)))

        skews = []
        for trace in traces:
            skews.append(_final_skew_ppm(trace.arrivals(message_id), cfg_v, period))
        cases.append(ConsistencyCase("trace", tuple(skews), _sigma(skews)))
        result[variant.value] = cases
    return ConsistencyResult(cases=result)
