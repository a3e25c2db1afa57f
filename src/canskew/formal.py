"""Closed-form and recursive attack-success-probability models.

The SOTA detector gets a closed-form Gaussian bound on the first-batch
normalized error plus a linear decay rate; the NTP detector gets a
deterministic state forecast feeding a backward recursion over the joint
CUSUM control-limit state. Each model takes a curve's whole delta-T grid in
one array pass, and each point comes out exactly as it would alone: the
closed form on (G,) arrays, the forecast and the recursion stepping the
horizon's batches once over every grid point together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import SuccessCurve
from .ids import _ARRAY_OPS, _SIGMA_FLOOR, REFERENCE_CAP, IdsConfig, Variant, _add_references, rls_stage

__all__ = [
    "Snapshot",
    "SotaPrediction",
    "NtpForecast",
    "CusumRecursionConfig",
    "take_snapshot",
    "gaussian_cdf",
    "sota_initial_error",
    "sota_tau",
    "sota_success_prob",
    "lplus_max",
    "ntp_forecast",
    "ntp_success_curve",
    "cusum_success_recursion",
    "success_curve",
    "snapshot_to_csv",
    "snapshot_from_csv",
]


_erfc = np.frompyfunc(math.erfc, 1, 1)  # per entry: numpy has no erfc, and only the recursion loads scipy


def gaussian_cdf(x, mean=0.0, std=1.0):
    """Normal CDF, entry by entry, via the complementary error function (abs. error < 1e-12)."""
    if std <= 0.0:
        return np.where(x < mean, 0.0, np.where(x == mean, 0.5, 1.0))[()]
    return 0.5 * np.float64(_erfc((mean - x) / (std * math.sqrt(2.0))))


@dataclass(frozen=True)
class Snapshot:
    """Frozen detector state at batch m-1, right before an attack at batch m."""

    config: IdsConfig
    period: float | None
    mu: float                 # pre-attack mean inter-arrival
    sigma: float              # pre-attack inter-arrival std
    prev_batch_mean: float    # mu[m-1] (SOTA offset estimator)
    o_acc: float              # O_acc[m-1]
    t: float                  # t[m-1]
    skew: float               # S[m-1]
    mu_cusum: float
    sigma_cusum: float
    reference_errors: tuple
    ot_sum: float = 0.0       # lambda-weighted sum of O_acc * t over batches 1..m-1
    tt_sum: float = 0.0       # lambda-weighted sum of t * t over batches 1..m-1
    start_batch: int = 1      # m

    def __post_init__(self):
        # scalars and the reference count only: the reference errors are
        # read as they are used. Written so that NaN fails each check
        if len(self.reference_errors) < 2:  # as arming the detector needs
            raise ValueError(f"snapshot requires at least 2 reference errors, got {len(self.reference_errors)}")
        if not (self.period is None or 0.0 < self.period < math.inf):
            raise ValueError(f"snapshot requires a finite period > 0 or none, got {self.period}")
        for name in ("sigma", "sigma_cusum"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"snapshot requires a finite {name} > 0, got {getattr(self, name)}")
        for name in ("mu", "mu_cusum", "prev_batch_mean", "o_acc", "t", "skew", "ot_sum", "tt_sum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"snapshot requires a finite {name}, got {getattr(self, name)}")


@dataclass(frozen=True)
class SotaPrediction:
    """The SOTA model at a delta-T, or (all fields but sigma_e) at each of a grid."""

    mu_e: float
    sigma_e: float
    tau: float
    p_success: float


@dataclass(frozen=True)
class CusumRecursionConfig:
    grid_resolution: int = 100
    # read by nothing (the recursion's horizon is the length of its density
    # sequences); kept while the benchmark constructs the config with it
    horizon: int = 60

    def __post_init__(self):
        if self.grid_resolution < 10:
            raise ValueError("grid_resolution must be >= 10")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


_FORECAST_COLUMNS = ("t_hat", "o_acc_hat", "skew_hat", "e_hat", "mu_cusum_hat", "sigma_cusum_hat",
                     "e_n_mean", "e_n_std")


@dataclass(frozen=True)
class NtpForecast:
    """Deterministic per-batch forecast of the NTP detector under attack,
    plus the Gaussian parameters of each batch's normalized error, for every
    delta-T of a grid.

    ``delta_t`` is the (G,) grid and ``batches`` the (H,) attack batches;
    every other column is (G, H), row g being the forecast at ``delta_t[g]``.
    """

    delta_t: np.ndarray
    batches: np.ndarray
    t_hat: np.ndarray
    o_acc_hat: np.ndarray
    skew_hat: np.ndarray
    e_hat: np.ndarray
    mu_cusum_hat: np.ndarray
    sigma_cusum_hat: np.ndarray
    e_n_mean: np.ndarray
    e_n_std: np.ndarray

    def to_csv(self):
        """The forecast as one table: delta_t, batch, then the forecast
        columns, one row per (delta-T, batch)."""
        from . import _digits  # its tables load on the first write, not with the package
        horizon = len(self.batches)
        columns = [np.repeat(self.delta_t, horizon), np.tile(self.batches, len(self.delta_t)),
                   *(getattr(self, name).ravel() for name in _FORECAST_COLUMNS)]
        return "".join([",".join(["delta_t", "batch", *_FORECAST_COLUMNS]) + "\n", *_digits.table(columns)])


def take_snapshot(report, state, m):
    """Freeze the detector at batch m-1 from a finished (or paused) run;
    ``report`` may be None when only the state is at hand."""
    if report is not None and len(report) < m - 1:
        raise ValueError(f"report covers {len(report)} batches, need >= {m - 1}")
    if state.batch_index != m - 1:
        raise ValueError(f"state is at batch {state.batch_index}, snapshot wants m-1 = {m - 1}")
    mu, sigma = state.inter_arrival_stats()
    return Snapshot(
        config=state.config,
        period=state.period,
        mu=mu,
        sigma=sigma,
        prev_batch_mean=state.prev_batch_mean,
        o_acc=state.o_acc,
        t=state.elapsed,
        skew=state.rls.skew,
        mu_cusum=state.cusum.mu_cusum,
        sigma_cusum=state.cusum.sigma_cusum,
        reference_errors=tuple(state.cusum.reference_errors),
        ot_sum=state.rls.ot_sum,
        tt_sum=state.rls.tt_sum,
        start_batch=m,
    )


def sota_initial_error(snapshot, delta_t):
    """Mean and std of the unnormalized identification error in the first
    attack batch (SOTA), at a delta-T or at each of a grid (one std)."""
    n = snapshot.config.batch_size
    s = snapshot.skew
    shifted = snapshot.mu + delta_t  # also the modeled gap into the first attack batch
    mu_e = (
        snapshot.o_acc
        + 0.5 * n * np.abs(shifted - snapshot.prev_batch_mean)
        - s * (snapshot.t + shifted + (n - 1) * shifted)
    )
    var_e = 0.5 * ((n - 2.0 * s) / (n - 1.0) + 2.0 * s * s - 2.0 * s) * snapshot.sigma**2
    return mu_e, math.sqrt(var_e)


def sota_tau(snapshot, delta_t):
    """Per-batch decay rate of the normalized error after the attack (SOTA)."""
    n = snapshot.config.batch_size
    shifted = snapshot.mu + delta_t
    return np.abs(
        (snapshot.sigma * math.sqrt(n / (math.pi * (n - 1))) - snapshot.skew * n * shifted)
        / snapshot.sigma_cusum
    )


def lplus_max(e_n0, tau, kappa):
    """Peak value of the upper control limit for a linearly decaying
    normalized-error sequence starting at e_n0."""
    if e_n0 <= kappa:
        return 0.0
    if tau <= 0.0:
        return math.inf
    return (e_n0 - kappa) ** 2 / (2.0 * tau) + (e_n0 - kappa) / 2.0


def sota_success_prob(snapshot, delta_t):
    """Closed-form cloaking success probability against the SOTA detector,
    at a delta-T or, in one array pass, at each delta-T of a grid."""
    mu_e, sigma_e = sota_initial_error(snapshot, delta_t)
    tau = sota_tau(snapshot, delta_t)
    kappa, big_gamma = snapshot.config.sensitivity, snapshot.config.detection_threshold
    # non-decaying sub-kappa errors never charge the limits: hi = kappa
    hi = np.where(tau > 0.0, (-tau + np.sqrt(tau * tau + 8.0 * tau * big_gamma)) / 2.0, 0.0) + kappa
    mean = (mu_e - snapshot.mu_cusum) / snapshot.sigma_cusum
    std = sigma_e / snapshot.sigma_cusum
    p = gaussian_cdf(hi, mean, std) - gaussian_cdf(-hi, mean, std)
    return SotaPrediction(mu_e=mu_e, sigma_e=sigma_e, tau=tau, p_success=np.clip(p, 0.0, 1.0))


def ntp_forecast(snapshot, delta_t_grid, horizon):
    """Forecast the NTP detector's state over ``horizon`` attack batches, for
    every delta-T of a 1-d grid.

    Noise terms are taken at their means, the RLS output is approximated by
    the lambda-weighted least-squares slope, which starts from the
    snapshot's sums over batches 1..m-1 and takes in each forecast batch,
    and each forecast error joins the CUSUM references by the detector's
    rules (``ids._limits``' e_n, the strict gate, ``ids._add_references``).
    The batches are stepped once over (G,) arrays, and each row comes out
    exactly as a one-point grid gives it.
    """
    delta_t = np.asarray(delta_t_grid, dtype=np.float64)
    if delta_t.ndim != 1:
        raise ValueError(f"NTP forecast takes a 1-d delta-T grid, got shape {delta_t.shape}")
    if snapshot.period is None:
        raise ValueError("NTP forecast requires the nominal period in the snapshot")
    if not snapshot.tt_sum > 0.0:
        raise ValueError("NTP forecast requires the pre-attack least-squares sums ot_sum and tt_sum "
                         f"(tt_sum must be > 0, got {snapshot.tt_sum})")
    if horizon > REFERENCE_CAP:  # the set would evict forecast errors, which it does not keep
        raise ValueError(f"NTP forecast takes at most {REFERENCE_CAP} batches, got {horizon}")
    cfg = snapshot.config
    n, lam = cfg.batch_size, cfg.rls_lambda
    shifted = snapshot.mu + delta_t
    drift = (snapshot.period - snapshot.mu) - delta_t  # per-period offset O, less delta-T
    sigma_eta = snapshot.sigma / math.sqrt(2.0)
    size = delta_t.shape
    skew_hat, mu_hat, sigma_hat, e_n_mean = (np.empty(size + (horizon,)) for _ in range(4))
    # a delta-T large enough to overflow gives non-finite densities the recursion refuses
    with np.errstate(all="ignore"):
        # t and O_acc of batches j = 1..H: t + j N (mu + delta-T) and O_acc + j N O
        steps = np.arange(1, horizon + 1) * n
        t_hat = snapshot.t + np.multiply.outer(shifted, steps)
        o_hat = snapshot.o_acc + np.multiply.outer(drift, steps)
        # the least-squares slope after each batch; batch j's error takes the one before it
        ot, tt = o_hat * t_hat, t_hat * t_hat
        a_sum, b_sum = np.full(size, snapshot.ot_sum), np.full(size, snapshot.tt_sum)
        for j in range(horizon):
            a_sum = lam * a_sum + ot[:, j]
            b_sum = lam * b_sum + tt[:, j]
            skew_hat[:, j] = a_sum / b_sum
        skew_prev = np.column_stack((np.full(size, snapshot.ot_sum / snapshot.tt_sum), skew_hat[:, :-1]))
        e_hat = o_hat - skew_prev * t_hat

        # the references, batch by batch; float counts, as in the detector's branched streams
        ref = snapshot.reference_errors
        refs, evicted = np.array(ref, dtype=np.float64), np.zeros(size, dtype=np.intp)
        ref_n, ref_sum, ref_sumsq = (np.full(size, float(v)) for v in (len(ref), sum(ref), sum(e * e for e in ref)))
        mu_c, sigma_c = np.full(size, snapshot.mu_cusum), np.full(size, snapshot.sigma_cusum)
        for j in range(horizon):
            mu_hat[:, j], sigma_hat[:, j] = mu_c, sigma_c
            e_n = e_n_mean[:, j] = (e_hat[:, j] - mu_c) / np.maximum(sigma_c, _SIGMA_FLOOR)
            update = np.abs(e_n) < cfg.update_threshold
            evicted, ref_n, ref_sum, ref_sumsq, mu, sigma = _add_references(
                refs, evicted, ref_n, ref_sum, ref_sumsq, ((update, e_hat[:, j]),), None, _ARRAY_OPS)
            mu_c = np.where(update, mu, mu_c)
            sigma_c = np.where(update, sigma, sigma_c)
        e_n_std = np.abs(1.0 + skew_prev) * sigma_eta / np.maximum(sigma_hat, _SIGMA_FLOOR)
    m = snapshot.start_batch
    return NtpForecast(delta_t=delta_t, batches=np.arange(m, m + horizon), t_hat=t_hat, o_acc_hat=o_hat,
                       skew_hat=skew_hat, e_hat=e_hat, mu_cusum_hat=mu_hat, sigma_cusum_hat=sigma_hat,
                       e_n_mean=e_n_mean, e_n_std=e_n_std)


def cusum_success_recursion(error_densities, big_gamma, kappa, cfg):
    """Probability that neither CUSUM limit exceeds the detection threshold
    within the horizon, by backward recursion over the limit state.

    ``error_densities`` holds the (mean, std) Gaussian parameters of the
    normalized error, one per attack batch, in batch order: an (H, 2)
    sequence, for which the result is a float, or a (G, H, 2) block of G
    such sequences, for which it is a (G,) array. The rows of a block step
    together, and each gets exactly the probability its own sequence gives.
    Requires the modeling assumption kappa >= Gamma, under which at most one
    control limit is nonzero at a time and the state space collapses to the
    two axes of [0, Gamma]^2.

    The transition kernels are Toeplitz: on grid node z_i and cell midpoint
    u_j they depend only on z_i - u_j = (i - j - 1/2) h. Each step therefore
    evaluates the Gaussian density on the 2M distinct offsets only and
    applies the (M+1) x M kernels as a convolution of that vector with g.
    Once both axes of a row's g are exactly 0, every earlier step keeps them
    at 0 (the kernels act on zeros and the reset term is scaled by
    g(0, 0) = 0), so the row leaves the recursion there with 0.0.
    """
    # loaded here, not with the module: scipy.special adds about 24 MB of
    # resident memory to every process that imports canskew, and only this
    # recursion uses it
    from scipy.special import ndtr

    if kappa < big_gamma:
        raise ValueError(f"recursion assumes kappa >= Gamma, got kappa={kappa}, Gamma={big_gamma}")
    densities = np.asarray(error_densities, dtype=np.float64)
    single = densities.ndim == 2
    if single:
        densities = densities[np.newaxis]
    if densities.ndim != 3 or densities.shape[1] == 0 or densities.shape[2] != 2:
        raise ValueError("need at least one error density: an (H, 2) or (G, H, 2) array of (mean, std), H >= 1")
    if not np.isfinite(densities).all():
        raise ValueError("error densities must be finite")
    if np.any(densities[..., 1] <= 0.0):
        raise ValueError("error densities must have positive std")
    big_m = cfg.grid_resolution
    h = big_gamma / big_m
    z = np.linspace(0.0, big_gamma, big_m + 1)
    # z_i - kappa - u_j on the offsets i - j = -(M-1) .. M; the "valid" part
    # of its convolution with a length-M vector is indexed by i = 0 .. M
    lower_arg = (np.arange(1 - big_m, big_m + 1) - 0.5) * h - kappa
    # one density call per step: the lower limit's offsets, then the upper's
    pdf_at = np.concatenate([lower_arg, -lower_arg])
    # one cdf call per step: kappa - z, z - kappa, -kappa, kappa
    cdf_at = np.concatenate([kappa - z, z - kappa, [-kappa, kappa]])
    pdf_scale = math.sqrt(2.0 * math.pi)

    rows, horizon = densities.shape[:2]
    p = np.zeros(rows)
    live = np.arange(rows)
    g_plus = np.ones((rows, big_m + 1))   # g(z, 0)
    g_minus = np.ones((rows, big_m + 1))  # g(0, z)
    conv = np.empty((rows, 2, big_m + 1))
    for k in range(horizon - 1, -1, -1):
        alive = g_plus.any(axis=1) | g_minus.any(axis=1)
        if not alive.all():
            live, g_plus, g_minus = live[alive], g_plus[alive], g_minus[alive]
            if not live.size:
                break
        mean = densities[live, k, :1]
        std = densities[live, k, 1:]
        g_mid_minus = 0.5 * (g_minus[:, :-1] + g_minus[:, 1:])
        g_mid_plus = 0.5 * (g_plus[:, :-1] + g_plus[:, 1:])
        g00 = g_minus[:, :1]

        pdf = np.exp(-0.5 * ((pdf_at - mean) / std) ** 2) / (std * pdf_scale)
        cdf = ndtr((cdf_at - mean) / std)
        for row in range(live.size):
            conv[row, 0] = np.convolve(pdf[row, :2 * big_m], g_mid_minus[row], "valid")
            conv[row, 1] = np.convolve(pdf[row, 2 * big_m:], g_mid_plus[row], "valid")
        # term 1: lower limit lands in (0, Gamma];  r = z_minus - kappa - u
        term1 = h * conv[:live.size, 0]
        # term 3: upper limit lands in (0, Gamma];  r = kappa - z_plus + u
        term3 = h * conv[:live.size, 1]
        # term 2: both limits reset to zero
        p_mid_plus = cdf[:, :big_m + 1] - cdf[:, -2:-1]
        p_mid_minus = cdf[:, -1:] - cdf[:, big_m + 1:-2]

        g_plus = np.clip(term1[:, :1] + g00 * p_mid_plus + term3, 0.0, 1.0)
        g_minus = np.clip(term1 + g00 * p_mid_minus + term3[:, :1], 0.0, 1.0)
    p[live] = g_minus[:, 0]
    return float(p[0]) if single else p


def _curve_grid(delta_t_grid, horizon):
    """A predicted curve's grid, checked together with its horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    grid = np.asarray(delta_t_grid, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"delta_t_grid must be 1-d, got shape {grid.shape}")
    if grid.size == 0:
        raise ValueError("delta_t_grid must be non-empty")
    if np.any(np.diff(grid) < 0):
        raise ValueError("delta_t_grid must be sorted")
    return grid


def ntp_success_curve(snapshot, delta_t_grid, horizon=60, recursion_cfg=None):
    """The NTP model's predicted success curve over a delta-T grid, and the
    ``ntp_forecast`` it was computed from: one forecast pass and one
    recursion for the grid."""
    grid = _curve_grid(delta_t_grid, horizon)
    forecast = ntp_forecast(snapshot, grid, horizon)
    densities = np.stack([forecast.e_n_mean, forecast.e_n_std], axis=-1)
    p = cusum_success_recursion(densities, snapshot.config.detection_threshold, snapshot.config.sensitivity,
                                recursion_cfg or CusumRecursionConfig())
    return SuccessCurve(grid=grid, p_success=p, trials=0, horizon=horizon, source="PREDICTED"), forecast


def success_curve(snapshot, delta_t_grid, horizon=60, recursion_cfg=None):
    """Predicted success-probability curve over a delta-T grid, using the
    model matching the snapshot's detector variant."""
    if snapshot.config.variant is not Variant.SOTA:
        return ntp_success_curve(snapshot, delta_t_grid, horizon, recursion_cfg)[0]
    grid = _curve_grid(delta_t_grid, horizon)
    p = sota_success_prob(snapshot, grid).p_success
    return SuccessCurve(grid=grid, p_success=p, trials=0, horizon=horizon, source="PREDICTED")


_CONFIG_FLOATS = ("rls_lambda", "update_threshold", "detection_threshold", "sensitivity")
_SCALAR_FIELDS = (
    "period", "mu", "sigma", "prev_batch_mean", "o_acc", "t", "skew",
    "mu_cusum", "sigma_cusum",
)


def snapshot_to_csv(snapshot):
    """Serialize a snapshot as key,value lines: scalars as ``repr`` writes
    them, the reference errors as hex float tokens separated by spaces
    (``_digits.hex_floats``), which read back exactly. No key or value holds
    a comma, so none is quoted."""
    from . import _digits  # its tables load on the first write, not with the package
    try:
        references = _digits.hex_floats(snapshot.reference_errors)
    except ValueError as exc:
        raise ValueError(f"snapshot requires finite reference_errors: {exc}") from None
    cfg = snapshot.config
    rows = [("key", "value"), ("variant", cfg.variant.value), ("batch_size", cfg.batch_size)]
    rows += [(name, repr(getattr(cfg, name))) for name in _CONFIG_FLOATS]
    rows.append(("start_batch", snapshot.start_batch))
    rows += [(name, "" if getattr(snapshot, name) is None else repr(getattr(snapshot, name)))
             for name in _SCALAR_FIELDS]
    rows += [("ot_sum", repr(snapshot.ot_sum)), ("tt_sum", repr(snapshot.tt_sum)),
             ("reference_errors", references)]
    return "".join(f"{key},{value}\n" for key, value in rows)


def _floats(text):
    return tuple(map(float, text.split()))


def _reference_errors(text):
    """The reference errors of a snapshot row: hex float tokens, or in older
    files decimal ones; either way all finite."""
    from . import _digits
    try:
        if text.startswith(("+0x", "-0x")):
            return tuple(_digits.parse_hex_floats(text).tolist())
        values = _floats(text)
        finite = np.isfinite(values)
        if not finite.all():
            index = int(np.argmin(finite))
            raise ValueError(f"value {index} is {values[index]!r}, not finite")
        return values
    except ValueError as exc:
        raise ValueError(f"snapshot field reference_errors: {exc}") from None


def snapshot_from_csv(text):
    """Parse what ``snapshot_to_csv`` writes. The lines are split at their
    first comma rather than read with the csv module, whose per-field size
    limit a full 10 000-entry reference set exceeds. Older files write the
    reference errors in decimal, and older still carry each batch's O_acc
    and t in place of the sums; the RLS stage folds them."""
    lines = text.splitlines()
    if not lines or lines[0] != "key,value":
        raise ValueError("expected header 'key,value'")
    raw = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        key, sep, value = line.partition(",")
        if not sep:
            raise ValueError(f"snapshot line {number}: expected key,value, got {line[:40]!r}")
        raw[key] = value
    try:
        config = IdsConfig(variant=Variant(raw["variant"]), batch_size=int(raw["batch_size"]),
                           **{name: float(raw[name]) for name in _CONFIG_FLOATS})
        kwargs = {"config": config, "start_batch": int(raw.get("start_batch", 1))}
        for name in _SCALAR_FIELDS:
            value = raw[name]
            kwargs[name] = None if value == "" else float(value)
        kwargs["reference_errors"] = _reference_errors(raw.get("reference_errors", ""))
        if "tt_sum" in raw:
            kwargs["ot_sum"], kwargs["tt_sum"] = float(raw["ot_sum"]), float(raw["tt_sum"])
        else:
            t, o_acc = _floats(raw.get("t_history", "")), _floats(raw.get("o_acc_history", ""))
            rls = rls_stage(t, o_acc, config.rls_lambda)[1]
            kwargs["ot_sum"], kwargs["tt_sum"] = rls.ot_sum, rls.tt_sum
    except KeyError as exc:
        raise ValueError(f"snapshot file is missing field {exc}") from exc
    return Snapshot(**kwargs)
