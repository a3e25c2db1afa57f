"""Property-based tests of the module invariants."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canskew.clock import (
    ClockSpec,
    MessageSchedule,
    NoiseModel,
    invert_relative_skew,
    quantize,
    relative_skew,
    synthesize_trace,
)
from canskew.correlation import pearson
from canskew.curves import SuccessCurve
from canskew.formal import (
    CusumRecursionConfig,
    Snapshot,
    cusum_success_recursion,
    gaussian_cdf,
    lplus_max,
    ntp_forecast,
    snapshot_from_csv,
    snapshot_to_csv,
    sota_initial_error,
    sota_success_prob,
    success_curve,
    take_snapshot,
)
from canskew.harness import epsilon_msi
from canskew.ids import Variant, rls_stage, run_ids
from canskew.traceio import LogFormat, parse_log, write_trace
from conftest import make_config

skews = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
small_skews = st.floats(min_value=-1e-3, max_value=1e-3)


class TestClockAlgebra:
    @given(skew_b=skews, skew_a=skews)
    def test_relative_skew_inversion_identity(self, skew_b, skew_a):
        s_ba = relative_skew(skew_b, skew_a)
        s_ab = invert_relative_skew(s_ba)
        assert (1.0 + s_ab) * (1.0 + s_ba) == pytest.approx(1.0, abs=1e-12)

    @given(skew=small_skews, period=st.floats(min_value=1e-3, max_value=1.0))
    def test_noiseless_inter_arrival_is_receiver_period(self, skew, period):
        trace = synthesize_trace(MessageSchedule(1, period), ClockSpec(skew=skew), NoiseModel(), 50, seed=0)
        diffs = np.diff(trace.arrivals(1))
        assert np.allclose(diffs, period / (1.0 + skew), rtol=1e-9, atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_synthesis_reproducible(self, seed):
        kwargs = dict(schedule=MessageSchedule(1, 0.1), clock=ClockSpec(skew=1e-4, jitter_std=1e-5),
                      noise=NoiseModel(delay_std=1e-5), count=50, seed=seed)
        assert synthesize_trace(**kwargs) == synthesize_trace(**kwargs)

    @given(step=st.floats(min_value=1e-7, max_value=1e-3))
    def test_quantize_idempotent(self, step):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 10.0, 100)
        once = quantize(x, step)
        assert np.allclose(quantize(once, step), once, atol=1e-15)


class TestIdsInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           jitter=st.floats(min_value=1e-6, max_value=1e-4))
    @settings(max_examples=10, deadline=None)
    def test_run_invariants(self, seed, jitter):
        trace = synthesize_trace(MessageSchedule(1, 0.05), ClockSpec(skew=2e-4, jitter_std=jitter),
                                 NoiseModel(), 500, seed=seed)
        for variant in Variant:
            report = run_ids(trace, 1, make_config(variant, batch_size=10),
                             warmup_batches=5, period=0.05)
            assert np.all(report.l_plus >= 0.0) and np.all(report.l_minus >= 0.0)
            if variant is Variant.NTP:
                assert np.allclose(report.o_acc, report.batch * 10 * 0.05 - report.t, rtol=0.0, atol=1e-8)
            else:
                assert np.all(np.diff(report.o_acc) >= 0.0)

    @given(slope=st.floats(min_value=-1e-3, max_value=1e-3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_rls_lambda_one_equals_normal_equation(self, slope, seed):
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.1, 2.0, 60))
        y = slope * t + rng.normal(0.0, 1e-6, 60)
        _, rls = rls_stage(t, y, 1.0)
        expected = float(np.dot(y, t) / np.dot(t, t))
        assert rls.skew == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestSnapshotInvariants:
    @given(variant=st.sampled_from(list(Variant)),
           lam=st.floats(min_value=0.9, max_value=1.0),
           warmup=st.integers(min_value=1, max_value=80),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_history_form_gives_the_same_forecasts(self, variant, lam, warmup, seed):
        # a snapshot file in the earlier form, with the O_acc and t of every
        # batch in place of the least-squares sums, forecasts as the snapshot
        # of the same run does
        n, period = 5, 0.05
        trace = synthesize_trace(MessageSchedule(1, period), ClockSpec(skew=1e-4, jitter_std=2e-5),
                                 NoiseModel(), (warmup + 3) * n, seed=seed)
        report = run_ids(trace, 1, make_config(variant, batch_size=n, rls_lambda=lam), warmup, period=period)
        snap = take_snapshot(report, report.final_state, len(report) + 1)
        text = snapshot_to_csv(snap)
        assert snapshot_from_csv(text) == snap
        sums = f"ot_sum,{snap.ot_sum!r}\ntt_sum,{snap.tt_sum!r}\n"
        histories = "".join(f"{key},{' '.join(map(repr, column.tolist()))}\n"
                            for key, column in (("o_acc_history", report.o_acc), ("t_history", report.t)))
        assert sums in text
        old = snapshot_from_csv(text.replace(sums, histories))
        grid = np.arange(-2, 3) * 1e-6
        new_fc, old_fc = ntp_forecast(snap, grid, 10), ntp_forecast(old, grid, 10)
        for name in ("t_hat", "o_acc_hat", "skew_hat", "e_hat", "mu_cusum_hat", "sigma_cusum_hat",
                     "e_n_mean", "e_n_std"):
            assert getattr(new_fc, name).tobytes() == getattr(old_fc, name).tobytes(), name


@st.composite
def density_blocks(draw, kappa=8.0, big_gamma=5.0):
    """(G, H, 2) blocks of (mean, std) whose rows mix dead-zone sequences,
    sequences with one batch far past kappa + Gamma (each row at its own
    batch, so rows leave the recursion at different steps) and free ones."""
    horizon = draw(st.integers(min_value=1, max_value=8))
    rows = draw(st.lists(st.sampled_from(("dead", "far", "free")), min_size=1, max_size=6))
    stds = st.floats(min_value=0.05, max_value=5.0)
    block = np.empty((len(rows), horizon, 2))
    for g, kind in enumerate(rows):
        for k in range(horizon):
            if kind == "dead":
                block[g, k] = draw(st.floats(min_value=-1.0, max_value=1.0)), draw(st.floats(0.05, 0.5))
            else:
                block[g, k] = draw(st.floats(min_value=-30.0, max_value=30.0)), draw(stds)
        if kind == "far":
            k = draw(st.integers(min_value=0, max_value=horizon - 1))
            sign = draw(st.sampled_from((-1.0, 1.0)))
            block[g, k, 0] = sign * (kappa + big_gamma + draw(st.floats(40.0, 1e3)) * block[g, k, 1])
    return block


class TestFormalInvariants:
    @given(sigma=st.floats(min_value=1e-6, max_value=1e-3),
           ratio=st.floats(min_value=0.2, max_value=5.0),
           skew=st.floats(min_value=-1e-3, max_value=1e-3),
           gap=st.floats(min_value=-12.0, max_value=12.0),
           shift=st.floats(min_value=6.0, max_value=11.0),
           sign=st.sampled_from((-1.0, 1.0)),
           steps=st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_sota_grid_is_the_pointwise_scalars(self, sigma, ratio, skew, gap, shift, sign, steps):
        # at delta-T 0 the first-batch error's mean lies 6 to 11 sigma_cusum
        # from mu_cusum, near the bound hi >= kappa = 8, so the curve passes
        # through 0 < p < 1; grid and batch-mean gap are in units of sigma / N
        unit = sigma / 20
        snap = Snapshot(config=make_config(Variant.SOTA), period=0.1, mu=0.1, sigma=sigma,
                        prev_batch_mean=0.1 + gap * unit, o_acc=0.0, t=200.0, skew=skew, mu_cusum=0.0,
                        sigma_cusum=ratio * sigma, reference_errors=())
        snap = replace(snap, mu_cusum=float(sota_initial_error(snap, 0.0)[0]) - sign * shift * snap.sigma_cusum)
        grid = np.sort(np.array(steps) * unit)
        scalars = [sota_success_prob(snap, dt) for dt in grid.tolist()]
        assert success_curve(snap, grid).p_success.tobytes() == np.array([p.p_success for p in scalars]).tobytes()
        whole = sota_success_prob(snap, grid)
        for name in ("mu_e", "tau"):
            assert getattr(whole, name).tobytes() == np.array([getattr(p, name) for p in scalars]).tobytes(), name
        assert {whole.sigma_e} == {p.sigma_e for p in scalars}

    @given(mean=st.floats(min_value=-20, max_value=20),
           std=st.floats(min_value=0.1, max_value=5.0),
           n=st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_recursion_probability_bounds(self, mean, std, n):
        p = cusum_success_recursion([(mean, std)] * n, 5.0, 8.0,
                                    CusumRecursionConfig(grid_resolution=30))
        assert 0.0 <= p <= 1.0

    @given(prefix=st.lists(st.tuples(st.floats(min_value=-30, max_value=30),
                                     st.floats(min_value=0.05, max_value=5.0)), max_size=8),
           sign=st.sampled_from((-1.0, 1.0)),
           std=st.floats(min_value=0.05, max_value=5.0),
           sigmas_out=st.floats(min_value=40.0, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_far_last_batch_gives_exact_zero(self, prefix, sign, std, sigmas_out):
        # the last batch lands beyond kappa + Gamma on either side with
        # certainty, whatever happened before it
        kappa, big_gamma = 8.0, 5.0
        last = (sign * (kappa + big_gamma + sigmas_out * std), std)
        p = cusum_success_recursion(prefix + [last], big_gamma, kappa,
                                    CusumRecursionConfig(grid_resolution=30))
        assert p == 0.0

    @given(block=density_blocks(), resolution=st.sampled_from((10, 30, 37)))
    @settings(max_examples=60, deadline=None)
    def test_recursion_block_equals_rows(self, block, resolution):
        cfg = CusumRecursionConfig(grid_resolution=resolution)
        rows = [cusum_success_recursion(densities, 5.0, 8.0, cfg) for densities in block]
        assert np.array_equal(cusum_success_recursion(block, 5.0, 8.0, cfg), rows)

    @given(block=density_blocks(), data=st.data(),
           bad=st.sampled_from(((0, math.nan), (0, math.inf), (0, -math.inf),
                                (1, math.nan), (1, math.inf), (1, 0.0), (1, -1.0))))
    @settings(max_examples=40, deadline=None)
    def test_recursion_block_refuses_any_bad_density(self, block, data, bad):
        row = data.draw(st.integers(0, block.shape[0] - 1))
        step = data.draw(st.integers(0, block.shape[1] - 1))
        column, value = bad
        block[row, step, column] = value
        with pytest.raises(ValueError, match="finite|positive std"):
            cusum_success_recursion(block, 5.0, 8.0, CusumRecursionConfig(grid_resolution=10))

    @given(e0=st.floats(min_value=8.01, max_value=30.0),
           tau=st.floats(min_value=0.01, max_value=5.0))
    def test_lplus_max_nonnegative(self, e0, tau):
        assert lplus_max(e0, tau, 8.0) >= 0.0

    @given(x=st.floats(min_value=-30, max_value=30),
           mean=st.floats(min_value=-5, max_value=5),
           std=st.floats(min_value=0.01, max_value=10))
    def test_gaussian_cdf_bounds_and_symmetry(self, x, mean, std):
        p = gaussian_cdf(x, mean, std)
        assert 0.0 <= p <= 1.0
        mirrored = gaussian_cdf(2 * mean - x, mean, std)
        assert p + mirrored == pytest.approx(1.0, abs=1e-12)


class TestIoInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           fmt=st.sampled_from(list(LogFormat)))
    @settings(max_examples=25)
    def test_round_trip_microsecond_identity(self, seed, fmt):
        trace = synthesize_trace(MessageSchedule(0x77, 0.02, start_time=0.5),
                                 ClockSpec(jitter_std=1e-5),
                                 NoiseModel(quantization_step=1e-6), 40, seed=seed)
        restored = parse_log(write_trace(trace, fmt), fmt)
        assert np.array_equal(np.round(restored.times * 1e6), np.round(trace.times * 1e6))
        assert parse_log(write_trace(restored, fmt), fmt) == restored


class TestMetricInvariants:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           eps=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=25)
    def test_epsilon_msi_within_grid_span(self, seed, eps):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(-1e-5, 1e-5, 21))
        curve = SuccessCurve(grid=grid, p_success=rng.uniform(0, 1, 21))
        width = epsilon_msi(curve, eps)
        assert 0.0 <= width <= grid[-1] - grid[0]

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_pearson_bounds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 50)
        y = rng.normal(0, 1, 50)
        assert -1.0 <= pearson(x, y) <= 1.0
