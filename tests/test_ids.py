"""Detector building blocks and end-to-end runs for both variants."""
import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canskew import _digits, ids
from canskew.attacks import AttackSpec, attack_arrivals, cloaked_trace, compute_delta_t0
from canskew.clock import (
    ClockSpec,
    InsufficientDataError,
    MessageSchedule,
    NoiseModel,
    Trace,
    ppm,
    quantize,
    synthesize_trace,
)
from canskew.harness import _attack_phase, _grid_shift_units
from canskew.ids import (
    CUSUM_BOOTSTRAP_BATCHES,
    REFERENCE_CAP,
    RLS_INITIAL_P,
    CusumState,
    DetectionReport,
    IdsConfig,
    Variant,
    _branch,
    _cusum_streams,
    _step,
    arrival_stage,
    batch_arrivals,
    cusum_stage,
    rls_stage,
    run_ids,
)
from conftest import make_config

# DetectionReport rows: batch, five floats, e_n, two floats, alarm; with no
# e_n
_ROW = "%d" + ",%.12g" * 8 + ",%d"
_ROW_NO_E_N = "%d" + ",%.12g" * 5 + "," + ",%.12g" * 2 + ",%d"


def csv_one_by_one(report):
    """``report.to_csv()`` formatted row by row: each row as the full
    template, or without e_n where it is NaN."""
    want = ["batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm"]
    columns = (report.o_avg, report.o_acc, report.t, report.skew, report.e, report.e_n, report.l_plus,
               report.l_minus, report.alarm.astype(int))
    for k, row in enumerate(zip(*(c.tolist() for c in columns)), start=1):
        if math.isnan(row[5]):
            want.append(_ROW_NO_E_N % (k, *row[:5], *row[6:]))
        else:
            want.append(_ROW % (k, *row))
    return "\n".join(want + [""])


def seeded_cusum(errors):
    """A CUSUM state whose references are ``errors``, which seed them
    unarmed."""
    state = CusumState()
    cusum_stage(state, errors, len(errors), make_config(Variant.NTP))
    return state


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, batch_size=1)
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, rls_lambda=0.0)
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, rls_lambda=1.1)
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, update_threshold=0.0)
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, detection_threshold=0.0)
        with pytest.raises(ValueError):
            IdsConfig(variant=Variant.SOTA, sensitivity=-1.0)

    @pytest.mark.parametrize("name", ["rls_lambda", "update_threshold", "detection_threshold", "sensitivity"])
    def test_nan_rejected_naming_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IdsConfig(variant=Variant.SOTA, **{name: math.nan})

    def test_variant_coerced_from_string(self):
        assert IdsConfig(variant="ntp").variant is Variant.NTP


def first_o_avg(variant, batch0, batch1, period=None):
    """o_avg of batch 1 after initialization batch 0, from the arrival stage."""
    config = make_config(variant, batch_size=len(batch1))
    _, o_avg, _, _ = arrival_stage(np.array([batch0, batch1]), config, period)
    return o_avg[0]


def ntp_o_avg(a, period):
    """o_avg of the N arrivals a[1:] after a previous batch ending at a[0]."""
    n = len(a) - 1
    return first_o_avg(Variant.NTP, a[0] + (np.arange(n) - (n - 1)) * period, a[1:], period)


class TestSotaAvgOffset:
    def test_exact_spacing_zero(self):
        a = np.arange(40) * 0.1
        assert first_o_avg(Variant.SOTA, a[:20], a[20:]) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_excess_spacing(self):
        # spacing mu + delta each step after a batch of spacing mu: O_avg = delta * N/2 at N=20
        mu, delta = 0.1, 5e-3
        batch0 = np.arange(20) * mu
        batch1 = 2.0 + np.arange(20) * (mu + delta)
        assert first_o_avg(Variant.SOTA, batch0, batch1) == pytest.approx(delta * 10, rel=1e-12)

    def test_two_point_batch(self):
        mu, x = 0.1, 3e-4
        assert first_o_avg(Variant.SOTA, [0.0, mu], [1.0, 1.0 + mu + x]) == pytest.approx(x, abs=1e-15)

    def test_size_error(self):
        config = make_config(Variant.SOTA, batch_size=2)
        for bad in (np.zeros((2, 1)), np.zeros((2, 3)), np.zeros(4)):
            with pytest.raises(ValueError):
                arrival_stage(bad, config)


class TestNtpAvgOffset:
    def test_exact_span_zero(self):
        a = np.arange(21) * 0.1
        assert ntp_o_avg(a, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_excess_span(self):
        a = np.linspace(0.0, 2.0002, 21)  # span 2.0002 s over N=20 periods of 0.1 s
        assert ntp_o_avg(a, 0.1) == pytest.approx(-1e-5, rel=1e-9)

    def test_translation_invariance(self):
        a = np.cumsum(np.concatenate([[0.0], np.random.default_rng(0).uniform(0.09, 0.11, 20)]))
        assert ntp_o_avg(a + 17.3, 0.1) == pytest.approx(ntp_o_avg(a, 0.1), abs=1e-12)

    def test_equals_mean_of_per_period_offsets(self):
        rng = np.random.default_rng(5)
        a = np.cumsum(np.concatenate([[0.0], rng.uniform(0.09, 0.11, 20)]))
        per_period = 0.1 - np.diff(a)
        assert ntp_o_avg(a, 0.1) == pytest.approx(float(per_period.mean()), abs=1e-15)


def jittered_batches(batches, n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(0.1, 1e-4, (batches + 1) * n)).reshape(batches + 1, n)


class TestAccumulate:
    def test_sota_absolute(self):
        _, o_avg, o_acc, _ = arrival_stage(jittered_batches(30, 2, seed=1), make_config(Variant.SOTA, batch_size=2))
        assert np.any(o_avg < 0.0)
        assert o_acc.tolist() == np.cumsum(np.abs(o_avg)).tolist()

    def test_ntp_signed_times_n(self):
        _, o_avg, o_acc, _ = arrival_stage(jittered_batches(30, 20, seed=2), make_config(Variant.NTP), period=0.1)
        assert np.any(o_avg < 0.0) and np.any(o_avg > 0.0)
        assert o_acc.tolist() == np.cumsum(20 * o_avg).tolist()

    def test_ntp_zero_offsets_unchanged(self):
        state, _, o_acc, _ = arrival_stage(np.arange(200).reshape(10, 20) * 0.1, make_config(Variant.NTP),
                                           period=0.1)
        assert np.allclose(o_acc, 0.0, atol=1e-12) and state.o_acc == o_acc[-1]


class TestRls:
    def test_converges_on_noiseless_line(self):
        s_true = 1e-4
        t = 2.0 * np.arange(1, 51)
        _, rls = rls_stage(t, s_true * t, 0.9995)
        assert rls.skew == pytest.approx(s_true, rel=0.01)

    def test_zero_signal_keeps_zero_slope(self):
        skews, rls = rls_stage([1.0], [0.0], 1.0)
        assert rls.skew == 0.0 and skews.tolist() == [0.0, 0.0]

    def test_lambda_one_matches_normal_equation(self):
        rng = np.random.default_rng(2)
        t = np.cumsum(rng.uniform(0.5, 1.5, 200))
        y = 3.7e-5 * t + rng.normal(0.0, 1e-6, 200)
        _, rls = rls_stage(t, y, 1.0)
        ls = float(np.dot(y, t) / np.dot(t, t))
        assert rls.skew == pytest.approx(ls, rel=1e-9)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            rls_stage([1.0, 0.0], [1.0, 1.0], 1.0)

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            rls_stage([1.0, 2.0], [1.0], 1.0)

    def test_lambda_one_sums_are_plain_sums(self):
        # 1/P_k = lambda/P_{k-1} + t_k^2: at lambda = 1, 1/P is the plain sum
        # of t * t plus the prior's weight, and skew/P that of O_acc * t
        rng = np.random.default_rng(3)
        t = np.cumsum(rng.uniform(0.5, 1.5, 100))
        y = 2e-5 * t + rng.normal(0.0, 1e-6, 100)
        _, rls = rls_stage(t, y, 1.0)
        assert 1.0 / rls.gain_denominator == pytest.approx(float(np.dot(t, t)) + 1.0 / RLS_INITIAL_P, rel=1e-12)
        assert rls.skew / rls.gain_denominator == pytest.approx(float(np.dot(y, t)), rel=1e-12)


def cusum_errors(cusum, errors, **config):
    """The CUSUM stage over ``errors``, all armed; returns its columns."""
    return cusum_stage(cusum, errors, 0, make_config(Variant.NTP, **config))


class TestCusum:
    def test_e_n_at_kappa_leaves_limits(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        kappa = 8.0
        e = cusum.mu_cusum + kappa * cusum.sigma_cusum  # e_n == kappa exactly
        cusum_errors(cusum, [e], sensitivity=kappa)
        assert cusum.l_plus == 0.0 and cusum.l_minus == 0.0

    def test_one_step_exceedance(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        e = cusum.mu_cusum + (8.0 + 5.0 + 0.1) * cusum.sigma_cusum
        _, l_plus, _, alarm = cusum_errors(cusum, [e])
        assert cusum.l_plus == l_plus[0] == pytest.approx(5.1, rel=1e-9)
        assert alarm.tolist() == [True]

    def test_linear_decay_reaches_exact_boundary(self):
        # e_n = 10, 9.5, 9, 8.5, 8 with kappa=8: L+ = 2+1.5+1+0.5+0 = 5, no alarm
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        mu, sigma = cusum.mu_cusum, cusum.sigma_cusum
        e_n, l_plus, _, alarm = cusum_errors(cusum, [mu + e_n * sigma for e_n in (10.0, 9.5, 9.0, 8.5, 8.0)])
        assert np.allclose(e_n, [10.0, 9.5, 9.0, 8.5, 8.0], rtol=1e-9)
        assert cusum.l_plus == l_plus[-1] == pytest.approx(5.0, rel=1e-9)
        assert not alarm.any()

    def test_unready_reference_bootstraps(self):
        config = make_config(Variant.NTP)
        # unarmed: the first CUSUM_BOOTSTRAP_BATCHES errors seed the references unscored
        cusum = CusumState()
        errors = np.random.default_rng(3).normal(0.0, 1.0, CUSUM_BOOTSTRAP_BATCHES + 5)
        e_n, _, _, alarm = cusum_stage(cusum, errors, len(errors), config)
        assert np.isnan(e_n[:CUSUM_BOOTSTRAP_BATCHES]).all() and not np.isnan(e_n[CUSUM_BOOTSTRAP_BATCHES:]).any()
        assert list(cusum.reference_errors)[:CUSUM_BOOTSTRAP_BATCHES] == errors[:CUSUM_BOOTSTRAP_BATCHES].tolist()
        assert not alarm.any()
        # armed after two: the unarmed errors alone are the references, and every armed error is scored
        cusum = CusumState()
        e_n, _, _, _ = cusum_stage(cusum, [1.0, 2.0, 3.0], 2, config)
        assert np.isnan(e_n[:2]).all() and e_n[2] == pytest.approx((3.0 - 1.5) / np.std([1.0, 2.0], ddof=1))
        assert list(cusum.reference_errors)[:2] == [1.0, 2.0]
        # armed after fewer than two: refused, naming the warmup
        for armed_from in (0, 1):
            with pytest.raises(ValueError, match=f"^a warmup of {armed_from} batches leaves {armed_from} CUSUM "
                                                 "reference errors; arming needs at least 2$"):
                cusum_stage(CusumState(), [1.0, 2.0, 3.0], armed_from, config)

    def test_one_unarmed_error_joins_with_sigma_zero(self):
        # a column cut after its first error carries a one-error set on
        cusum = CusumState()
        cusum_stage(cusum, [1.5], 5, make_config(Variant.NTP))
        assert (cusum.reference_errors, cusum.count, cusum.mu_cusum, cusum.sigma_cusum) == ([1.5], 1, 1.5, 0.0)

    def test_no_reference_update_above_gamma(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        before = len(cusum.reference_errors)
        e = cusum.mu_cusum + 6.0 * cusum.sigma_cusum  # |e_n| >= gamma=4
        cusum_errors(cusum, [e], detection_threshold=50.0)
        assert len(cusum.reference_errors) == before


def cusum_run(errors, armed_from, config, splits=(), block=None):
    """``cusum_stage`` over ``errors`` from a fresh state, called once per
    piece of the column cut at ``splits`` with the state carried over; with
    ``block=0`` every error takes the per-batch body. Returns the columns
    and the state."""
    cusum, parts = CusumState(), []
    bounds = [0, *splits, len(errors)]
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(ids, "CUSUM_BLOCK", block)
        for a, b in zip(bounds[:-1], bounds[1:]):
            parts.append(cusum_stage(cusum, errors[a:b], armed_from - a, config))
    return [np.concatenate(column) for column in zip(*parts)], cusum


def assert_same_cusum(got, want):
    """Columns, state fields (value and type) and references equal bit for
    bit."""
    for name, a, b in zip(("e_n", "l_plus", "l_minus", "alarm"), got[0], want[0]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("mu_cusum", "sigma_cusum", "l_plus", "l_minus", "evicted", "count", "ref_sum", "ref_sumsq"):
        a, b = getattr(got[1], name), getattr(want[1], name)
        assert type(a) is type(b) and repr(a) == repr(b), name
    assert got[1].errors == want[1].errors and all(type(e) is float for e in got[1].errors)


@st.composite
def cusum_cases(draw):
    """A column of identification errors with what breaks a block: seeding
    errors and any arming point from 2 on, scattered outliers past gamma, a stretch
    shifted by 5.5 to 20 reference sigmas (gamma <= |e_n| < kappa, or
    alarms), ties from quantization, and sometimes more errors than the
    reference cap, which is then small or the real one."""
    cap = draw(st.sampled_from([REFERENCE_CAP, 3, 37]))
    n = cap + draw(st.integers(51, 300)) if draw(st.booleans()) else draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-7, 3))
    errors = rng.normal(0.0, scale, n)
    outliers = rng.random(n) < draw(st.sampled_from([0.0, 0.002, 0.05, 0.3]))
    errors[outliers] += scale * rng.choice([-1.0, 1.0], outliers.sum()) * rng.uniform(4.0, 12.0, outliers.sum())
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    errors[start:stop] += scale * draw(st.sampled_from([5.5, -6.0, 10.0, -20.0]))
    quantum = draw(st.sampled_from([0.0, 0.5, 2.0]))
    if quantum:
        errors = np.round(errors / (quantum * scale)) * (quantum * scale)
    config = make_config(Variant.NTP, sensitivity=draw(st.sampled_from([0.0, 2.0, 8.0])),
                         update_threshold=draw(st.sampled_from([1.0, 4.0, 10.0])),
                         detection_threshold=draw(st.sampled_from([0.5, 5.0, 50.0])))
    splits = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    return cap, errors, draw(st.integers(2, n + 5)), config, splits


def count_cusum_paths(monkeypatch):
    """Count the block attempts and the per-batch bodies of ``cusum_stage``
    from here on."""
    calls = {"blocks": 0, "bodies": 0}
    block, limits = ids._cusum_block, ids._limits

    def counted_block(*args):
        calls["blocks"] += 1
        return block(*args)

    def counted_limits(e, *args):
        calls["bodies"] += isinstance(e, float)
        return limits(e, *args)

    monkeypatch.setattr(ids, "_cusum_block", counted_block)
    monkeypatch.setattr(ids, "_limits", counted_limits)
    return calls


class TestCusumBlockPath:
    @settings(max_examples=80, deadline=None)
    @given(case=cusum_cases())
    def test_block_path_matches_per_batch_body(self, case):
        cap, errors, armed_from, config, splits = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ids, "REFERENCE_CAP", cap)
            want = cusum_run(errors, armed_from, config, block=0)
            assert_same_cusum(cusum_run(errors, armed_from, config, splits), want)
            assert_same_cusum(cusum_run(errors, armed_from, config, splits, block=5), want)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_detect_on_a_full_fifo_matches_per_batch_body(self, variant):
        # 10 100 batches: the reference set fills, and blocks run full and evicting
        config = make_config(variant)
        arrivals = warm_arrivals(config, REFERENCE_CAP + 100, seed=5)
        report = run_on(arrivals, config, 1000)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ids, "CUSUM_BLOCK", 0)
            want = run_on(arrivals, config, 1000)
        for name in REPORT_COLUMNS:
            got, expected = getattr(report, name), getattr(want, name)
            assert got.tobytes() == expected.tobytes(), name
        same_state = report.final_state == want.final_state  # compared outside the assert: no diff of 10 000 refs
        assert same_state
        assert report.final_state.cusum.count == REFERENCE_CAP and report.final_state.cusum.evicted > 50

    def test_overflowing_or_nan_sums_are_left_to_the_per_batch_body(self):
        # squares past the float range make the sums of squares inf, then NaN
        # once an inf square is evicted; the means stay in range
        errors = np.concatenate([[2e154, -2e154, 1e154, -1e154, 2e154, 1.0, -0.5, 0.25, 3.0, -2e154, 1.5],
                                 np.random.default_rng(0).normal(0.0, 1.0, 200)])
        # thresholds past every e_n: the limits stay 0 and every error joins
        config = make_config(Variant.NTP, update_threshold=1e300, sensitivity=1e300)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ids, "REFERENCE_CAP", 3)
            want = cusum_run(errors, 2, config, block=0)
            assert np.isnan(want[1].ref_sumsq)
            assert_same_cusum(cusum_run(errors, 2, config), want)


class TestCusumBlockCost:
    """The block path must carry the column: an equality test would still
    pass if it were turned off."""

    def test_clean_column_takes_the_body_only_to_bootstrap(self, monkeypatch):
        # the unarmed errors that seed the references take no body at all
        errors = np.clip(np.random.default_rng(1).normal(0.0, 1e-5, 2000), -3e-5, 3e-5)
        calls = count_cusum_paths(monkeypatch)
        cusum_stage(CusumState(), errors, 1000, make_config(Variant.NTP))
        assert calls["bodies"] <= 2 and calls["blocks"] <= 3, calls

    def test_sparse_outliers_cost_one_short_stretch_each(self, monkeypatch):
        # after a block that runs to its end, the next early end starts the backoff over
        errors = np.clip(np.random.default_rng(2).normal(0.0, 1e-5, 12_000), -3e-5, 3e-5)
        errors[1500::1500] = 1e-4
        calls = count_cusum_paths(monkeypatch)
        cusum_stage(CusumState(), errors, 1000, make_config(Variant.NTP))
        assert calls["bodies"] <= 7 * (ids._BACKOFF_FIRST + 2), calls

    @pytest.mark.parametrize("every", [1, 2], ids=["every-error", "every-other-error"])
    def test_column_where_every_block_ends_at_once(self, monkeypatch, every):
        # errors 5.5 sigmas off (gamma 4, kappa 8) join no reference and leave the limits at 0
        k = 10_000
        rng = np.random.default_rng(3)
        errors = np.concatenate([rng.normal(0.0, 1e-5, 60), rng.normal(0.0, 1e-5, k)])
        errors[60::every] = 5.5e-5 + rng.normal(0.0, 1e-9, len(errors[60::every]))
        calls = count_cusum_paths(monkeypatch)
        cusum_stage(CusumState(), errors, 1000, make_config(Variant.NTP))
        assert calls["blocks"] <= math.log2(k), calls

    def test_kappa_zero_column(self, monkeypatch):
        errors = np.random.default_rng(4).normal(0.0, 1e-5, 10_000)
        calls = count_cusum_paths(monkeypatch)
        cusum_stage(CusumState(), errors, 1000, make_config(Variant.NTP, sensitivity=0.0))
        assert calls["blocks"] <= math.log2(len(errors)), calls


class TestRunIds:
    def test_noiseless_trace_no_alarm(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100)), NoiseModel(), 2020, seed=0)
        for variant in Variant:
            report = run_ids(trace, 1, make_config(variant), warmup_batches=50, period=0.1)
            assert report.first_alarm_batch is None

    def test_inter_arrival_jump_detected(self):
        rng = np.random.default_rng(8)
        gaps = rng.normal(0.1, 25e-6, 4000)
        gaps[2000:] += 5e-3  # +5 ms jump at batch 100
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 2, seed=0)
        trace = type(trace)(times=times, ids=np.ones(len(times), dtype=np.uint32))
        for variant in Variant:
            report = run_ids(trace, 1, make_config(variant), warmup_batches=99, period=0.1)
            assert report.first_alarm_batch is not None
            assert report.first_alarm_batch <= 105

    def test_ntp_o_acc_identity(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(), 1000, seed=4)
        report = run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=10, period=0.1)
        assert np.allclose(report.o_acc, report.batch * 20 * 0.1 - report.t, rtol=0.0, atol=1e-9)

    def test_sota_o_acc_nondecreasing(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(), 1000, seed=4)
        report = run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=10)
        assert np.all(np.diff(report.o_acc) >= 0.0)

    def test_deterministic_report(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(50), jitter_std=1e-5),
                                 NoiseModel(), 600, seed=12)
        r1 = run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=5, period=0.1)
        r2 = run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=5, period=0.1)
        assert r1.to_csv() == r2.to_csv()

    def test_insufficient_data(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 30, seed=0)
        with pytest.raises(InsufficientDataError):
            run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=10)

    def test_ntp_requires_period(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 100, seed=0)
        with pytest.raises(ValueError):
            run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=2)

    @pytest.mark.parametrize("period", [0.0, -0.1, float("nan")])
    def test_ntp_rejects_nonpositive_period(self, period):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 100, seed=0)
        with pytest.raises(ValueError, match="nominal period > 0"):
            run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=2, period=period)

    def test_rejects_negative_warmup(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 100, seed=0)
        with pytest.raises(ValueError, match="warmup_batches must be >= 0"):
            run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=-1)

    def test_final_state_holds_the_last_batch(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(), 1000, seed=4)
        for variant in Variant:
            report = run_ids(trace, 1, make_config(variant), warmup_batches=10, period=0.1)
            state = report.final_state
            assert state.elapsed == report.t[-1] and state.o_acc == report.o_acc[-1]
            assert state.rls.skew == report.skew[-1] and 0.0 < state.rls.gain_denominator < RLS_INITIAL_P

    def test_csv_columns(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(jitter_std=1e-5), NoiseModel(), 200, seed=0)
        report = run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=2)
        header = report.to_csv().splitlines()[0]
        assert header == "batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm"

    PINNED_CSV = {
        Variant.SOTA: (
            "batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm\n"
            "1,-4.47499999999e-05,4.47499999999e-05,0.499856,8.95254252966e-05,4.47499999999e-05,,0,0,0\n"
            "2,6.775e-05,0.0001125,0.999915,0.00010791605262,2.29821843645e-05,,0,0,0\n"
            "3,-7.07500000001e-05,0.00018325,1.499844,0.000117087434031,2.1392755975e-05,,0,0,0\n"
            "4,2.75000000005e-06,0.000186,1.999794,0.000104241528068,"
            "-4.81507480496e-05,-5.96589070723,0,5.46589070723,1\n"
            "5,-1.99999999995e-06,0.000188,2.499714,9.10388513362e-05,"
            "-7.25740070939e-05,-7.83730414804,0,12.8031948553,1\n"
            "6,-1.47499999998e-05,0.00020275,2.999687,8.17571146225e-05,"
            "-7.03380588482e-05,-7.66597633333,0,19.9691711886,1\n"
            "7,3.34999999998e-05,0.00023625,3.499681,7.67656764493e-05,"
            "-4.98738206596e-05,-6.09791982078,0,25.5670910094,1\n"
            "8,-1.00000000003e-05,0.00024625,3.999588,7.19941206959e-05,"
            "-6.07810783386e-05,-6.93368005187,0,32.0007710612,1\n"
            "9,0.00049875,0.000745,4.500311,9.86137407471e-05,0.000421004066697,"
            "29.9827361548,29.4827361548,1.51803490646,1\n"
            "10,0.000108,0.000853,5.001294,0.000117328681376,0.000359803690084,"
            "25.2933043648,54.2760405196,0,1\n"
            "11,-2.97499999997e-05,0.000882749999999,5.502227,0.000127654974703,"
            "0.000237180961457,15.8974320906,69.6734726102,0,1\n"
            "12,-1.87500000006e-05,0.0009015,6.00324,0.000132652543092,"
            "0.000135156549661,8.07989000176,77.2533626119,0,1\n"
            "13,-4.94999999994e-05,0.000950999999999,6.504152,0.000135456942739,"
            "8.82076965455e-05,4.48247023921,81.2358328511,0,1\n"
        ),
        Variant.NTP: (
            "batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm\n"
            "1,2.88e-05,0.000144,0.499856,0.00028808181548,0.000144,,0,0,0\n"
            "2,-1.18e-05,8.49999999999e-05,0.999915,0.000125592837283,-0.000203057328526,,0,0,0\n"
            "3,1.42e-05,0.000156,1.499844,0.000111715498154,-3.23696634425e-05,,0,0,0\n"
            "4,9.99999999998e-06,0.000206,1.999794,0.000107071306307,-1.74079829155e-05,0.0753022412261,0,0,0\n"
            "5,1.6e-05,0.000286,2.499714,0.000110409970403,1.83523566263e-05,0.321209185011,0,0,0\n"
            "6,5.40000000004e-06,0.000313,2.999687,0.000108008930658,"
            "-1.81953528889e-05,-0.000793697132824,0,0,0\n"
            "7,1.19999999999e-06,0.000319,3.499681,0.000102104452357,"
            "-5.89968024526e-05,-0.367092640289,0,0,0\n"
            "8,1.85999999999e-05,0.000412,3.999588,0.000102388970956,3.62425760669e-06,0.268173115039,0,0,0\n"
            "9,-0.0001446,-0.000311,4.500311,5.35900379332e-05,-0.00077178221227,"
            "-7.84987913398,0,7.34987913398,1\n"
            "10,-0.0001966,-0.001294,5.001294,-2.76573301953e-05,"
            "-0.00156201953517,-16.106855686,0,22.9567348199,1\n"
            "11,-0.0001866,-0.002227,5.502227,-0.000117990178619,"
            "-0.00207482309105,-21.4650016681,0,43.921736488,1\n"
            "12,-0.0002026,-0.00324,6.00324,-0.000211601825093,-0.0025316766401,"
            "-26.2385411263,0,69.6602776143,1\n"
            "13,-0.0001824,-0.004152,6.504152,-0.000299850348002,-0.00277570956612,"
            "-28.7883753211,0,97.9486529354,1\n"
        ),
    }

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(min_value=-1e300, max_value=1e300),
        st.one_of(st.just(math.nan), st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from([0.0, -0.0, 5e-324, 1.0, 123.456789012345]),
        st.sampled_from([0.0, -0.0, 2.5]),
        st.booleans()), max_size=40))
    def test_csv_rows_as_formatted_one_by_one(self, rows):
        value, e_n, l_plus, l_minus, alarm = (np.array(c) for c in zip(*rows)) if rows else [np.zeros(0)] * 5
        floats = [value * scale for scale in (1.0, -2.0, 3.0, 1e-9, 7.0)]
        report = DetectionReport(*floats, e_n, l_plus, l_minus, alarm.astype(bool), None, None)
        assert report.to_csv() == csv_one_by_one(report)

    def test_csv_rows_across_chunks(self):
        # rows without e_n, quiet rows and alarms, over two chunks of rows
        rng = np.random.default_rng(3)
        n = _digits.CHUNK_ROWS + 37
        floats = [rng.normal(size=n) * 10.0 ** rng.integers(-9, 4, n) for _ in range(5)]
        e_n = rng.normal(size=n)
        e_n[:60] = math.nan
        l_plus, l_minus = (np.where(rng.random(n) < 0.6, 0.0, 8.0 * rng.random(n)) for _ in range(2))
        report = DetectionReport(*floats, e_n, l_plus, l_minus, (l_plus > 5.0) | (l_minus > 5.0), None, None)
        assert len(list(_digits.table([report.batch, *floats], ()))) == 2
        assert report.to_csv() == csv_one_by_one(report)

    @pytest.mark.parametrize("variant, first_alarm", [(Variant.SOTA, 4), (Variant.NTP, 9)])
    def test_pinned_csv(self, variant, first_alarm):
        # the 3 unarmed rows seed the references and carry no e_n; the clock runs off from batch 9 on
        trace = synthesize_trace(MessageSchedule(0x185, 0.1, start_time=1.0),
                                 ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(quantization_step=1e-6), 5 * 14, seed=3)
        times = trace.times.copy()
        times[45:] += np.arange(len(times) - 45) * 2e-4
        config = make_config(variant, batch_size=5, sensitivity=0.5, detection_threshold=2.0)
        report = run_ids(Trace(times=times, ids=trace.ids), 0x185, config, 3, period=0.1)
        assert report.first_alarm_batch == first_alarm
        assert report.to_csv() == self.PINNED_CSV[variant]

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta_t", [-4e-3, 4e-3])
    def test_short_warmup_alarms_at_the_first_attack_batch(self, target_clock, attacker_clock, matched_delta_t0,
                                                           variant, delta_t):
        # 20 unarmed errors are the references; the attack's errors are scored against them, not added first
        warmup = 20
        spec = AttackSpec(delta_t0=matched_delta_t0, delta_t=delta_t, start_batch=warmup + 1, attack_batches=30,
                          attacker_clock=attacker_clock)
        schedule = MessageSchedule(0x185, 0.1)
        trace = cloaked_trace(spec, schedule, target_clock, NoiseModel(), (warmup + 1) * 20, 20, seed=3)
        report = run_ids(trace, 0x185, make_config(variant), warmup, period=0.1)
        assert report.final_state.cusum.count == warmup
        assert report.first_alarm_batch == warmup + 1

    def test_alarm_iff_limit_exceeds_threshold(self):
        rng = np.random.default_rng(8)
        gaps = rng.normal(0.1, 25e-6, 3000)
        gaps[2000:] += 5e-3
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        trace_cls = type(synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 2, seed=0))
        trace = trace_cls(times=times, ids=np.ones(len(times), dtype=np.uint32))
        report = run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=99, period=0.1)
        armed = slice(99, None)
        assert report.alarm[armed].tolist() == (np.maximum(report.l_plus, report.l_minus)[armed] > 5.0).tolist()
        assert report.first_alarm_batch == report.batch[report.alarm][0]


class TestStateUtilities:
    def test_batch_arrivals_discards_partial(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 45, seed=0)
        assert batch_arrivals(trace, 1, 20).shape == (2, 20)

    def test_batch_arrivals_insufficient(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 5, seed=0)
        with pytest.raises(InsufficientDataError):
            batch_arrivals(trace, 1, 20)


STREAM_PERIOD = 0.1
STREAM_TARGET = ClockSpec(skew=ppm(100), jitter_std=25e-6)
STREAM_ATTACKER = ClockSpec(skew=ppm(150), jitter_std=25e-6)


def run_on(arrivals, config, warmup):
    """``run_ids`` over one stream's arrivals."""
    trace = Trace(times=arrivals, ids=np.ones(len(arrivals), dtype=np.uint32))
    return run_ids(trace, 1, config, warmup, period=STREAM_PERIOD)


def warm_arrivals(config, warmup, seed):
    """Normal arrivals of batch 0 and ``warmup`` unarmed batches."""
    trace = synthesize_trace(MessageSchedule(1, STREAM_PERIOD), STREAM_TARGET, NoiseModel(),
                             (warmup + 1) * config.batch_size, seed)
    return trace.arrivals(1)


def warm_state(config, warmup, seed):
    """Detector state after batch 0 and ``warmup`` unarmed batches."""
    return run_on(warm_arrivals(config, warmup, seed), config, warmup).final_state


def cloak_arrivals(config, warmup, horizon, seed):
    """A matched cloak's spoofed arrivals after a ``warm_state`` warmup."""
    spec = AttackSpec(delta_t0=compute_delta_t0(STREAM_ATTACKER.skew, STREAM_TARGET.skew, STREAM_PERIOD),
                      start_batch=warmup + 1, attack_batches=horizon, attacker_clock=STREAM_ATTACKER)
    n = config.batch_size
    return attack_arrivals(spec, MessageSchedule(1, STREAM_PERIOD), STREAM_TARGET, 0.0,
                           (warmup + 1) * n, n, np.random.default_rng(seed))


STATE_FIELDS = {"": ("batch_index", "prev_batch_mean", "prev_last_arrival", "t_origin", "o_acc"),
                "rls": ("skew", "gain_denominator"),
                "cusum": ("mu_cusum", "sigma_cusum", "l_plus", "l_minus", "count", "ref_sum", "ref_sumsq")}


def state_field(state, path, name):
    return getattr(getattr(state, path) if path else state, name)


def assert_streams_match_run_ids(config, warmup, base_arrivals, trial_base, arrivals0, shift_units, grid, qstep,
                                 horizon):
    """Stream (trial, grid point) of the attack phase behaves as run_ids over
    its base's warmup arrivals followed by its own, bit for bit: after every
    attack batch, the rows that _step returns for the branched state, given
    what _attack_phase forms (the whole batch for SOTA, its last arrival for
    NTP), equal that batch's row of the report; after the last one, the
    carried state equals the report's final state; _attack_phase keeps the
    same survivors; and the bases are left unchanged."""
    n = config.batch_size
    bases = [run_on(a, config, warmup).final_state for a in base_arrivals]
    before = copy.deepcopy(bases)
    trial, point = np.divmod(np.arange(len(arrivals0) * len(grid)), len(grid))
    arrivals = quantize(arrivals0[trial] + grid[point, None] * shift_units, qstep)
    reports = [run_on(np.concatenate([base_arrivals[trial_base[t]], a]), config, warmup)
               for t, a in zip(trial, arrivals)]
    streams = _branch(bases, trial_base[trial], horizon)
    for k in range(horizon):
        first = (k + 1) * n - 1 if config.variant is Variant.NTP else k * n
        row = warmup + k  # attack batch k is batch warmup + 1 + k
        for name, column in zip(REPORT_COLUMNS, _step(streams, arrivals[:, first:(k + 1) * n])):
            assert np.array_equal(column, [getattr(r, name)[row] for r in reports], equal_nan=True), (name, k)
    for path, names in STATE_FIELDS.items():
        for name in names:
            want = [state_field(r.final_state, path, name) for r in reports]
            assert np.array_equal(np.broadcast_to(state_field(streams, path, name), len(want)), want), (path, name)

    alarmed = np.array([r.alarm[warmup:].any() for r in reports])
    survivors = np.bincount(point[~alarmed], minlength=len(grid))
    counts = _attack_phase(bases, trial_base, arrivals0, shift_units, grid, qstep, horizon)
    assert counts.tolist() == survivors.tolist()
    assert bases == before


REPORT_COLUMNS = ("o_avg", "o_acc", "t", "skew", "e", "e_n", "l_plus", "l_minus", "alarm")


class TestIdsStreams:
    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(list(Variant)),
        kappa=st.floats(0.0, 10.0),
        big_gamma=st.floats(0.5, 10.0),
        gamma=st.floats(0.5, 6.0),
        warmup=st.integers(2, 80),  # below 50 the unarmed errors alone are the references
        trials=st.integers(1, 3),
        shared_base=st.booleans(),
        vary=st.sampled_from(["delta_t", "mistiming"]),
        grid_units=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
        grid_scale=st.sampled_from([1e-7, 1e-6, 1e-5]),
        qstep=st.sampled_from([0.0, 1e-6]),
        horizon=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streams_match_run_ids(self, variant, kappa, big_gamma, gamma, warmup, trials, shared_base,
                                   vary, grid_units, grid_scale, qstep, horizon, seed):
        config = make_config(variant, sensitivity=kappa, detection_threshold=big_gamma, update_threshold=gamma)
        base_arrivals = [warm_arrivals(config, warmup, seed + i) for i in range(1 if shared_base else trials)]
        trial_base = np.zeros(trials, dtype=int) if shared_base else np.arange(trials)
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed + 100 + t) for t in range(trials)])
        spec = AttackSpec(delta_t0=0.0, attacker_clock=STREAM_ATTACKER)
        shift_units = _grid_shift_units(spec, vary, horizon * config.batch_size)
        grid = np.array(grid_units) * grid_scale
        assert_streams_match_run_ids(config, warmup, base_arrivals, trial_base, arrivals0, shift_units, grid, qstep,
                                     horizon)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_full_reference_fifo_evicts_base_references(self, variant):
        config = make_config(variant)
        warmup, horizon = REFERENCE_CAP + 100, 40
        base_arrivals = warm_arrivals(config, warmup, seed=3)
        assert len(run_on(base_arrivals, config, warmup).final_state.cusum.reference_errors) == REFERENCE_CAP
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed) for seed in (4, 5)])
        shift_units = _grid_shift_units(AttackSpec(delta_t0=0.0), "delta_t", horizon * config.batch_size)
        grid = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * (1e-5 if variant is Variant.SOTA else 1e-7)
        assert_streams_match_run_ids(config, warmup, [base_arrivals], np.zeros(2, dtype=int), arrivals0, shift_units,
                                     grid, 0.0, horizon)

    @settings(max_examples=40, deadline=None)
    # the first mid is one where libm pow(mu, 2) and mu * mu round apart
    @example(mid=0.0006920814910479652, seed=12)
    @given(mid=st.floats(1e-6, 1e-3), seed=st.integers(0, 2**32 - 1))
    def test_reference_stats_round_like_one_stream(self, mid, seed):
        # with nearly equal references the variance cancels down to the last
        # bit of mu's square: two seed the references, then one stream per
        # mid adds it, branched and alone, by the block path and by the
        # per-batch body
        config = make_config(Variant.SOTA)
        warm = warm_state(config, 60, seed=1)
        mids = [mid, *np.random.default_rng(seed).uniform(1e-6, 1e-3, 4).tolist()]
        bases, singles = [], {None: [], 0: []}
        for m in mids:
            cusum = CusumState()
            cusum_stage(cusum, [m * (1 + 1e-9), m * (1 - 1e-9)], 2, config)
            bases.append(dataclasses.replace(warm, cusum=cusum))
            for block, alone in singles.items():
                alone.append(copy.deepcopy(cusum))
                with pytest.MonkeyPatch.context() as patch:
                    if block is not None:
                        patch.setattr(ids, "CUSUM_BLOCK", block)
                    cusum_stage(alone[-1], [m], 0, config)
        streams = _branch(bases, np.arange(len(bases)), 1)
        _cusum_streams(streams.cusum, np.array(mids), config)
        for alone in singles.values():
            assert streams.cusum.mu_cusum.tolist() == [c.mu_cusum for c in alone]
            assert streams.cusum.sigma_cusum.tolist() == [c.sigma_cusum for c in alone]

    def test_ntp_reads_only_each_batchs_last_arrival(self):
        config = make_config(Variant.NTP)
        n, warmup, horizon = config.batch_size, 60, 20
        bases = [warm_state(config, warmup, seed=1)]
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed) for seed in range(2, 6)])
        blind = np.full_like(arrivals0, np.nan)
        blind[:, n - 1::n] = arrivals0[:, n - 1::n]
        shift_units = _grid_shift_units(AttackSpec(delta_t0=0.0, attacker_clock=STREAM_ATTACKER), "delta_t",
                                        horizon * n)
        grid = np.arange(-6, 7) * 1e-6
        counts = _attack_phase(bases, np.zeros(4, dtype=int), arrivals0, shift_units, grid, 0.0, horizon)
        assert 0 < counts.sum() < 4 * len(grid)
        assert _attack_phase(bases, np.zeros(4, dtype=int), blind, shift_units, grid, 0.0, horizon).tolist() \
            == counts.tolist()

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("bad, message", [(-1e6, "elapsed time must be > 0"),
                                              (np.nan, "identification errors must be finite")])
    def test_attack_phase_checks_every_batch(self, variant, bad, message):
        # trial 1's second attack batch ends before the warmup's origin, or at no time
        config = make_config(variant)
        n, warmup, horizon = config.batch_size, 60, 4
        bases = [warm_state(config, warmup, seed=1)]
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed) for seed in (2, 3)])
        shift_units = np.ones(horizon * n)
        grid = np.zeros(3)
        assert _attack_phase(bases, np.zeros(2, dtype=int), arrivals0, shift_units, grid, 0.0, horizon).sum() == 6
        arrivals0[1, 2 * n - 1] = bad
        with pytest.raises(ValueError, match=message):
            _attack_phase(bases, np.zeros(2, dtype=int), arrivals0, shift_units, grid, 0.0, horizon)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_keep_takes_the_kept_streams_of_every_field(self, variant):
        config = make_config(variant)
        bases = [warm_state(config, 20, seed=s) for s in (1, 2)]
        streams = _branch(bases, np.array([0, 1, 1, 0, 1, 0]), 5)
        refs, want = streams.cusum.errors, copy.deepcopy(streams)
        kept = np.array([0, 2, 3, 5])
        mask = np.isin(np.arange(6), kept)
        ids._keep(streams, kept)
        for path, names in {**STATE_FIELDS, "cusum": STATE_FIELDS["cusum"] + ("evicted",)}.items():
            for name in names:
                value = state_field(want, path, name)
                if isinstance(value, np.ndarray):
                    value = value[mask]
                assert np.array_equal(state_field(streams, path, name), value), (path, name)
        assert streams.cusum.errors is refs and np.array_equal(refs, want.cusum.errors)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("case, message", [
        ("t <= 0", "elapsed time must be > 0"),
        ("t <= 0 beside NaN", "elapsed time must be > 0"),
        ("P <= 0", "gain_denominator must be > 0"),
        ("P <= 0 beside NaN", "gain_denominator must be > 0"),
        ("e not finite", "identification errors must be finite"),
    ])
    def test_step_guards(self, variant, case, message):
        # stream 1 breaks a guard, stream 0 holds NaN where asked; a NaN
        # arrival is a NaN t, which the elapsed-time guard passes
        config = make_config(variant)
        streams = _branch([warm_state(config, 60, seed=1)], np.zeros(3, dtype=int), 1)
        batch = np.tile(cloak_arrivals(config, 60, 1, seed=2), (3, 1))
        if case.startswith("t"):
            batch[1, -1] = -1e6
        elif case.startswith("P"):
            streams.rls.gain_denominator[1] = 0.0
        else:
            batch[1, -1] = np.nan
        if case.endswith("NaN"):
            batch[0, -1] = np.nan
            streams.rls.gain_denominator[0] = np.nan
        with pytest.raises(ValueError, match=message):
            _step(streams, batch)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("warmup", [20, 60])  # under 50 the unarmed errors alone are the references
    def test_zero_streams_step_to_empty_rows(self, variant, warmup):
        config = make_config(variant)
        streams = _branch([warm_state(config, warmup, seed=1)], np.zeros(0, dtype=int), 1)
        rows = _step(streams, np.empty((0, config.batch_size)))
        assert [row.shape for row in rows] == [(0,)] * len(REPORT_COLUMNS)
        assert rows[-1].dtype == bool

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("warmup", [0, 20, 60])  # under 50 the unarmed errors alone are the references
    def test_one_stream_steps_as_detect(self, variant, warmup):
        config = make_config(variant)
        horizon = 30
        base_arrivals = warm_arrivals(config, warmup, seed=3)
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed=4)])
        if warmup < 2:  # neither path arms a set of fewer than two references
            refused = f"^a warmup of {warmup} batches leaves {warmup} CUSUM reference errors; arming needs at least 2$"
            with pytest.raises(ValueError, match=refused):
                run_on(np.concatenate([base_arrivals, arrivals0[0]]), config, warmup)
            with pytest.raises(ValueError, match=refused):
                _branch([run_on(base_arrivals, config, warmup).final_state], np.zeros(1, dtype=int), horizon)
            return
        shift_units = _grid_shift_units(AttackSpec(delta_t0=0.0), "delta_t", horizon * config.batch_size)
        assert_streams_match_run_ids(config, warmup, [base_arrivals], np.zeros(1, dtype=int), arrivals0, shift_units,
                                     np.zeros(1), 0.0, horizon)

    def test_bases_left_unchanged(self):
        config = make_config(Variant.NTP)
        base = warm_state(config, 60, seed=1)
        before = copy.deepcopy(base)
        streams = _branch([base], np.zeros(3, dtype=int), 1)
        _step(streams, np.tile(cloak_arrivals(config, 60, 1, seed=2), (3, 1)))
        assert base == before

    def test_rejects_mismatched_bases(self):
        ntp = warm_state(make_config(Variant.NTP), 60, seed=1)
        sota = warm_state(make_config(Variant.SOTA), 60, seed=1)
        with pytest.raises(ValueError):
            _branch([ntp, sota], np.array([0, 1]), 1)
        with pytest.raises(ValueError):
            _branch([ntp, warm_state(make_config(Variant.NTP), 10, seed=1)], np.array([0, 1]), 1)

    def test_rejects_a_horizon_past_the_reference_cap(self):
        # a stream would evict its own references, which it does not keep
        base = warm_state(make_config(Variant.NTP), 60, seed=1)
        _branch([base], np.zeros(2, dtype=int), REFERENCE_CAP)
        with pytest.raises(ValueError):
            _branch([base], np.zeros(2, dtype=int), REFERENCE_CAP + 1)

    def test_rejects_wrong_batch_shape(self):
        # NTP may be given just the last arrivals, SOTA reads them all
        for variant in Variant:
            streams = _branch([warm_state(make_config(variant), 60, seed=1)], np.zeros(2, dtype=int), 1)
            bad = [(3, 20), (2, 19), (2, 2), (1, 2, 20), (2,)] + ([(2, 1)] if variant is Variant.SOTA else [])
            for shape in bad:
                with pytest.raises(ValueError, match="expected a batch of 20 arrivals per stream"):
                    _step(streams, np.ones(shape))
