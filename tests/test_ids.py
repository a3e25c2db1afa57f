"""Detector building blocks and end-to-end runs for both variants."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canskew.attacks import AttackSpec, attack_arrivals, compute_delta_t0
from canskew.clock import (
    ClockSpec,
    InsufficientDataError,
    MessageSchedule,
    NoiseModel,
    ppm,
    quantize,
    synthesize_trace,
)
from canskew.harness import _attack_phase, _grid_shift_units
from canskew.ids import (
    REFERENCE_CAP,
    CusumState,
    IdsConfig,
    IdsStreams,
    RlsState,
    Variant,
    accumulate_offset,
    batch_arrivals,
    cusum_step,
    init_state,
    ntp_avg_offset,
    process_batch,
    rls_update,
    run_ids,
    sota_avg_offset,
)
from conftest import make_config


def seeded_cusum(errors):
    state = CusumState()
    for e in errors:
        state.add_reference(e)
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

    def test_variant_coerced_from_string(self):
        assert IdsConfig(variant="ntp").variant is Variant.NTP


class TestSotaAvgOffset:
    def test_exact_spacing_zero(self):
        a = np.arange(20) * 0.1
        assert sota_avg_offset(a, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_excess_spacing(self):
        # spacing mu + delta each step: O_avg = delta * N/2 at N=20
        mu, delta = 0.1, 5e-3
        a = np.arange(20) * (mu + delta)
        assert sota_avg_offset(a, mu) == pytest.approx(delta * 10, rel=1e-12)

    def test_two_point_batch(self):
        mu, x = 0.1, 3e-4
        assert sota_avg_offset(np.array([0.0, mu + x]), mu) == pytest.approx(x, abs=1e-15)

    def test_size_error(self):
        with pytest.raises(ValueError):
            sota_avg_offset(np.array([1.0]), 0.1)


class TestNtpAvgOffset:
    def test_exact_span_zero(self):
        a = np.arange(21) * 0.1
        assert ntp_avg_offset(a, 0.1) == pytest.approx(0.0, abs=1e-15)

    def test_excess_span(self):
        a = np.linspace(0.0, 2.0002, 21)  # span 2.0002 s over N=20 periods of 0.1 s
        assert ntp_avg_offset(a, 0.1) == pytest.approx(-1e-5, rel=1e-9)

    def test_translation_invariance(self):
        a = np.cumsum(np.concatenate([[0.0], np.random.default_rng(0).uniform(0.09, 0.11, 20)]))
        assert ntp_avg_offset(a + 17.3, 0.1) == pytest.approx(ntp_avg_offset(a, 0.1), abs=1e-12)

    def test_equals_mean_of_per_period_offsets(self):
        rng = np.random.default_rng(5)
        a = np.cumsum(np.concatenate([[0.0], rng.uniform(0.09, 0.11, 20)]))
        per_period = 0.1 - np.diff(a)
        assert ntp_avg_offset(a, 0.1) == pytest.approx(float(per_period.mean()), abs=1e-15)


class TestAccumulate:
    def test_sota_absolute(self):
        state = init_state(make_config(Variant.SOTA, batch_size=2), [0.0, 0.1])
        state.o_acc = 1e-3
        assert accumulate_offset(state, -0.2e-3) == pytest.approx(1.2e-3)

    def test_ntp_signed_times_n(self):
        state = init_state(make_config(Variant.NTP, batch_size=20),
                           np.arange(20) * 0.1, period=0.1)
        state.o_acc = 1e-3
        assert accumulate_offset(state, -0.01e-3) == pytest.approx(0.8e-3)

    def test_ntp_zero_offsets_unchanged(self):
        state = init_state(make_config(Variant.NTP, batch_size=20),
                           np.arange(20) * 0.1, period=0.1)
        state.o_acc = 0.5
        assert accumulate_offset(state, 0.0) == pytest.approx(0.5)


class TestRls:
    def test_converges_on_noiseless_line(self):
        s_true = 1e-4
        rls = RlsState()
        for k in range(1, 51):
            t = 2.0 * k
            rls = rls_update(rls, t, s_true * t, 0.9995)
        assert rls.skew == pytest.approx(s_true, rel=0.01)

    def test_zero_signal_keeps_zero_slope(self):
        rls = rls_update(RlsState(), 1.0, 0.0, 1.0)
        assert rls.skew == 0.0

    def test_lambda_one_matches_normal_equation(self):
        rng = np.random.default_rng(2)
        t = np.cumsum(rng.uniform(0.5, 1.5, 200))
        y = 3.7e-5 * t + rng.normal(0.0, 1e-6, 200)
        rls = RlsState()
        for ti, yi in zip(t, y):
            rls = rls_update(rls, ti, yi, 1.0)
        ls = float(np.dot(y, t) / np.dot(t, t))
        assert rls.skew == pytest.approx(ls, rel=1e-9)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            rls_update(RlsState(), 0.0, 1.0, 1.0)


class TestCusum:
    def test_e_n_at_kappa_leaves_limits(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        kappa = 8.0
        e = cusum.mu_cusum + kappa * cusum.sigma_cusum  # e_n == kappa exactly
        cusum_step(cusum, e, gamma=4.0, big_gamma=5.0, kappa=kappa)
        assert cusum.l_plus == 0.0 and cusum.l_minus == 0.0

    def test_one_step_exceedance(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        e = cusum.mu_cusum + (8.0 + 5.0 + 0.1) * cusum.sigma_cusum
        cusum_step(cusum, e, gamma=4.0, big_gamma=5.0, kappa=8.0)
        assert cusum.l_plus == pytest.approx(5.1, rel=1e-9)
        assert cusum.alarmed

    def test_linear_decay_reaches_exact_boundary(self):
        # e_n = 10, 9.5, 9, 8.5, 8 with kappa=8: L+ = 2+1.5+1+0.5+0 = 5, no alarm
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        mu, sigma = cusum.mu_cusum, cusum.sigma_cusum
        for e_n in (10.0, 9.5, 9.0, 8.5, 8.0):
            cusum_step(cusum, mu + e_n * sigma, gamma=4.0, big_gamma=5.0, kappa=8.0)
        assert cusum.l_plus == pytest.approx(5.0, rel=1e-9)
        assert not cusum.alarmed

    def test_uninitialized_reference_rejected(self):
        with pytest.raises(ValueError):
            cusum_step(CusumState(), 0.0, 4.0, 5.0, 8.0)

    def test_no_reference_update_above_gamma(self):
        cusum = seeded_cusum([0.0, 1.0, -1.0, 0.5, -0.5])
        before = len(cusum.reference_errors)
        e = cusum.mu_cusum + 6.0 * cusum.sigma_cusum  # |e_n| >= gamma=4
        cusum_step(cusum, e, gamma=4.0, big_gamma=50.0, kappa=8.0)
        assert len(cusum.reference_errors) == before


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
        for row in report.rows:
            assert row.o_acc == pytest.approx(row.batch * 20 * 0.1 - row.t, abs=1e-9)

    def test_sota_o_acc_nondecreasing(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100), jitter_std=25e-6),
                                 NoiseModel(), 1000, seed=4)
        report = run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=10)
        o_acc = [row.o_acc for row in report.rows]
        assert all(b >= a for a, b in zip(o_acc, o_acc[1:]))

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

    def test_csv_columns(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(jitter_std=1e-5), NoiseModel(), 200, seed=0)
        report = run_ids(trace, 1, make_config(Variant.SOTA), warmup_batches=2)
        header = report.to_csv().splitlines()[0]
        assert header == "batch,o_avg,o_acc,t,skew,e,e_n,l_plus,l_minus,alarm"

    def test_alarm_iff_limit_exceeds_threshold(self):
        rng = np.random.default_rng(8)
        gaps = rng.normal(0.1, 25e-6, 3000)
        gaps[2000:] += 5e-3
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        trace_cls = type(synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 2, seed=0))
        trace = trace_cls(times=times, ids=np.ones(len(times), dtype=np.uint32))
        report = run_ids(trace, 1, make_config(Variant.NTP), warmup_batches=99, period=0.1)
        for row in report.rows[99:]:
            assert row.alarm == (max(row.l_plus, row.l_minus) > 5.0)


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


def warm_state(config, warmup, seed):
    """Detector state after batch 0 and ``warmup`` unarmed batches."""
    trace = synthesize_trace(MessageSchedule(1, STREAM_PERIOD), STREAM_TARGET, NoiseModel(),
                             (warmup + 1) * config.batch_size, seed)
    return run_ids(trace, 1, config, warmup, period=STREAM_PERIOD).final_state


def cloak_arrivals(config, warmup, horizon, seed):
    """A matched cloak's spoofed arrivals after a ``warm_state`` warmup."""
    spec = AttackSpec(delta_t0=compute_delta_t0(STREAM_ATTACKER.skew, STREAM_TARGET.skew, STREAM_PERIOD),
                      start_batch=warmup + 1, attack_batches=horizon, attacker_clock=STREAM_ATTACKER)
    n = config.batch_size
    return attack_arrivals(spec, MessageSchedule(1, STREAM_PERIOD), STREAM_TARGET, 0.0,
                           (warmup + 1) * n, n, np.random.default_rng(seed))


def assert_streams_match_process_batch(bases, trial_base, arrivals0, shift_units, grid, qstep, horizon):
    """Stream (trial, grid point) of IdsStreams and of the harness attack
    phase behaves as process_batch on a deep copy of its base: the same alarm
    and the same detector scalars, bit for bit, after every batch, and the
    same survivors."""
    n = bases[0].config.batch_size
    trial, point = np.divmod(np.arange(len(arrivals0) * len(grid)), len(grid))
    arrivals = quantize(arrivals0[trial] + grid[point, None] * shift_units, qstep)
    states = [copy.deepcopy(bases[trial_base[t]]) for t in trial]
    streams = IdsStreams(bases, trial_base[trial])
    alarmed = np.zeros(len(trial), dtype=bool)
    for k in range(horizon):
        batches = arrivals[:, k * n:(k + 1) * n]
        alarm = streams.step(batches)
        assert alarm.tolist() == [process_batch(s, b, armed=True).alarm for s, b in zip(states, batches)]
        alarmed |= alarm
        scalars = {
            "o_acc": [s.o_acc for s in states],
            "skew": [s.rls.skew for s in states],
            "gain_denominator": [s.rls.gain_denominator for s in states],
            "l_plus": [s.cusum.l_plus for s in states],
            "l_minus": [s.cusum.l_minus for s in states],
            "ref_count": [len(s.cusum.reference_errors) for s in states],
            "mu_cusum": [s.cusum.mu_cusum for s in states],
            "sigma_cusum": [s.cusum.sigma_cusum for s in states],
            "prev_batch_mean": [s.prev_batch_mean for s in states],
        }
        for name, values in scalars.items():
            assert getattr(streams, name).tolist() == values, (name, k)

    survivors = np.bincount(point[~alarmed], minlength=len(grid))
    counts = _attack_phase(bases, trial_base, arrivals0, shift_units, grid, qstep, horizon)
    assert counts.tolist() == survivors.tolist()


class TestIdsStreams:
    @settings(max_examples=40, deadline=None)
    @given(
        variant=st.sampled_from(list(Variant)),
        kappa=st.floats(0.0, 10.0),
        big_gamma=st.floats(0.5, 10.0),
        gamma=st.floats(0.5, 6.0),
        warmup=st.integers(1, 80),  # below 50 the reference set is still bootstrapping
        trials=st.integers(1, 3),
        shared_base=st.booleans(),
        vary=st.sampled_from(["delta_t", "mistiming"]),
        grid_units=st.lists(st.integers(-40, 40), min_size=1, max_size=6),
        grid_scale=st.sampled_from([1e-7, 1e-6, 1e-5]),
        qstep=st.sampled_from([0.0, 1e-6]),
        horizon=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streams_match_process_batch(self, variant, kappa, big_gamma, gamma, warmup, trials, shared_base,
                                         vary, grid_units, grid_scale, qstep, horizon, seed):
        config = make_config(variant, sensitivity=kappa, detection_threshold=big_gamma, update_threshold=gamma)
        bases = [warm_state(config, warmup, seed + i) for i in range(1 if shared_base else trials)]
        trial_base = np.zeros(trials, dtype=int) if shared_base else np.arange(trials)
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed + 100 + t) for t in range(trials)])
        spec = AttackSpec(delta_t0=0.0, attacker_clock=STREAM_ATTACKER)
        shift_units = _grid_shift_units(spec, vary, horizon * config.batch_size)
        grid = np.array(grid_units) * grid_scale
        assert_streams_match_process_batch(bases, trial_base, arrivals0, shift_units, grid, qstep, horizon)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_full_reference_fifo_evicts_base_references(self, variant):
        config = make_config(variant)
        warmup, horizon = REFERENCE_CAP + 100, 40
        base = warm_state(config, warmup, seed=3)
        assert len(base.cusum.reference_errors) == REFERENCE_CAP
        arrivals0 = np.array([cloak_arrivals(config, warmup, horizon, seed) for seed in (4, 5)])
        shift_units = _grid_shift_units(AttackSpec(delta_t0=0.0), "delta_t", horizon * config.batch_size)
        grid = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * (1e-5 if variant is Variant.SOTA else 1e-7)
        assert_streams_match_process_batch([base], np.zeros(2, dtype=int), arrivals0, shift_units, grid, 0.0,
                                           horizon)

    def test_reference_stats_round_like_add_reference(self):
        # Python's mu**2 goes through libm pow, which rounds differently from
        # mu * mu now and then; with two nearly equal references the variance
        # cancels down to that last bit
        rng = np.random.default_rng(12)
        cusums = []
        while len(cusums) < 5:
            mid = rng.uniform(1e-6, 1e-3)
            cusum = CusumState()
            cusum.add_reference(mid * (1 + 1e-9))
            cusum.add_reference(mid * (1 - 1e-9))
            if cusum.mu_cusum**2 != cusum.mu_cusum * cusum.mu_cusum:
                cusums.append(cusum)
        bases = []
        for cusum in cusums:
            base = warm_state(make_config(Variant.SOTA), 60, seed=1)
            base.cusum = cusum
            bases.append(base)
        streams = IdsStreams(bases, np.arange(len(bases)))
        assert streams.mu_cusum.tolist() == [c.mu_cusum for c in cusums]
        assert streams.sigma_cusum.tolist() == [c.sigma_cusum for c in cusums]

    def test_bases_left_unchanged(self):
        config = make_config(Variant.NTP)
        base = warm_state(config, 60, seed=1)
        before = copy.deepcopy(base)
        streams = IdsStreams([base], np.zeros(3, dtype=int))
        streams.step(np.tile(cloak_arrivals(config, 60, 1, seed=2), (3, 1)))
        assert base.o_acc == before.o_acc and base.cusum._sum == before.cusum._sum
        assert list(base.cusum.reference_errors) == list(before.cusum.reference_errors)

    def test_rejects_mismatched_bases(self):
        ntp = warm_state(make_config(Variant.NTP), 60, seed=1)
        sota = warm_state(make_config(Variant.SOTA), 60, seed=1)
        with pytest.raises(ValueError):
            IdsStreams([ntp, sota], np.array([0, 1]))
        with pytest.raises(ValueError):
            IdsStreams([ntp, warm_state(make_config(Variant.NTP), 10, seed=1)], np.array([0, 1]))

    def test_rejects_wrong_batch_shape(self):
        streams = IdsStreams([warm_state(make_config(Variant.NTP), 60, seed=1)], np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            streams.step(np.zeros((3, 20)))
