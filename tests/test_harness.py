"""Monte Carlo sweeps, curve metrics, and the consistency study."""
import numpy as np
import pytest

from canskew import harness
from canskew.clock import ClockSpec, InsufficientDataError, MessageSchedule, NoiseModel, ppm, synthesize_trace
from canskew.curves import SuccessCurve
from canskew.harness import (
    ConsistencyResult,
    ExperimentConfig,
    SyntheticSource,
    ade,
    consistency_study,
    default_grid,
    epsilon_msi,
    monte_carlo_ps,
)
from canskew.ids import REFERENCE_CAP, Variant, run_ids
from conftest import MESSAGE_ID, PERIOD, make_attack, make_config


@pytest.fixture(scope="module")
def source(schedule, target_clock, noise):
    return SyntheticSource(schedule, target_clock, noise)


def experiment(variant, grid, trials=20, warmup=200, horizon=30, seed=5):
    return ExperimentConfig(ids=make_config(variant), warmup_batches=warmup,
                            trials=trials, horizon=horizon, grid=np.asarray(grid, dtype=float), seed=seed)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            experiment(Variant.NTP, [0.0], trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(ids=make_config(Variant.NTP), grid=np.array([]))
        with pytest.raises(ValueError):
            ExperimentConfig(ids=make_config(Variant.NTP), grid=None)

    def test_horizon_within_reference_cap(self):
        experiment(Variant.NTP, [0.0], horizon=REFERENCE_CAP)
        with pytest.raises(ValueError, match=f"outlive the warm references \\(REFERENCE_CAP = {REFERENCE_CAP}\\)$"):
            experiment(Variant.NTP, [0.0], horizon=REFERENCE_CAP + 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grid_rejected_naming_it(self, bad):
        with pytest.raises(ValueError, match=f"^grid must be finite, got {bad}$"):
            experiment(Variant.NTP, [0.0, bad, 1e-6])

    def test_default_grid_scales_with_period(self):
        g100 = default_grid(0.1)
        g10 = default_grid(0.01)
        assert len(g100) == 101
        assert g100.max() == pytest.approx(50e-6)
        assert g10.max() == pytest.approx(5e-6)


class TestMonteCarlo:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_short_warmup_detects_a_large_delta_t(self, source, attacker_clock, matched_delta_t0, variant):
        # 20 unarmed batches seed the references; the attack's errors are scored against them
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=21)
        curve = monte_carlo_ps(source, attack, experiment(variant, [-4e-3, 0.0, 4e-3], warmup=20))
        assert curve.p_success.tolist() == [0.0, 1.0, 0.0]

    def test_matched_cloak_succeeds(self, source, attacker_clock, matched_delta_t0):
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=201)
        for variant in Variant:
            cfg = experiment(variant, [0.0])
            curve = monte_carlo_ps(source, attack, cfg)
            assert curve.p_success[0] == 1.0

    def test_far_off_delta_fails(self, source, attacker_clock, matched_delta_t0):
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=201)
        cfg = experiment(Variant.NTP, [5e-3])
        assert monte_carlo_ps(source, attack, cfg).p_success[0] == 0.0

    def test_symmetry_for_zero_skew(self, schedule, noise):
        # symmetric synthetic clocks: S = 0 on both sides
        src = SyntheticSource(schedule, ClockSpec(jitter_std=25e-6), noise)
        attack = make_attack(0.0, ClockSpec(jitter_std=25e-6), start_batch=201)
        grid = np.array([-0.6e-6, -0.3e-6, 0.0, 0.3e-6, 0.6e-6])
        cfg = experiment(Variant.NTP, grid, trials=40)
        p = monte_carlo_ps(src, attack, cfg).p_success
        assert np.all(np.abs(p - p[::-1]) <= 0.1 + 1e-12)

    def test_deterministic_given_seed(self, source, attacker_clock, matched_delta_t0):
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=201)
        cfg = experiment(Variant.NTP, [0.0, 0.2e-6], trials=10)
        c1 = monte_carlo_ps(source, attack, cfg)
        c2 = monte_carlo_ps(source, attack, cfg)
        assert np.array_equal(c1.p_success, c2.p_success)

    def test_mistiming_sweep(self, source, attacker_clock, matched_delta_t0):
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=201)
        grid = np.array([-2e-3, 0.0, 2e-3])
        cfg = experiment(Variant.NTP, grid, trials=10)
        curve = monte_carlo_ps(source, attack, cfg, vary="mistiming")
        assert curve.p_success[1] == 1.0
        assert curve.p_success[0] == 0.0 and curve.p_success[2] == 0.0

    def test_replay_mode(self, schedule, target_clock, noise, attacker_clock, matched_delta_t0):
        trace = synthesize_trace(schedule, target_clock, noise, 101 * 20 + 20, seed=30)
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=101)
        cfg = experiment(Variant.NTP, [0.0, 5e-3], trials=5, warmup=100)
        curve = monte_carlo_ps(trace, attack, cfg, message_id=MESSAGE_ID, period=PERIOD)
        assert curve.p_success[0] == 1.0
        assert curve.p_success[1] == 0.0

    def test_replay_requires_metadata(self, baseline_trace, attacker_clock):
        attack = make_attack(0.0, attacker_clock)
        with pytest.raises(ValueError):
            monte_carlo_ps(baseline_trace, attack, experiment(Variant.NTP, [0.0]))

    def test_bad_vary_rejected(self, source, attacker_clock):
        attack = make_attack(0.0, attacker_clock)
        with pytest.raises(ValueError):
            monte_carlo_ps(source, attack, experiment(Variant.NTP, [0.0]), vary="horizon")


class TestCompaction:
    """The attack phase steps the streams whose trials have not alarmed,
    plus dead ones only while they cost less than the live: after each step
    with ``live`` of ``stepped`` streams alive, on a batch of ``width``
    arrivals per stream, it keeps exactly the live streams when
    (stepped - live) * width >= live, and all of them otherwise."""

    # grids on which some streams alarm, and some survive, within 30 batches
    # of warmups of 200 and of 20, whose NTP references spread the most
    @pytest.mark.parametrize("variant, grid", [(Variant.SOTA, np.arange(-40, 41) * 10e-6),
                                               (Variant.NTP, np.arange(-30, 31) * 1e-6)])
    @pytest.mark.parametrize("seed, warmup", [(1, 200), (2, 200), (3, 20)])
    def test_streams_compact_to_the_live_ones_by_the_rule(self, monkeypatch, source, attacker_clock,
                                                         matched_delta_t0, variant, grid, seed, warmup):
        # bounds, exact: after a compaction the next step has exactly the
        # live streams; where the next step has as many as this one, the
        # rule's inequality was false
        steps = []  # (streams, width, alarm) of each step
        step = harness._step

        def spy(state, batch):
            rows = step(state, batch)
            steps.append((len(batch), batch.shape[1], rows[-1].copy()))
            return rows

        monkeypatch.setattr(harness, "_step", spy)
        attack = make_attack(matched_delta_t0, attacker_clock, start_batch=warmup + 1)
        config = make_config(variant)
        curve = monte_carlo_ps(source, attack, ExperimentConfig(ids=config, warmup_batches=warmup, trials=6,
                                                                horizon=30, grid=grid, seed=seed))
        assert steps[0][0] == 6 * len(grid) and steps[0][1] == (20 if variant is Variant.SOTA else 1)
        alive, kept, padded = np.ones(steps[0][0], dtype=bool), 0, 0
        for (stepped, width, alarm), (next_stepped, _, _) in zip(steps, steps[1:]):
            assert len(alive) == stepped
            alive &= ~alarm
            live = int(np.count_nonzero(alive))
            if next_stepped == stepped:
                assert (stepped - live) * width < live
                padded += live < stepped
            else:
                assert next_stepped == live
                alive, kept = np.ones(live, dtype=bool), kept + 1
        assert kept and padded  # both branches of the rule ran
        assert np.count_nonzero(alive & ~steps[-1][2]) == round(curve.p_success.sum() * 6)


class TestEpsilonMsi:
    def test_plateau_width(self):
        grid = np.linspace(-10e-6, 10e-6, 201)
        p = np.where(np.abs(grid) <= 5e-6, 1.0, 0.0)
        curve = SuccessCurve(grid=grid, p_success=p)
        assert epsilon_msi(curve, 0.05) == pytest.approx(10e-6, abs=2e-7)

    def test_no_qualifying_points(self):
        curve = SuccessCurve(grid=np.linspace(0, 1, 11), p_success=np.full(11, 0.5))
        assert epsilon_msi(curve, 0.05) == 0.0

    def test_epsilon_validation(self):
        curve = SuccessCurve(grid=np.array([0.0]), p_success=np.array([1.0]))
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError):
                epsilon_msi(curve, eps)


class TestAde:
    def test_identical_curves_zero(self):
        grid = np.linspace(0, 10e-6, 101)
        p = np.exp(-((grid - 5e-6) ** 2) / (2e-6) ** 2)
        curve = SuccessCurve(grid=grid, p_success=p)
        assert ade(curve, curve) == pytest.approx(0.0, abs=1e-12)

    def test_step_curves(self):
        grid = np.linspace(0, 10e-6, 100_001)
        pred = SuccessCurve(grid=grid, p_success=(grid <= 10e-6).astype(float))
        exp = SuccessCurve(grid=grid, p_success=(grid <= 8e-6).astype(float))
        assert ade(pred, exp) == pytest.approx(25.0, abs=0.1)

    def test_resampling_different_grids(self):
        fine = np.linspace(0, 1e-5, 201)
        coarse = np.linspace(0, 1e-5, 51)
        shape = lambda g: np.clip(1 - np.abs(g - 5e-6) / 4e-6, 0.0, 1.0)
        pred = SuccessCurve(grid=fine, p_success=shape(fine))
        exp = SuccessCurve(grid=coarse, p_success=shape(coarse))
        assert ade(pred, exp) <= 1.0

    def test_experimental_grid_beyond_prediction_rejected(self):
        wide = np.linspace(-5e-5, 5e-5, 101)
        narrow = wide[40:61]  # +/-10 us
        pred = SuccessCurve(grid=narrow, p_success=np.ones(len(narrow)))
        exp = SuccessCurve(grid=wide, p_success=np.ones(len(wide)))
        with pytest.raises(ValueError, match="80 of 101 experimental grid points lie outside"):
            ade(pred, exp)

    def test_grid_endpoints_rounded_in_csv_accepted(self):
        fine = np.linspace(-1e-5, 1e-5, 201)
        coarse = np.linspace(-1e-5, 1e-5, 51)
        pred = SuccessCurve.from_csv(SuccessCurve(grid=fine, p_success=np.ones(len(fine))).to_csv())
        # an endpoint a few units in the 12th digit beyond the predicted grid's
        exp = SuccessCurve(grid=coarse * (1 + 3e-12), p_success=np.ones(len(coarse)))
        assert ade(pred, exp) == pytest.approx(0.0, abs=1e-9)

    def test_zero_area_error(self):
        grid = np.linspace(0, 1e-5, 11)
        pred = SuccessCurve(grid=grid, p_success=np.ones(11))
        exp = SuccessCurve(grid=grid, p_success=np.zeros(11))
        with pytest.raises(ValueError):
            ade(pred, exp)

    def test_grid_refinement_converges(self):
        def curves(n):
            grid = np.linspace(-1e-5, 1e-5, n)
            pred = SuccessCurve(grid=grid, p_success=np.exp(-((grid / 4e-6) ** 2)))
            exp = SuccessCurve(grid=grid, p_success=np.exp(-((grid / 3.5e-6) ** 2)))
            return ade(pred, exp)

        assert abs(curves(101) - curves(201)) < 0.5


class TestSuccessCurveType:
    def test_csv_round_trip(self):
        curve = SuccessCurve(grid=np.array([-1e-6, 0.0, 1e-6]), p_success=np.array([0.0, 1.0, 0.5]))
        restored = SuccessCurve.from_csv(curve.to_csv())
        assert np.allclose(restored.grid, curve.grid)
        assert np.allclose(restored.p_success, curve.p_success)

    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            SuccessCurve(grid=np.array([0.0]), p_success=np.array([1.5]))

    @pytest.mark.parametrize("grid, p", [([0.0], [np.nan]), ([np.nan], [0.5]), ([-np.inf, 0.0], [0.5, 0.5])])
    def test_non_finite_points_rejected(self, grid, p):
        with pytest.raises(ValueError, match="finite|lie in"):
            SuccessCurve(grid=np.array(grid), p_success=np.array(p))

    def test_csv_keeps_provenance(self):
        curve = SuccessCurve(grid=np.array([-1e-6, 0.0]), p_success=np.array([0.25, 1.0]),
                             trials=40, horizon=20, source="EXPERIMENTAL")
        text = curve.to_csv()
        assert text.splitlines()[:2] == ["delta_t_seconds,p_success,trials,horizon,source",
                                         "-1e-06,0.25,40,20,EXPERIMENTAL"]
        for kwargs in ({}, {"trials": 40}, {"trials": 40, "horizon": 20, "source": "EXPERIMENTAL"}):
            restored = SuccessCurve.from_csv(text, **kwargs)
            assert (restored.trials, restored.horizon, restored.source) == (40, 20, "EXPERIMENTAL")
            assert restored.to_csv() == text

    @pytest.mark.parametrize("kwargs", [{"trials": 0}, {"horizon": 60}, {"source": "PREDICTED"}])
    def test_csv_keyword_disagreeing_with_file_rejected(self, kwargs):
        text = SuccessCurve(grid=np.zeros(1), p_success=np.ones(1), trials=40, horizon=20).to_csv()
        with pytest.raises(ValueError, match="curve file records"):
            SuccessCurve.from_csv(text, **kwargs)

    @pytest.mark.parametrize("second, message", [("1e-6,1,40,60,EXPERIMENTAL", "disagree"),
                                                 ("1e-6,1,40", "line 3: expected 5 fields, got 3")])
    def test_csv_bad_rows_rejected(self, second, message):
        text = f"delta_t_seconds,p_success,trials,horizon,source\n0,1,40,20,EXPERIMENTAL\n{second}\n"
        with pytest.raises(ValueError, match=message):
            SuccessCurve.from_csv(text)

    def test_two_column_csv_reads_as_before(self):
        text = "delta_t_seconds,p_success\n0,1\n1e-06,0.5\n"
        assert not SuccessCurve.records_provenance(text)
        plain = SuccessCurve.from_csv(text)
        assert (plain.trials, plain.horizon, plain.source) == (0, 0, "EXPERIMENTAL")
        given = SuccessCurve.from_csv(text, trials=7, horizon=3, source="PREDICTED")
        assert (given.trials, given.horizon, given.source) == (7, 3, "PREDICTED")
        assert np.array_equal(given.p_success, [1.0, 0.5])


class TestConsistency:
    def test_noiseless_ntp_sigma_near_zero(self, schedule):
        trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100)), NoiseModel(), 6000, seed=0)
        result = consistency_study(trace, MESSAGE_ID, [20, 40, 60], make_config(Variant.NTP), PERIOD)
        case1 = result.cases[Variant.NTP.value][0]
        assert case1.sigma_ppm == pytest.approx(0.0, abs=1e-3)

    def test_noisy_ntp_tighter_than_sota(self, schedule):
        trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100), jitter_std=100e-6),
                                 NoiseModel(), 20_000, seed=6)
        result = consistency_study(trace, MESSAGE_ID, [20, 40, 60], make_config(Variant.NTP), PERIOD)
        sota = result.cases[Variant.SOTA.value][0].sigma_ppm
        ntp = result.cases[Variant.NTP.value][0].sigma_ppm
        assert ntp < sota

    def test_single_batch_size_insufficient_variation(self, schedule):
        trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100)), NoiseModel(), 2000, seed=0)
        result = consistency_study(trace, MESSAGE_ID, [20], make_config(Variant.NTP), PERIOD)
        assert result.cases[Variant.NTP.value][0].sigma_ppm is None

    def test_csv_output(self, schedule):
        trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100)), NoiseModel(), 2000, seed=0)
        result = consistency_study(trace, MESSAGE_ID, [20, 40], make_config(Variant.NTP), PERIOD)
        assert result.to_csv().startswith("variant,case,sigma_ppm,skews_ppm")

    def test_skews_are_the_detector_final_skews(self, schedule):
        # the study stops the detector pass after its RLS stage
        trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100), jitter_std=100e-6), NoiseModel(), 2010, seed=3)
        result = consistency_study(trace, MESSAGE_ID, [20, 40], make_config(Variant.NTP), PERIOD)
        for variant in Variant:
            report = run_ids(trace, MESSAGE_ID, make_config(variant), warmup_batches=2, period=PERIOD)
            assert result.cases[variant.value][2].skews_ppm == (report.final_state.rls.skew * 1e6,)

    def test_each_fit_runs_once(self, schedule, monkeypatch):
        # the first trace at the first batch size is fitted once, for the
        # batch-size case and the trace case both
        traces = [synthesize_trace(schedule, ClockSpec(skew=ppm(100), jitter_std=100e-6), NoiseModel(), 2000, seed=s)
                  for s in (3, 4)]
        fits, fit = [], harness._final_skew_ppm
        monkeypatch.setattr(harness, "_final_skew_ppm", lambda *args: fits.append(args) or fit(*args))
        result = consistency_study(traces, MESSAGE_ID, [20, 40], make_config(Variant.NTP), PERIOD)
        assert len(fits) == len(Variant) * (2 + 19 + 1)
        alone = consistency_study(traces[1], MESSAGE_ID, [20], make_config(Variant.NTP), PERIOD)
        for variant in Variant:
            batch_size, _, trace = result.cases[variant.value]
            assert trace.skews_ppm == (batch_size.skews_ppm[0], alone.cases[variant.value][0].skews_ppm[0])

    def test_insufficient_trace(self, schedule):
        trace = synthesize_trace(schedule, ClockSpec(), NoiseModel(), 30, seed=0)
        with pytest.raises(InsufficientDataError):
            consistency_study(trace, MESSAGE_ID, [20], make_config(Variant.NTP), PERIOD)
