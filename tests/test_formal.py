"""Success-probability models: closed-form SOTA bound, NTP forecast, and the
CUSUM control-limit recursion."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from canskew.clock import synthesize_trace
from canskew.formal import (
    CusumRecursionConfig,
    Snapshot,
    cusum_success_recursion,
    gaussian_cdf,
    lplus_max,
    ntp_forecast,
    ntp_success_curve,
    snapshot_from_csv,
    snapshot_to_csv,
    sota_initial_error,
    sota_success_prob,
    sota_tau,
    success_curve,
    take_snapshot,
)
from canskew.clock import Trace
from canskew.harness import ExperimentConfig, SyntheticSource, synthetic_warm_state
from canskew.ids import REFERENCE_CAP, Variant, run_ids
from conftest import BAD_REFERENCE_ROWS, MESSAGE_ID, PERIOD, bad_reference_rows, make_config

# The acceptance NTP curve (61 points of 0.1 us, horizon 60, M = 100) from
# the seed-0 warmup of 1000 batches, as the recursion computed it when it
# evaluated the dense (M+1) x M Gaussian kernels on every step and ran all 60
# steps for every point. The 52 points outside the middle are exactly 0.
PINNED_NTP_CURVE = [0.0] * 26 + [
    1.0852999895550252e-125, 1.8019437448357257e-12, 0.9998110617134435,
    0.9999999994752388, 0.9999999999999394, 0.9999999864594564,
    0.7943833772046641, 1.3619675393308855e-55, 2.8367403174385378e-255,
] + [0.0] * 26

# A snapshot file of an NTP run (N = 4, warmup 5, 8 batches) as written
# before snapshots kept the least-squares sums: the O_acc and t of every batch
# instead, and its forecast at delta-T = 0.1 us over 3 batches from the code
# of that time.
OLD_FORMAT_SNAPSHOT = """key,value
variant,ntp
batch_size,4
rls_lambda,0.9995
update_threshold,4.0
detection_threshold,5.0
sensitivity,8.0
start_batch,8
period,0.1
mu,0.09998933759520705
sigma,3.0049192269512204e-05
prev_batch_mean,0.09998826712164743
o_acc,0.0002699781316991001
t,2.799730021868301
skew,8.81689036189053e-05
mu_cusum,2.9450492641132604e-05
sigma_cusum,1.607734151068919e-05
reference_errors,9.865360564631498e-06 1.8917521943281657e-05 1.3875606065060292e-05 5.5648880936484885e-05 \
3.5593092716874105e-05 3.665679881345086e-05 3.559618744814494e-05
o_acc_history,9.865360564631498e-06 3.864765324740338e-05 6.617349918719428e-05 0.00013727272506608434 \
0.0001747330895976451 0.00022304661828881356 0.0002699781316991001
t_history,0.3999901346394354 0.7999613523467526 1.1999338265008128 1.599862727274934 1.9998252669104024 \
2.3997769533817115 2.799730021868301
"""
OLD_FORMAT_FORECAST = {
    "t_hat": [3.1996877722491295, 3.5996455226299577, 3.999603273010786],
    "o_acc_hat": [0.00031222775087093074, 0.00035447737004276137, 0.000396726989214592],
    "skew_hat": [9.112401874348691e-05, 9.321538279600878e-05, 9.476929309793748e-05],
    "e_hat": [3.011477550761936e-05, 2.646320396872034e-05, 2.390243908872194e-05],
    "mu_cusum_hat": [2.9450492641132604e-05, 2.953352799944345e-05, 2.919238088491866e-05],
    "sigma_cusum_hat": [1.607734151068919e-05, 1.488657867759147e-05, 1.3962678067524983e-05],
    "e_n_mean": [0.04131795459125511, -0.20624779522677164, -0.37886297819186293],
    "e_n_std": [1.3217272905895858, 1.4274551786005771, 1.5219120686936483],
}

def manual_snapshot(variant=Variant.SOTA, **overrides):
    fields = dict(
        config=make_config(variant),
        period=PERIOD,
        mu=PERIOD,
        sigma=1.0,
        prev_batch_mean=PERIOD,
        o_acc=0.0,
        t=2000.0,
        skew=0.0,
        mu_cusum=0.0,
        sigma_cusum=1.0,
        reference_errors=(-1.0, 0.0, 1.0),  # mean 0, sample std 1
    )
    fields.update(overrides)
    return Snapshot(**fields)


@pytest.fixture(scope="module")
def warm_trace(schedule, target_clock, noise):
    """Batch 0 and 300 warmup batches of normal traffic."""
    return synthesize_trace(schedule, target_clock, noise, 301 * 20, seed=21)


@pytest.fixture(scope="module")
def warm_states(warm_trace):
    return {variant: run_ids(warm_trace, MESSAGE_ID, make_config(variant), 300, period=PERIOD).final_state
            for variant in Variant}


@pytest.fixture(scope="module")
def sota_snapshot(warm_states):
    return take_snapshot(None, warm_states[Variant.SOTA], 301)


@pytest.fixture(scope="module")
def ntp_snapshot(warm_states):
    return take_snapshot(None, warm_states[Variant.NTP], 301)


class TestGaussianCdf:
    def test_matches_reference(self):
        xs = np.linspace(-8, 8, 201)
        for x in xs:
            assert gaussian_cdf(float(x)) == pytest.approx(float(ndtr(x)), abs=1e-13)

    def test_location_scale(self):
        assert gaussian_cdf(3.0, mean=3.0, std=2.0) == pytest.approx(0.5, abs=1e-15)
        assert gaussian_cdf(5.0, mean=3.0, std=2.0) == pytest.approx(float(ndtr(1.0)), abs=1e-13)


class TestSnapshot:
    def test_requires_positive_sigmas(self):
        with pytest.raises(ValueError):
            manual_snapshot(sigma=0.0)
        with pytest.raises(ValueError):
            manual_snapshot(sigma_cusum=0.0)

    @pytest.mark.parametrize("name, value", [
        *((name, value) for name in ("sigma", "sigma_cusum") for value in (math.nan, math.inf, -1.0)),
        *((name, value) for name in ("mu", "mu_cusum", "prev_batch_mean", "o_acc", "t", "skew", "ot_sum", "tt_sum")
          for value in (math.nan, math.inf, -math.inf)),
        ("period", math.nan), ("period", 0.0), ("period", -0.1),
    ])
    def test_refuses_a_bad_scalar_naming_it(self, name, value):
        with pytest.raises(ValueError, match=rf"^snapshot requires (a finite )?{name}\b.*, got {value}$"):
            manual_snapshot(**{name: value})

    @pytest.mark.parametrize("count", [0, 1])
    def test_refuses_fewer_than_two_references(self, count):
        # as arming the detector does: a set of fewer than two has no sigma
        with pytest.raises(ValueError, match=f"^snapshot requires at least 2 reference errors, got {count}$"):
            manual_snapshot(reference_errors=(0.5,) * count)

    def test_sota_snapshot_may_have_no_period(self):
        assert manual_snapshot(period=None).period is None

    def test_snapshot_reproduces_state_fields(self, warm_states):
        state = warm_states[Variant.NTP]
        snap = take_snapshot(None, state, state.batch_index + 1)
        assert snap.o_acc == state.o_acc
        assert snap.t == state.elapsed
        assert snap.skew == state.rls.skew
        assert snap.mu_cusum == state.cusum.mu_cusum

    def test_snapshot_deterministic(self, warm_states):
        state = warm_states[Variant.SOTA]
        m = state.batch_index + 1
        assert take_snapshot(None, state, m) == take_snapshot(None, state, m)

    def test_snapshot_sigma_matches_inter_arrival_stats(self, warm_states, warm_trace):
        state = warm_states[Variant.SOTA]
        snap = take_snapshot(None, state, state.batch_index + 1)
        diffs = np.diff(warm_trace.arrivals(MESSAGE_ID))
        assert snap.sigma == pytest.approx(float(np.std(diffs, ddof=1)), rel=0.01)

    def test_wrong_batch_index_rejected(self, warm_states):
        with pytest.raises(ValueError):
            take_snapshot(None, warm_states[Variant.SOTA], 5)

    def test_csv_round_trip(self, ntp_snapshot):
        restored = snapshot_from_csv(snapshot_to_csv(ntp_snapshot))
        assert restored == ntp_snapshot

    def test_csv_round_trip_full_reference_set(self, ntp_snapshot):
        rng = np.random.default_rng(4)
        full = replace(ntp_snapshot, reference_errors=tuple(rng.normal(0.0, 1e-4, REFERENCE_CAP).tolist()))
        text = snapshot_to_csv(full)
        assert max(len(line) for line in text.splitlines()) > 131_072  # the csv module's field limit
        assert snapshot_from_csv(text) == full

    def test_csv_writes_hex_references(self, ntp_snapshot):
        row = re.search(r"^reference_errors,(.*)$", snapshot_to_csv(ntp_snapshot), re.M)[1]
        tokens = row.split(" ")
        assert len(tokens) == len(ntp_snapshot.reference_errors) > 0
        assert tuple(map(float.fromhex, tokens)) == ntp_snapshot.reference_errors

    def test_decimal_full_reference_row_reads_back(self, ntp_snapshot):
        # snapshot files written before the hex rows hold decimal tokens
        rng = np.random.default_rng(5)
        full = replace(ntp_snapshot, reference_errors=tuple(rng.normal(0.0, 1e-4, REFERENCE_CAP).tolist()))
        text = snapshot_to_csv(full)
        row = re.search(r"^reference_errors,(.*)$", text, re.M)[1]
        decimal = text.replace(row, " ".join(map(repr, full.reference_errors)))
        assert decimal != text and snapshot_from_csv(decimal) == full

    @pytest.mark.parametrize("case", BAD_REFERENCE_ROWS)
    def test_bad_reference_row_names_the_field(self, ntp_snapshot, case):
        text = snapshot_to_csv(ntp_snapshot)
        row = re.search(r"^reference_errors,(.*)$", text, re.M)[1]
        with pytest.raises(ValueError, match="^snapshot field reference_errors: "):
            snapshot_from_csv(text.replace(row, bad_reference_rows(row.split(" "))[case]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_csv_refuses_a_non_finite_reference(self, ntp_snapshot, value):
        snap = replace(ntp_snapshot, reference_errors=(1e-5, value))
        with pytest.raises(ValueError, match=f"finite reference_errors: value 1 is {value!r}"):
            snapshot_to_csv(snap)

    def test_infinite_period_refused(self):
        with pytest.raises(ValueError, match="finite period > 0 or none, got inf"):
            manual_snapshot(period=math.inf)

    def test_csv_unknown_key_ignored(self, ntp_snapshot):
        # snapshot files of earlier versions carry an eta_last line, which no model reads
        text = snapshot_to_csv(ntp_snapshot)
        assert "eta_last" not in text
        old = text.replace("\nsigma_cusum,", "\neta_last,0.0\nsigma_cusum,", 1)
        assert "eta_last,0.0" in old and snapshot_from_csv(old) == ntp_snapshot

    def test_csv_carries_sums_not_histories(self, ntp_snapshot):
        keys = [line.split(",", 1)[0] for line in snapshot_to_csv(ntp_snapshot).splitlines()]
        assert "ot_sum" in keys and "tt_sum" in keys
        assert "o_acc_history" not in keys and "t_history" not in keys
        assert keys[-1] == "reference_errors"

    def test_sums_are_the_detector_sums(self, warm_states):
        state = warm_states[Variant.NTP]
        snap = take_snapshot(None, state, state.batch_index + 1)
        assert (snap.ot_sum, snap.tt_sum) == (state.rls.ot_sum, state.rls.tt_sum)
        assert snap.tt_sum > 0.0

    def test_old_format_reads_back(self):
        snap = snapshot_from_csv(OLD_FORMAT_SNAPSHOT)
        assert snap.start_batch == 8 and len(snap.reference_errors) == 7
        assert snap.t == 2.799730021868301
        fc = ntp_forecast(snap, [1e-7], 3)
        for name, want in OLD_FORMAT_FORECAST.items():
            assert getattr(fc, name)[0].tolist() == want, name
        assert snapshot_from_csv(snapshot_to_csv(snap)) == snap

    def test_old_format_unequal_histories_rejected(self):
        text = OLD_FORMAT_SNAPSHOT.replace(" 2.799730021868301\n", "\n")
        assert text != OLD_FORMAT_SNAPSHOT
        with pytest.raises(ValueError, match="differ in length"):
            snapshot_from_csv(text)

    def test_csv_line_without_value_rejected(self, ntp_snapshot):
        text = snapshot_to_csv(ntp_snapshot).replace("\nskew,", "\nskew\n", 1)
        with pytest.raises(ValueError, match="expected key,value"):
            snapshot_from_csv(text)


class TestSotaInitialError:
    def test_vanishing_terms(self):
        snap = manual_snapshot(o_acc=1.5e-3)
        mu_e, sigma_e = sota_initial_error(snap, 0.0)
        assert mu_e == pytest.approx(1.5e-3, abs=1e-15)
        assert sigma_e == pytest.approx(math.sqrt(20.0 / 38.0), rel=1e-12)

    def test_unit_sigma_value(self):
        _, sigma_e = sota_initial_error(manual_snapshot(), 0.0)
        assert sigma_e == pytest.approx(0.7255, abs=2e-4)

    def test_mu_e_even_in_batch_mean_gap(self):
        snap = manual_snapshot(sigma=25e-6)
        up, _ = sota_initial_error(snap, +4e-4)
        down, _ = sota_initial_error(snap, -4e-4)
        assert up == pytest.approx(down, abs=1e-15)

    def test_monte_carlo_first_batch_error(self):
        # simulate e[m] = O_acc + |O_avg[m]| with a shift large enough that
        # the folded mean equals the shifted mean
        rng = np.random.default_rng(6)
        n, sigma_eta, shift = 20, 25e-6, 5e-4
        snap = manual_snapshot(sigma=math.sqrt(2) * sigma_eta, o_acc=2e-3,
                               mu=PERIOD, prev_batch_mean=PERIOD - shift)
        trials = 100_000
        eta = rng.normal(0.0, sigma_eta, (trials, n))
        i = np.arange(n)
        arrivals = i * PERIOD + eta  # gap vs prev_batch_mean is the shift
        o_avg = np.mean(arrivals[:, 1:] - (arrivals[:, :1] + i[1:] * snap.prev_batch_mean), axis=1)
        e = snap.o_acc + np.abs(o_avg)
        mu_e, sigma_e = sota_initial_error(snap, 0.0)
        assert float(e.mean()) == pytest.approx(mu_e, rel=0.02)
        assert float(e.std(ddof=1)) == pytest.approx(sigma_e, rel=0.02)


class TestSotaTau:
    def test_zero_skew_form(self):
        snap = manual_snapshot(sigma=2.0, sigma_cusum=4.0)
        expected = 2.0 * math.sqrt(20.0 / (math.pi * 19.0)) / 4.0
        assert sota_tau(snap, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_reference_value(self):
        assert sota_tau(manual_snapshot(), 0.0) == pytest.approx(0.5787, abs=2e-4)

    def test_nonnegative(self):
        snap = manual_snapshot(skew=5e-3)
        for dt in (-1e-3, 0.0, 1e-3):
            assert sota_tau(snap, dt) >= 0.0


class TestLplusMax:
    def test_worked_case(self):
        assert lplus_max(10.0, 0.5, 8.0) == pytest.approx(5.0, rel=1e-12)

    def test_below_kappa_never_charges(self):
        assert lplus_max(7.9, 0.5, 8.0) == 0.0

    def test_zero_tau_diverges(self):
        assert lplus_max(9.0, 0.0, 8.0) == math.inf


class TestSotaSuccessProb:
    def test_hand_computed_boundary(self):
        # tau=0.5, Gamma=5, kappa=8: hi = (-0.5 + 4.5)/2 + 8 = 10
        snap = manual_snapshot(sigma_cusum=1.0, sigma=1.0)
        # force tau = 0.5 via sigma/sigma_cusum choice: sigma*sqrt(20/(19pi)) = 0.5787*sigma
        snap = manual_snapshot(sigma=0.5 / math.sqrt(20.0 / (math.pi * 19.0)))
        pred = sota_success_prob(snap, 0.0)
        assert pred.tau == pytest.approx(0.5, rel=1e-12)
        assert pred.p_success == pytest.approx(1.0, abs=1e-6)

    def test_large_delta_t_fails(self, sota_snapshot):
        assert sota_success_prob(sota_snapshot, 5e-3).p_success == pytest.approx(0.0, abs=1e-9)

    def test_probability_bounds(self, sota_snapshot):
        for dt in np.linspace(-1e-3, 1e-3, 41):
            p = sota_success_prob(sota_snapshot, float(dt)).p_success
            assert 0.0 <= p <= 1.0

    def test_monotone_in_mean_magnitude(self):
        base = manual_snapshot(sigma=25e-6, sigma_cusum=1e-4, mu=PERIOD, prev_batch_mean=PERIOD)
        probs = [sota_success_prob(base, dt).p_success for dt in np.linspace(0.0, 2e-3, 30)]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


class TestCusumRecursion:
    def test_kappa_must_dominate_gamma(self):
        with pytest.raises(ValueError):
            cusum_success_recursion([(0.0, 1.0)], 5.0, 4.0, CusumRecursionConfig())

    def test_single_batch_collapses_to_cdf(self):
        cfg = CusumRecursionConfig(grid_resolution=100)
        for mean in (0.0, 7.0, 11.0):
            expected = float(ndtr(13.0 - mean) - ndtr(-13.0 - mean))
            got = cusum_success_recursion([(mean, 1.0)], 5.0, 8.0, cfg)
            assert got == pytest.approx(expected, abs=1e-3)

    def test_mass_inside_dead_zone_gives_one(self):
        cfg = CusumRecursionConfig(grid_resolution=60)
        densities = [(0.0, 0.3)] * 10  # mass well within [-(kappa-Gamma), kappa-Gamma]
        assert cusum_success_recursion(densities, 5.0, 8.0, cfg) == pytest.approx(1.0, abs=1e-9)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(14)
        kappa, big_gamma, n = 8.0, 5.0, 20
        for mean in (7.0, 9.0):
            seqs = rng.normal(mean, 1.0, (10_000, n))
            lp = np.zeros(10_000)
            lm = np.zeros(10_000)
            alive = np.ones(10_000, dtype=bool)
            for k in range(n):
                lp = np.maximum(0.0, lp + seqs[:, k] - kappa)
                lm = np.maximum(0.0, lm - seqs[:, k] - kappa)
                alive &= (np.maximum(lp, lm) <= big_gamma)
            mc = float(alive.mean())
            pred = cusum_success_recursion([(mean, 1.0)] * n, big_gamma, kappa,
                                           CusumRecursionConfig(grid_resolution=100))
            assert pred == pytest.approx(mc, abs=0.03)

    def test_std_checked_before_early_exit(self):
        # the last batch alone drives g to 0; the bad first batch must still fail
        with pytest.raises(ValueError):
            cusum_success_recursion([(0.0, -1.0), (100.0, 1.0)], 5.0, 8.0, CusumRecursionConfig())

    @pytest.mark.parametrize("bad", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_density_rejected_before_early_exit(self, bad):
        cfg = CusumRecursionConfig()
        with pytest.raises(ValueError, match="finite"):
            cusum_success_recursion([bad, (100.0, 1.0)], 5.0, 8.0, cfg)
        # row 0 exits at the last batch; row 1's bad first batch must still fail
        block = np.array([[(0.0, 1.0), (100.0, 1.0)], [bad, (0.0, 1.0)]])
        with pytest.raises(ValueError, match="finite"):
            cusum_success_recursion(block, 5.0, 8.0, cfg)

    def test_block_gives_one_probability_per_row(self):
        cfg = CusumRecursionConfig(grid_resolution=40)
        block = np.array([[(0.0, 0.3)] * 3, [(9.0, 1.0)] * 3, [(0.0, 1.0), (0.0, 1.0), (100.0, 1.0)]])
        p = cusum_success_recursion(block, 5.0, 8.0, cfg)
        assert p.shape == (3,) and p[2] == 0.0
        assert p.tolist() == [cusum_success_recursion(rows, 5.0, 8.0, cfg) for rows in block]
        single = cusum_success_recursion(block[0], 5.0, 8.0, cfg)
        assert type(single) is float

    @pytest.mark.parametrize("densities", [[], [[]], np.zeros((2, 0, 2)), np.zeros((3, 3))])
    def test_shape_checked(self, densities):
        with pytest.raises(ValueError, match="need at least one error density"):
            cusum_success_recursion(densities, 5.0, 8.0, CusumRecursionConfig())

    def test_grid_convergence(self):
        densities = [(9.0, 1.0)] * 20
        p100 = cusum_success_recursion(densities, 5.0, 8.0, CusumRecursionConfig(grid_resolution=100))
        p200 = cusum_success_recursion(densities, 5.0, 8.0, CusumRecursionConfig(grid_resolution=200))
        assert abs(p100 - p200) <= 0.01


class TestNtpForecast:
    def test_o_acc_identity(self, ntp_snapshot):
        fc = ntp_forecast(ntp_snapshot, [0.0], 60)
        n = ntp_snapshot.config.batch_size
        drift = ntp_snapshot.o_acc - (ntp_snapshot.start_batch - 1) * n * PERIOD + ntp_snapshot.t
        # identity O_acc = kNT - t holds up to the run's own constant offset
        for k, (t_hat, o_hat) in enumerate(zip(fc.t_hat[0], fc.o_acc_hat[0]), start=ntp_snapshot.start_batch):
            assert o_hat == pytest.approx(k * n * PERIOD - t_hat + drift, abs=1e-9)

    def test_zero_offset_trivial_forecast(self):
        # with lambda = 1 the least-squares sums are plain sums
        n, t_now = 20, 100 * 20 * PERIOD
        history_t = [k * n * PERIOD for k in range(1, 101)]
        snap = manual_snapshot(
            Variant.NTP, config=make_config(Variant.NTP, rls_lambda=1.0), mu=PERIOD, sigma=1e-6,
            o_acc=0.0, t=t_now, ot_sum=0.0, tt_sum=sum(t * t for t in history_t), start_batch=101,
        )
        fc = ntp_forecast(snap, [0.0], 5)
        assert np.allclose(fc.t_hat[0], [(101 + j) * n * PERIOD for j in range(5)], atol=1e-9)
        assert np.allclose(fc.o_acc_hat[0], 0.0, atol=1e-12)
        assert np.allclose(fc.e_hat[0], 0.0, atol=1e-12)

    def test_lambda_one_recovers_exact_slope(self):
        # with mu = T the forecast continues the exact line when
        # delta_t = -slope*mu/(1+slope), so a perfect LS slope gives e_hat = 0
        n, slope = 20, 2e-4
        history_t = [k * n * PERIOD for k in range(1, 51)]
        history_o = [slope * t for t in history_t]
        snap = manual_snapshot(
            Variant.NTP, config=make_config(Variant.NTP, rls_lambda=1.0),
            mu=PERIOD, sigma=1e-6, o_acc=history_o[-1], t=history_t[-1],
            ot_sum=sum(o * t for o, t in zip(history_o, history_t)),
            tt_sum=sum(t * t for t in history_t), start_batch=51,
        )
        fc = ntp_forecast(snap, [-slope * PERIOD / (1 + slope)], 1)
        assert fc.e_hat[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_grid_forecasts_match_single_forecasts(self, ntp_snapshot):
        grid = np.arange(-3, 4) * 1e-7
        forecast = ntp_forecast(ntp_snapshot, grid, 30)
        assert forecast.delta_t.tolist() == grid.tolist()
        for g, dt in enumerate(grid):
            single = ntp_forecast(ntp_snapshot, [float(dt)], 30)
            for name in ("t_hat", "o_acc_hat", "skew_hat", "e_hat", "mu_cusum_hat",
                         "sigma_cusum_hat", "e_n_mean", "e_n_std"):
                assert getattr(forecast, name).shape == (len(grid), 30), name
                assert np.array_equal(getattr(forecast, name)[g], getattr(single, name)[0]), name

    def test_full_reference_set_evicts_oldest_first(self, ntp_snapshot):
        # a full set of references whose 100 oldest sit 10 sigma above the
        # rest, so that each eviction of one moves the mean by 1e-3 sigma.
        # Bound, set before the run: mu_cusum_hat and sigma_cusum_hat within
        # 1e-9 sigma of the mean and std of the last REFERENCE_CAP of the
        # references and the admitted forecast errors (running sums over
        # 10 000 values of ~1e-5 round off near 1e-16 of that)
        rng = np.random.default_rng(8)
        mu, sigma = ntp_snapshot.mu_cusum, ntp_snapshot.sigma_cusum
        refs = rng.normal(mu, sigma, REFERENCE_CAP)
        refs[:100] += 10.0 * sigma
        snap = replace(ntp_snapshot, reference_errors=tuple(refs.tolist()), mu_cusum=float(np.mean(refs)),
                       sigma_cusum=float(np.std(refs, ddof=1)))
        grid, horizon = np.array([-2e-7, 0.0, 2e-7]), 30
        fc = ntp_forecast(snap, grid, horizon)
        admitted = 0
        for g in range(len(grid)):
            held, want = list(refs), (snap.mu_cusum, snap.sigma_cusum)
            for j in range(horizon):
                got = (fc.mu_cusum_hat[g, j], fc.sigma_cusum_hat[g, j])
                assert got == pytest.approx(want, abs=1e-9 * sigma, rel=0), (g, j)
                if abs(fc.e_n_mean[g, j]) < snap.config.update_threshold:
                    held.append(fc.e_hat[g, j])
                    admitted += 1
                    last = np.array(held[-REFERENCE_CAP:])
                    want = (last.mean(), last.std(ddof=1))
                    # a set that kept every reference would be off by far more
                    assert abs(np.mean(held) - want[0]) > 100 * 1e-9 * sigma
        assert admitted >= horizon

    def test_horizon_within_reference_cap(self, ntp_snapshot):
        with pytest.raises(ValueError, match=f"at most {REFERENCE_CAP} batches"):
            ntp_forecast(ntp_snapshot, [0.0], REFERENCE_CAP + 1)

    @pytest.mark.parametrize("delta_t", [0.0, [[0.0, 1e-7]]], ids=["scalar", "2-d"])
    def test_grid_must_be_1d(self, ntp_snapshot, delta_t):
        shape = np.shape(delta_t)
        with pytest.raises(ValueError, match=f"1-d delta-T grid, got shape {re.escape(str(shape))}"):
            ntp_forecast(ntp_snapshot, delta_t, 5)

    def test_to_csv_writes_one_row_per_delta_t_and_batch(self, ntp_snapshot):
        grid = np.array([-1e-7, 0.0, 1e-7])
        forecast = ntp_forecast(ntp_snapshot, grid, 4)
        lines = forecast.to_csv().splitlines()
        assert lines[0] == "delta_t,batch,t_hat,o_acc_hat,skew_hat,e_hat,mu_cusum_hat,sigma_cusum_hat,e_n_mean,e_n_std"
        assert len(lines) == 1 + len(grid) * 4
        for g, dt in enumerate(grid):
            for j, line in enumerate(lines[1 + 4 * g: 1 + 4 * (g + 1)]):
                fields = line.split(",")
                assert float(fields[0]) == pytest.approx(dt, abs=1e-18)
                assert int(fields[1]) == ntp_snapshot.start_batch + j
                assert float(fields[9]) == pytest.approx(forecast.e_n_std[g, j], rel=1e-11)

    def test_requires_history(self):
        snap = manual_snapshot(Variant.NTP)
        with pytest.raises(ValueError, match="least-squares sums"):
            ntp_forecast(snap, [0.0], 5)

    def test_forecast_tracks_simulated_errors(self, ntp_snapshot, warm_trace, schedule,
                                               target_clock, attacker_clock, matched_delta_t0):
        from canskew.attacks import AttackSpec, attack_arrivals

        delta_t = 5e-6
        horizon = 60
        fc = ntp_forecast(ntp_snapshot, [delta_t], horizon)
        spec = AttackSpec(delta_t0=matched_delta_t0, delta_t=delta_t, start_batch=301,
                          attack_batches=horizon, attacker_clock=attacker_clock)
        sims = np.zeros((100, horizon))
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            arrivals = attack_arrivals(spec, schedule, target_clock, 0.0, 301 * 20, 20, rng)
            times = np.concatenate([warm_trace.arrivals(MESSAGE_ID), arrivals])
            trace = Trace(times=times, ids=np.full(len(times), MESSAGE_ID, dtype=np.uint32))
            sims[trial] = run_ids(trace, MESSAGE_ID, make_config(Variant.NTP), 300, period=PERIOD).e[300:]
        mean_e = sims.mean(axis=0)
        scale = np.max(np.abs(mean_e))
        assert np.all(np.abs(fc.e_hat[0] - mean_e) <= 0.10 * scale)


class TestSuccessCurve:
    def test_sota_symmetric_when_unbiased(self):
        snap = manual_snapshot(sigma=25e-6, sigma_cusum=1e-4, mu=PERIOD, prev_batch_mean=PERIOD)
        grid = np.linspace(-1e-3, 1e-3, 41)
        curve = success_curve(snap, grid)
        assert np.allclose(curve.p_success, curve.p_success[::-1], atol=1e-9)

    def test_matched_point_near_one(self, ntp_snapshot, sota_snapshot):
        for snap in (ntp_snapshot, sota_snapshot):
            curve = success_curve(snap, np.array([0.0]), horizon=60)
            assert curve.p_success[0] >= 0.95

    def test_unimodal(self, ntp_snapshot):
        grid = np.arange(-20, 21) * 0.1e-6
        p = success_curve(ntp_snapshot, grid, horizon=30).p_success
        peak = int(np.argmax(p))
        assert np.all(np.diff(p[: peak + 1]) >= -1e-6)
        assert np.all(np.diff(p[peak:]) <= 1e-6)

    def test_pinned_acceptance_curve(self, schedule, target_clock, noise):
        cfg = ExperimentConfig(ids=make_config(Variant.NTP), warmup_batches=1000,
                               trials=1, horizon=60, grid=np.array([0.0]), seed=0)
        snap = take_snapshot(None, synthetic_warm_state(SyntheticSource(schedule, target_clock, noise), cfg), 1001)
        grid = np.arange(-30, 31) * 1e-7
        p = success_curve(snap, grid, horizon=60,
                          recursion_cfg=CusumRecursionConfig(grid_resolution=100, horizon=60)).p_success
        assert np.max(np.abs(p - np.array(PINNED_NTP_CURVE))) <= 1e-12

    def test_ntp_curve_is_the_pointwise_probabilities(self, ntp_snapshot):
        grid = np.arange(-25, 26) * 1e-7
        cfg = CusumRecursionConfig(grid_resolution=50, horizon=30)
        curve, forecast = ntp_success_curve(ntp_snapshot, grid, horizon=30, recursion_cfg=cfg)
        singles = [ntp_success_curve(ntp_snapshot, [float(dt)], horizon=30, recursion_cfg=cfg) for dt in grid]
        pointwise = [single.p_success[0] for single, _ in singles]
        assert 0.0 < min(p for p in pointwise if p > 0.0) and max(pointwise) > 0.9 and 0.0 in pointwise
        assert np.array_equal(curve.p_success, pointwise)
        assert forecast.e_n_mean.shape == (len(grid), 30)
        for g, (_, single) in enumerate(singles):
            assert np.array_equal(forecast.e_n_mean[g], single.e_n_mean[0])
            assert np.array_equal(forecast.e_n_std[g], single.e_n_std[0])

    def test_grid_validation(self, ntp_snapshot):
        with pytest.raises(ValueError):
            success_curve(ntp_snapshot, np.array([]))
        with pytest.raises(ValueError):
            success_curve(ntp_snapshot, np.array([1e-6, -1e-6]))

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_rejected(self, sota_snapshot, ntp_snapshot, variant, horizon):
        # a curve with horizon 0 would read as "not applicable", and compare would skip its horizon check
        snap = sota_snapshot if variant is Variant.SOTA else ntp_snapshot
        calls = [success_curve] + ([ntp_success_curve] if variant is Variant.NTP else [])
        for call in calls:
            with pytest.raises(ValueError, match=f"^horizon must be >= 1, got {horizon}$"):
                call(snap, np.array([0.0, 1e-7]), horizon=horizon)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("grid", [0.0, [[0.0, 1e-7], [2e-7, 3e-7]]], ids=["scalar", "2-d"])
    def test_grid_must_be_1d(self, sota_snapshot, ntp_snapshot, variant, grid):
        snap = sota_snapshot if variant is Variant.SOTA else ntp_snapshot
        with pytest.raises(ValueError, match=re.escape(f"delta_t_grid must be 1-d, got shape {np.shape(grid)}")):
            success_curve(snap, grid)
