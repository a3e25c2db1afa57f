"""Cloaking/masquerade attack trace generation."""
import numpy as np
import pytest

from canskew.attacks import AttackSpec, attack_arrivals, cloaked_trace, compute_delta_t0
from canskew.clock import ClockSpec, MessageSchedule, NoiseModel, Trace, ppm, receiver_period
from canskew.ids import Variant, run_ids
from conftest import PERIOD, make_attack, make_config


class TestDeltaT0:
    def test_matched_skews_zero(self):
        assert compute_delta_t0(1e-4, 1e-4, 0.1) == 0.0

    def test_known_value(self):
        assert compute_delta_t0(1.0e-4, 0.0, 0.1) == pytest.approx(10e-6, rel=1e-12)

    def test_matches_receiver_period_simulation(self):
        # attacker at skew_a transmitting every T + dT0 of its own clock must
        # land at the target's receiver-observed period T/(1+skew_b)
        skew_a, skew_b, period = ppm(150), ppm(100), 0.1
        dt0 = compute_delta_t0(skew_a, skew_b, period)
        observed = (period + dt0) / (1.0 + skew_a)
        assert observed == pytest.approx(receiver_period(period, skew_b), rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            compute_delta_t0(0.0, -1.0, 0.1)


class TestAttackSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackSpec(delta_t0=0.0, start_batch=0)
        with pytest.raises(ValueError):
            AttackSpec(delta_t0=0.0, attack_batches=0)


class TestCloakedTrace:
    def test_matched_cloak_preserves_mean(self, schedule, target_clock, matched_delta_t0, attacker_clock):
        spec = make_attack(matched_delta_t0, ClockSpec(skew=attacker_clock.skew), attack_batches=100)
        trace = cloaked_trace(spec, schedule, ClockSpec(skew=target_clock.skew), NoiseModel(),
                              normal_count=spec.start_batch * 20, batch_size=20, seed=3)
        diffs = np.diff(trace.arrivals(schedule.message_id))
        mu = receiver_period(schedule.period, target_clock.skew)
        assert float(diffs.mean()) == pytest.approx(mu, rel=1e-9)
        # attack-segment spacing individually matches the target cadence
        assert float(diffs[-100:].mean()) == pytest.approx(mu, rel=1e-9)

    def test_delta_t_shifts_post_attack_mean(self, schedule, target_clock, matched_delta_t0, attacker_clock):
        spec = make_attack(matched_delta_t0, attacker_clock, delta_t=5e-3, attack_batches=50)
        trace = cloaked_trace(spec, schedule, target_clock, NoiseModel(), 2020, 20, seed=3)
        diffs = np.diff(trace.arrivals(schedule.message_id))
        mu = receiver_period(schedule.period, target_clock.skew)
        assert float(diffs[-999:].mean()) == pytest.approx(mu + 5e-3, rel=1e-3)

    def test_mistiming_perturbs_only_boundary_gap(self, schedule, target_clock, matched_delta_t0, attacker_clock):
        base = make_attack(matched_delta_t0, attacker_clock, attack_batches=10)
        bumped = make_attack(matched_delta_t0, attacker_clock, attack_batches=10, mistiming=7e-3)
        t0 = cloaked_trace(base, schedule, target_clock, NoiseModel(), 2020, 20, seed=3)
        t1 = cloaked_trace(bumped, schedule, target_clock, NoiseModel(), 2020, 20, seed=3)
        d0 = np.diff(t0.arrivals(schedule.message_id))
        d1 = np.diff(t1.arrivals(schedule.message_id))
        changed = np.flatnonzero(np.abs(d1 - d0) > 1e-12)
        assert list(changed) == [2019]
        assert d1[2019] - d0[2019] == pytest.approx(7e-3, rel=1e-9)

    def test_normal_count_too_small(self, schedule, target_clock, attacker_clock):
        spec = make_attack(0.0, attacker_clock)
        with pytest.raises(ValueError):
            cloaked_trace(spec, schedule, target_clock, NoiseModel(), 100, 20, seed=0)

    @pytest.mark.parametrize("delta_t", [-0.2, -PERIOD])
    def test_non_positive_attacker_period_rejected_naming_delta_t(self, schedule, target_clock, attacker_clock,
                                                                  delta_t):
        # T + delta_t0 + delta_t <= 0 would make the spoofed times fall
        spec = make_attack(0.0, attacker_clock, delta_t=delta_t)
        with pytest.raises(ValueError, match=f"^delta_t = {delta_t} gives the attacker a period .* must be > 0$"):
            attack_arrivals(spec, schedule, target_clock, 0.0, 2020, 20, np.random.default_rng(0))

    def test_matched_cloak_passes_ids(self, schedule, target_clock, matched_delta_t0, attacker_clock, noise):
        spec = make_attack(matched_delta_t0, attacker_clock, start_batch=201, attack_batches=60)
        trace = cloaked_trace(spec, schedule, target_clock, noise, 201 * 20, 20, seed=17)
        for variant in Variant:
            report = run_ids(trace, schedule.message_id, make_config(variant),
                             warmup_batches=200, period=schedule.period)
            assert report.first_alarm_batch is None
