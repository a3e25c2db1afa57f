"""Clock algebra and trace synthesis."""
import math

import numpy as np
import pytest

from canskew.clock import (
    ClockSpec,
    MessageSchedule,
    NoiseModel,
    Trace,
    invert_relative_skew,
    ppm,
    quantize,
    receiver_period,
    relative_skew,
    synthesize_trace,
)


class TestSkewAlgebra:
    def test_reference_is_true_clock(self):
        assert relative_skew(1.0e-4, 0.0) == 1.0e-4

    def test_identical_clocks(self):
        for s in (-0.5, 0.0, 1e-4, 3.0):
            assert relative_skew(s, s) == 0.0

    def test_inversion_identity(self):
        s_ba = relative_skew(1.0e-4, 2.5e-5)
        s_ab = invert_relative_skew(s_ba)
        assert (1.0 + s_ab) * (1.0 + s_ba) == pytest.approx(1.0, abs=1e-15)

    def test_invert_zero(self):
        assert invert_relative_skew(0.0) == 0.0

    def test_invert_small_skew(self):
        out = invert_relative_skew(1.0e-4)
        assert out == pytest.approx(-9.999e-5, rel=1e-4)
        assert (1.0 + out) * (1.0 + 1.0e-4) == pytest.approx(1.0, abs=1e-15)

    def test_invert_is_involution(self):
        for s in (-0.3, 1e-4, 0.7):
            assert invert_relative_skew(invert_relative_skew(s)) == pytest.approx(s, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            relative_skew(0.0, -1.0)
        with pytest.raises(ValueError):
            invert_relative_skew(-1.0)


class TestValidation:
    def test_clock_spec_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            ClockSpec(skew=-1.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ClockSpec(jitter_std=-1e-6)

    def test_noise_model_rejects_negatives(self):
        for kwargs in ({"delay_mean": -1.0}, {"delay_std": -1.0}, {"quantization_step": -1.0}):
            with pytest.raises(ValueError):
                NoiseModel(**kwargs)

    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            MessageSchedule(0x800, 0.1)
        with pytest.raises(ValueError):
            MessageSchedule(0x185, 0.0)

    @pytest.mark.parametrize("cls, name", [
        (ClockSpec, "skew"), (ClockSpec, "jitter_std"), (NoiseModel, "delay_mean"), (NoiseModel, "delay_std"),
        (NoiseModel, "quantization_step"), (MessageSchedule, "period"),
    ], ids=lambda x: x if isinstance(x, str) else x.__name__)
    def test_nan_rejected_naming_the_field(self, cls, name):
        fixed = {"message_id": 0x185} if cls is MessageSchedule else {}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            cls(**fixed, **{name: math.nan})

    def test_trace_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trace(times=np.zeros(3), ids=np.zeros(2, dtype=np.uint32))

    def test_trace_validate_monotonic(self):
        Trace.from_records([(0.0, 1), (0.1, 1)]).validate()
        with pytest.raises(ValueError):
            Trace.from_records([(0.1, 1), (0.0, 1)]).validate()


class TestSynthesis:
    def test_noiseless_exact_arrivals(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 3, seed=0)
        assert np.allclose(trace.times, [0.0, 0.1, 0.2], atol=1e-15)

    def test_skewed_mean_inter_arrival(self):
        trace = synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(skew=ppm(100)), NoiseModel(), 1000, seed=0)
        mean = np.mean(np.diff(trace.arrivals(1)))
        assert mean == pytest.approx(0.1 / (1.0 + 1e-4), rel=1e-12)

    def test_inter_arrival_std_is_sqrt2_jitter(self):
        trace = synthesize_trace(
            MessageSchedule(1, 0.1), ClockSpec(jitter_std=25e-6), NoiseModel(), 100_000, seed=3
        )
        std = np.std(np.diff(trace.arrivals(1)), ddof=1)
        assert std == pytest.approx(np.sqrt(2) * 25e-6, rel=0.05)

    def test_reproducible(self):
        kwargs = dict(schedule=MessageSchedule(1, 0.05), clock=ClockSpec(skew=ppm(-30), jitter_std=1e-5),
                      noise=NoiseModel(delay_mean=1e-4, delay_std=2e-5), count=500, seed=99)
        assert synthesize_trace(**kwargs) == synthesize_trace(**kwargs)

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            synthesize_trace(MessageSchedule(1, 0.1), ClockSpec(), NoiseModel(), 1, seed=0)

    def test_quantization_grid(self):
        step = 4e-6
        trace = synthesize_trace(
            MessageSchedule(1, 0.1), ClockSpec(jitter_std=25e-6),
            NoiseModel(quantization_step=step), 200, seed=1,
        )
        on_grid = np.round(trace.times / step) * step
        assert np.allclose(trace.times, on_grid, atol=1e-12)

    def test_quantize_noop_at_zero_step(self):
        x = np.array([0.1234567])
        assert quantize(x, 0.0) is x

    def test_receiver_period(self):
        assert receiver_period(0.1, 1e-4) == pytest.approx(0.1 / 1.0001, rel=1e-15)
