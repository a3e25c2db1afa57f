"""Shared fixtures: the synthetic baseline scenario used throughout, and a
per-test time limit."""
import signal
import threading

import numpy as np
import pytest

from canskew.attacks import AttackSpec, compute_delta_t0
from canskew.clock import ClockSpec, MessageSchedule, NoiseModel, ppm, synthesize_trace
from canskew.ids import IdsConfig, Variant

MESSAGE_ID = 0x185
PERIOD = 0.1
TARGET_SKEW_PPM = 100.0
ATTACKER_SKEW_PPM = 150.0
JITTER_STD = 25e-6


class TimeLimitExceeded(BaseException):
    """Raised in a test that runs past ``test_time_limit``. Not an
    Exception, so no handler in the test (hypothesis's included) takes it
    for a failing example and runs the test again."""


def pytest_addoption(parser):
    parser.addini("test_time_limit", "seconds a test's call may run before it fails; 0 for no limit",
                  default="60")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose call runs past ``test_time_limit`` seconds, by
    SIGALRM, so that a hung test fails under its own name and the next test
    still runs."""
    limit = float(item.config.getini("test_time_limit"))
    if not limit > 0.0 or not hasattr(signal, "SIGALRM") or threading.current_thread() is not threading.main_thread():
        return (yield)

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past test_time_limit ({limit:g} s)")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def schedule():
    return MessageSchedule(MESSAGE_ID, PERIOD)


@pytest.fixture(scope="session")
def target_clock():
    return ClockSpec(skew=ppm(TARGET_SKEW_PPM), jitter_std=JITTER_STD)


@pytest.fixture(scope="session")
def attacker_clock():
    return ClockSpec(skew=ppm(ATTACKER_SKEW_PPM), jitter_std=JITTER_STD)


@pytest.fixture(scope="session")
def noise():
    return NoiseModel()


@pytest.fixture(scope="session")
def baseline_trace(schedule, target_clock, noise):
    """200 batches of 20 messages from the baseline target."""
    return synthesize_trace(schedule, target_clock, noise, 4000, seed=11)


@pytest.fixture(scope="session")
def matched_delta_t0(target_clock, attacker_clock):
    return compute_delta_t0(attacker_clock.skew, target_clock.skew, PERIOD)


def make_attack(delta_t0, attacker_clock, **overrides):
    defaults = dict(delta_t0=delta_t0, start_batch=101, attack_batches=60,
                    attacker_clock=attacker_clock, attacker_noise=NoiseModel())
    defaults.update(overrides)
    return AttackSpec(**defaults)


def make_config(variant, **overrides):
    defaults = dict(variant=variant, batch_size=20, update_threshold=4.0,
                    detection_threshold=5.0, sensitivity=8.0)
    defaults.update(overrides)
    return IdsConfig(**defaults)


def bad_reference_rows(tokens):
    """Snapshot reference rows that a reader refuses, by case, each made
    from the hex ``tokens`` of a written row."""
    decimal = [repr(float.fromhex(token)) for token in tokens]
    return {
        "bad-digit": " ".join([tokens[0][:6] + "G" + tokens[0][7:], *tokens[1:]]),
        "wrong-width": " ".join([tokens[0][:-1], *tokens[1:]]),
        "exponent-out-of-range": " ".join([tokens[0][:19] + "+1024", *tokens[1:]]),
        "hex-then-decimal": " ".join([tokens[0], *decimal[1:]]),
        "decimal-then-hex": " ".join([decimal[0], *tokens[1:]]),
        "decimal-nan": " ".join(["nan", *decimal[1:]]),
    }


BAD_REFERENCE_ROWS = list(bad_reference_rows(["+0x1.0000000000000p+0000"] * 2))
