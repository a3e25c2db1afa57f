"""End-to-end acceptance checks for the full toolkit.

Each test prints one "CRITERION n: PASS/FAIL" line (visible under pytest -s
or in the captured output) and asserts the same condition.
"""
import time

import numpy as np
import pytest

from canskew.cli import main as cli_main
from canskew.clock import (
    ClockSpec,
    MessageSchedule,
    NoiseModel,
    invert_relative_skew,
    ppm,
    relative_skew,
    synthesize_trace,
)
from canskew.correlation import (
    CorrelationScenario,
    avg_offset_series,
    correlate_pair,
    correlation_verdict,
    pearson,
    predicted_rho,
    sibling_cloak_trace,
    simulate_sibling_pair,
)
from canskew.curves import SuccessCurve
from canskew.formal import (
    CusumRecursionConfig,
    cusum_success_recursion,
    gaussian_cdf,
    lplus_max,
    success_curve,
    take_snapshot,
)
from canskew.harness import ExperimentConfig, SyntheticSource, ade, monte_carlo_ps, synthetic_warm_state
from canskew.ids import CusumState, Variant, cusum_stage, rls_stage, run_ids
from canskew.harness import consistency_study
from canskew.traceio import LogFormat, parse_log, write_trace
from conftest import MESSAGE_ID, PERIOD, make_attack, make_config

GAMMA, BIG_GAMMA, KAPPA = 4.0, 5.0, 8.0
WARMUP = 1000


def verdict(number, ok, detail):
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def source(schedule, target_clock, noise):
    return SyntheticSource(schedule, target_clock, noise)


@pytest.fixture(scope="module")
def cloak_attack(attacker_clock, matched_delta_t0):
    return make_attack(matched_delta_t0, attacker_clock, start_batch=WARMUP + 1)


def experiment(variant, grid, trials=100, horizon=60, seed=0):
    return ExperimentConfig(ids=make_config(variant), warmup_batches=WARMUP,
                            trials=trials, horizon=horizon,
                            grid=np.asarray(grid, dtype=float), seed=seed)


def warmup_snapshot(source, variant, seed=0):
    """Freeze the warm state that monte_carlo_ps(seed=...) shares across its
    trials for the analytic models."""
    state = synthetic_warm_state(source, experiment(variant, [0.0], seed=seed))
    return take_snapshot(None, state, WARMUP + 1)


def test_criterion_1_cloaking_succeeds(source, cloak_attack):
    start = time.perf_counter()
    p = {}
    for variant in Variant:
        curve = monte_carlo_ps(source, cloak_attack, experiment(variant, [0.0]))
        p[variant.value] = curve.p_success[0]
    elapsed = time.perf_counter() - start
    ok = all(v == 1.0 for v in p.values()) and elapsed < 60.0
    verdict(1, ok, f"delta_t=0 success sota={p['sota']:.2f} ntp={p['ntp']:.2f} in {elapsed:.1f}s (< 60s)")


def test_criterion_2_naive_masquerade_detected(source, cloak_attack):
    curve = monte_carlo_ps(source, cloak_attack, experiment(Variant.NTP, [5e-6]))
    ok = curve.p_success[0] <= 0.05
    verdict(2, ok, f"delta_t=5us over 60 batches: ntp P_s={curve.p_success[0]:.2f} (<= 0.05)")


def test_criterion_3_model_vs_monte_carlo(source, cloak_attack):
    results = []
    sota_grid = np.arange(-40, 41) * 10e-6
    snap = warmup_snapshot(source, Variant.SOTA)
    pred = success_curve(snap, sota_grid)
    for horizon in (20, 40, 60):
        exp = monte_carlo_ps(source, cloak_attack,
                             experiment(Variant.SOTA, sota_grid, trials=60, horizon=horizon))
        results.append((f"sota/n={horizon}", ade(pred, exp)))

    ntp_grid = np.arange(-30, 31) * 1e-7
    snap = warmup_snapshot(source, Variant.NTP)
    pred = success_curve(snap, ntp_grid, horizon=60)
    exp = monte_carlo_ps(source, cloak_attack,
                         experiment(Variant.NTP, ntp_grid, trials=60, horizon=60))
    results.append(("ntp/n=60", ade(pred, exp)))

    ok = all(value <= 15.0 for _, value in results)
    detail = " ".join(f"{label} ADE={value:.1f}%" for label, value in results)
    verdict(3, ok, detail + " (all <= 15%)")


def _iterated_lplus_max(e0, tau, kappa, steps=10_000):
    """Direct CUSUM iteration on the deterministic decaying error sequence."""
    limit = peak = 0.0
    for i in range(steps):
        limit = max(0.0, limit + (e0 - i * tau) - kappa)
        peak = max(peak, limit)
        if limit == 0.0 and e0 - i * tau < kappa:
            break
    return peak


def test_criterion_4_peak_limit_identity():
    worst = 0.0
    rows = []
    for e0 in (9.0, 10.0, 12.0):
        for tau in (0.25, 0.5, 1.0):
            closed = lplus_max(e0, tau, KAPPA)
            iterated = _iterated_lplus_max(e0, tau, KAPPA)
            gap = abs(closed - iterated)
            integral = abs((e0 - KAPPA) / tau - round((e0 - KAPPA) / tau)) < 1e-12
            allowed = 1e-12 if integral else tau / 2.0
            rows.append(gap <= allowed)
            worst = max(worst, gap)
    worked = lplus_max(10.0, 0.5, KAPPA)
    ok = all(rows) and worked == pytest.approx(5.0, abs=1e-12)
    verdict(4, ok, f"9 (e0, tau) cases, max |closed - iterated| = {worst:.2e}; "
                   f"e0=10, tau=0.5 gives {worked:.6g} (= 5)")


def _mc_cusum_survival(mu, n, sequences, seed):
    rng = np.random.default_rng(seed)
    e = rng.normal(mu, 1.0, (sequences, n))
    l_plus = np.zeros(sequences)
    l_minus = np.zeros(sequences)
    alarmed = np.zeros(sequences, dtype=bool)
    for k in range(n):
        l_plus = np.maximum(0.0, l_plus + e[:, k] - KAPPA)
        l_minus = np.maximum(0.0, l_minus - e[:, k] - KAPPA)
        alarmed |= np.maximum(l_plus, l_minus) > BIG_GAMMA
    return float(np.mean(~alarmed))


def test_criterion_5_recursion_matches_simulation():
    worst_mc = worst_refine = 0.0
    for n in (5, 20):
        for mu in (7.0, 9.0, 11.0):
            densities = [(mu, 1.0)] * n
            p100 = cusum_success_recursion(densities, BIG_GAMMA, KAPPA,
                                           CusumRecursionConfig(grid_resolution=100))
            p200 = cusum_success_recursion(densities, BIG_GAMMA, KAPPA,
                                           CusumRecursionConfig(grid_resolution=200))
            p_mc = _mc_cusum_survival(mu, n, 10_000, seed=17 * n + int(mu))
            worst_mc = max(worst_mc, abs(p100 - p_mc))
            worst_refine = max(worst_refine, abs(p100 - p200))
    ok = worst_mc <= 0.03 and worst_refine <= 0.01
    verdict(5, ok, f"max |recursion - MC| = {worst_mc:.3f} (<= 0.03), "
                   f"max M=100 vs 200 change = {worst_refine:.4f} (<= 0.01)")


def test_criterion_6_estimator_consistency():
    schedule = MessageSchedule(MESSAGE_ID, 0.01)
    trace = synthesize_trace(schedule, ClockSpec(skew=ppm(100), jitter_std=100e-6),
                             NoiseModel(), 200_000, seed=60)
    result = consistency_study(trace, MESSAGE_ID, [20, 40, 60, 80, 100],
                               make_config(Variant.NTP), 0.01)
    sota = result.cases[Variant.SOTA.value][0].sigma_ppm
    ntp = result.cases[Variant.NTP.value][0].sigma_ppm
    ok = ntp < sota and ntp <= 2.0
    verdict(6, ok, f"final-skew std across N: ntp={ntp:.3g} ppm (<= 2, < sota), sota={sota:.3g} ppm")


def test_criterion_7_correlation_detector():
    id_v, id_w = 0x1A0, 0x1A1
    sc = CorrelationScenario(id_v=id_v, id_w=id_w, transmission_duration=250e-6,
                             batch_size=20, period=0.1)
    src = ClockSpec(skew=ppm(100), jitter_std=25e-6)

    v, w = simulate_sibling_pair(sc, src, batches=10_000, seed=70)
    rho_sibling = correlate_pair(v, w, sc).rho

    _, w_ind = simulate_sibling_pair(sc, src, batches=10_000, seed=71,
                                     independent_clock=ClockSpec(skew=ppm(-80), jitter_std=25e-6))
    rho_independent = correlate_pair(v, w_ind, sc).rho

    # exponential per-message arbitration delays with scale sqrt(3)*sigma_eta
    # give Var(D_batch) = 3 * Var(O_avg); the model then predicts rho = 0.5
    sigma_eta = 25e-6
    scale = np.sqrt(3.0) * sigma_eta
    sc_arb = CorrelationScenario(id_v=id_v, id_w=id_w, transmission_duration=250e-6,
                                 arbitration_delay_dist=lambda rng, size: rng.exponential(scale, size),
                                 batch_size=20, period=0.1)
    v_arb, w_arb = simulate_sibling_pair(sc_arb, src, batches=10_000, seed=72)
    rho_arb = correlate_pair(v_arb, w_arb, sc_arb).rho
    n = sc.batch_size
    rho_model = predicted_rho(2 * sigma_eta**2 / n**2, 2 * scale**2 / n**2)

    # reactive cloak: passes the verdict and the clock-skew detector
    v600, w600 = simulate_sibling_pair(sc, src, batches=600, seed=73)
    rho_ref = correlate_pair(v600, w600, sc).rho
    spoof_id = 0x2B0
    merged = sibling_cloak_trace(v600, id_v, spoof_id, sc.transmission_duration,
                                 jitter_std=2e-6, seed=74)
    sv = avg_offset_series(merged, id_v, sc.batch_size, sc.period)
    sw = avg_offset_series(merged, spoof_id, sc.batch_size, sc.period)
    rho_cloak = pearson(sv, sw)
    cloak_verdict_ok = not correlation_verdict(rho_ref, rho_cloak)
    report = run_ids(merged, spoof_id, make_config(Variant.NTP), warmup_batches=400, period=sc.period)
    cloak_ids_ok = report.first_alarm_batch is None
    _, w_masq = simulate_sibling_pair(sc, src, batches=600, seed=75,
                                      independent_clock=ClockSpec(skew=ppm(-60), jitter_std=25e-6))
    rho_masq = correlate_pair(v600, w_masq, sc).rho
    masquerade_caught = correlation_verdict(rho_ref, rho_masq)

    ok = (rho_sibling >= 0.95 and abs(rho_independent) <= 0.1
          and abs(rho_arb - 0.5) <= 0.05 and abs(rho_arb - rho_model) <= 0.05
          and cloak_verdict_ok and cloak_ids_ok and masquerade_caught)
    verdict(7, ok, f"sibling rho={rho_sibling:.3f} (>= 0.95), independent rho={rho_independent:.3f} "
                   f"(|.| <= 0.1), arbitration rho={rho_arb:.3f} vs model {rho_model:.3f} (0.5 +/- 0.05), "
                   f"cloak passes verdict+IDS={cloak_verdict_ok and cloak_ids_ok}, "
                   f"masquerade caught={masquerade_caught}")


def test_criterion_8_mistiming_curve_from_cli(tmp_path, capsys):
    out = tmp_path / "mistiming.csv"
    code = cli_main([
        "sweep", "--variant", "ntp", "--vary", "mistiming",
        "--warmup", "400", "--trials", "100", "--horizon", "20",
        "--grid", "-20:20:1e-4", "--out", str(out),
    ])
    capsys.readouterr()
    curve = SuccessCurve.from_csv(out.read_text())
    center = int(np.flatnonzero(curve.grid == 0.0)[0])
    p = curve.p_success
    span_ok = curve.grid[0] == pytest.approx(-2e-3) and curve.grid[-1] == pytest.approx(2e-3)
    center_ok = p[center] == 1.0
    # monotone decay outward once |mistiming| exceeds the ~25 us noise scale
    slack = 0.05
    right = p[center + 1:]
    left = p[:center][::-1]
    monotone_ok = (np.all(np.diff(right) <= slack) and np.all(np.diff(left) <= slack)
                   and p[0] <= 0.05 and p[-1] <= 0.05)
    ok = code == 0 and span_ok and center_ok and monotone_ok
    verdict(8, ok, f"one CLI sweep over +/-2 ms: P_s(0)={p[center]:.2f} (= 1), "
                   f"edges {p[0]:.2f}/{p[-1]:.2f}, non-increasing outward={monotone_ok}")


def test_criterion_9_randomized_invariants():
    cases = 1000
    rng = np.random.default_rng(90)
    checks = {}

    checks["skew round-trip"] = all(
        abs((1.0 + invert_relative_skew(relative_skew(b, a))) * (1.0 + relative_skew(b, a)) - 1.0) <= 1e-12
        for b, a in zip(rng.uniform(-0.5, 0.5, cases), rng.uniform(-0.5, 0.5, cases)))

    # accumulated-offset identity O_acc = k*N*T - t over > 1000 batches
    n, period = 5, 0.05
    trace = synthesize_trace(MessageSchedule(1, period), ClockSpec(skew=ppm(300), jitter_std=2e-5),
                             NoiseModel(), (cases + 3) * n, seed=91)
    report = run_ids(trace, 1, make_config(Variant.NTP, batch_size=n), warmup_batches=2, period=period)
    checks["O_acc identity"] = len(report) >= cases and bool(
        np.all(np.abs(report.o_acc - (report.batch * n * period - report.t)) <= 1e-8))

    probs = [gaussian_cdf(x, m, s) for x, m, s in
             zip(rng.uniform(-50, 50, cases), rng.uniform(-10, 10, cases), rng.uniform(0.01, 10, cases))]
    recursion_probs = [
        cusum_success_recursion([(float(mu), float(sd))] * int(k), BIG_GAMMA, KAPPA,
                                CusumRecursionConfig(grid_resolution=10))
        for mu, sd, k in zip(rng.uniform(-15, 15, cases), rng.uniform(0.2, 4.0, cases),
                             rng.integers(1, 5, cases))
    ]
    checks["probability bounds"] = (all(0.0 <= p <= 1.0 for p in probs)
                                    and all(0.0 <= p <= 1.0 for p in recursion_probs))

    nonneg = True
    cusum_config = make_config(Variant.NTP, update_threshold=GAMMA, detection_threshold=BIG_GAMMA,
                               sensitivity=KAPPA)
    for _ in range(cases):
        cusum = CusumState()
        seed = rng.normal(0.0, 1.0, 4)
        cusum_stage(cusum, seed, len(seed), cusum_config)  # the four, unarmed, seed the references
        _, l_plus, l_minus, _ = cusum_stage(cusum, rng.normal(0.0, 8.0, 10), 0, cusum_config)
        if np.any(l_plus < 0.0) or np.any(l_minus < 0.0):
            nonneg = False
    checks["CUSUM non-negativity"] = nonneg

    rls_ok = True
    for _ in range(cases):
        t = np.cumsum(rng.uniform(0.1, 2.0, 20))
        y = rng.uniform(-1e-3, 1e-3) * t + rng.normal(0.0, 1e-6, 20)
        _, rls = rls_stage(t, y, 1.0)
        if abs(rls.skew - np.dot(y, t) / np.dot(t, t)) > 1e-9:
            rls_ok = False
    checks["RLS normal-equation match"] = rls_ok

    times = np.sort(rng.integers(0, 10**9, cases)) / 1e6  # a microsecond-grid trace
    from canskew.clock import Trace
    trace = Trace(times=times, ids=rng.integers(0, 0x800, cases).astype(np.uint32))
    io_ok = True
    for fmt in LogFormat:
        restored = parse_log(write_trace(trace, fmt), fmt)
        if not (np.allclose(restored.times, trace.times, atol=1e-9)
                and np.array_equal(restored.ids, trace.ids)):
            io_ok = False
    checks["log round-trip"] = io_ok

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    verdict(9, ok, f"{cases}-case suites: " + (", ".join(checks) + " all hold" if ok
                                               else "failed: " + ", ".join(failed)))
