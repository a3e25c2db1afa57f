"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup``, runs its job in
``STEPS`` calls of ``job(step)`` (a closed loop: one process, one job at a
time), merges the steps' outputs with ``combine``, and checks the jobs'
outputs in ``check`` once measuring is over, with tracing off. A job
keeps only small outputs (counts, digests, curves), so memory does not grow
with the number of jobs in a run.

All three use the acceptance scenario: message 0x185, target clock 100 ppm,
attacker clock 150 ppm, 25 us jitter, batches of N = 20, warmup 1000 batches,
attack horizon 60 batches, and the acceptance grids (SOTA 81 points of 10 us,
NTP 61 points of 0.1 us).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time

import numpy as np

from canskew import attacks, cli, clock, correlation, formal, harness, ids, traceio
from canskew.clock import ClockSpec, MessageSchedule, NoiseModel, Trace, ppm
from canskew.curves import SuccessCurve

MESSAGE_ID = 0x185
PERIOD = 0.1
BATCH = 20
TARGET = ClockSpec(skew=ppm(100.0), jitter_std=25e-6)
ATTACKER = ClockSpec(skew=ppm(150.0), jitter_std=25e-6)
WARMUP = 1000
HORIZON = 60
VARIANTS = ("sota", "ntp")
GRIDS = {"sota": np.arange(-40, 41) * 10e-6, "ntp": np.arange(-30, 31) * 1e-7}


def cloak_attack(period):
    return attacks.AttackSpec(
        delta_t0=attacks.compute_delta_t0(ATTACKER.skew, TARGET.skew, period),
        start_batch=WARMUP + 1, attack_batches=HORIZON,
        attacker_clock=ATTACKER, attacker_noise=NoiseModel(),
    )


def success_counts(curve):
    counts = np.rint(curve.p_success * curve.trials).astype(np.int64)
    exact = np.allclose(counts, curve.p_success * curve.trials, rtol=0.0, atol=1e-9)
    return counts, exact


def digest(data):
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def exact_at_us(written, parsed):
    """True when parsing gives back the written trace at whole microseconds,
    which is what the writer keeps."""
    want_us = np.floor_divide(np.round(written.times * 1e9).astype(np.int64), 1000)
    got_us = np.round(parsed.times * 1e6).astype(np.int64)
    return bool(np.array_equal(want_us, got_us) and np.array_equal(written.ids, parsed.ids))


def reference_count(snapshot_text):
    """Length of a snapshot file's CUSUM reference set. Read directly:
    snapshot_from_csv stops at the csv module's 131072-character field
    limit, which a full reference FIFO exceeds."""
    line = next(row for row in snapshot_text.splitlines() if row.startswith("reference_errors,"))
    return len(line.split(",", 1)[1].split())


class Checks:
    """Checked operations: each output compared is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def same_outputs(checks, outputs, key, what):
    """Every iteration of a run repeats the first one's output exactly."""
    first = outputs[0][key]
    for out in outputs[1:]:
        checks.expect(_equal(first, out[key]), f"{what} differs between iterations")


def _equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class Workload:
    """A job of one step unless a workload splits it."""

    STEPS = 1

    def combine(self, outs):
        return outs[0]


class McSweep(Workload):
    """Synthetic-source Monte Carlo delta-T sweeps for both variants on the
    acceptance grids: 12 scenarios, each one monte_carlo_ps call per variant
    with its own seed, so its own warmup shared by 25 trials.

    The warmup state a seed draws sets how wide the success region is, and
    early exit on alarm makes a sweep's cost follow that width: 100-trial
    SOTA sweeps took 4.0 s to 12.0 s across 6 seeds on a 2-core Xeon. Twelve
    warmups per job keep the job time steady across seeds; 25 trials per
    warmup keep the warmups a small share of the work.
    """

    name = "mc-sweep"
    SCENARIOS = STEPS = 12          # one step per scenario
    TRIALS = 25

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=self.SCENARIOS)
        self.source = harness.SyntheticSource(MessageSchedule(MESSAGE_ID, PERIOD), TARGET, NoiseModel())
        self.attack = cloak_attack(PERIOD)
        self.configs = {
            v: [harness.ExperimentConfig(ids=ids.IdsConfig(variant=v), warmup_batches=WARMUP,
                                         trials=self.TRIALS, horizon=HORIZON, grid=GRIDS[v], seed=int(s))
                for s in seeds]
            for v in VARIANTS
        }

    def sizes(self):
        return {v: {"scenarios": self.SCENARIOS, "trials": self.TRIALS, "grid_points": len(GRIDS[v]),
                    "horizon": HORIZON, "warmup_batches": WARMUP,
                    "stream_batches": self.stream_batches(v)} for v in VARIANTS}

    def stream_batches(self, variant):
        return self.SCENARIOS * self.TRIALS * len(GRIDS[variant]) * HORIZON

    def attack_stream_batches(self):
        return sum(self.stream_batches(v) for v in VARIANTS)

    def job(self, step):
        work, counts, exact = {}, {}, True
        for v in VARIANTS:
            start = time.perf_counter()
            curve = harness.monte_carlo_ps(self.source, self.attack, self.configs[v][step])
            elapsed = time.perf_counter() - start
            counts[v], whole = success_counts(curve)
            exact = exact and whole
            work[v] = (self.minimum_stream_batches(v, counts[v]), elapsed)
        return {"work": work, "counts": counts, "exact": exact}

    def combine(self, outs):
        return {"work": {v: (sum(o["work"][v][0] for o in outs), sum(o["work"][v][1] for o in outs))
                         for v in VARIANTS},
                "counts": {v: np.array([o["counts"][v] for o in outs]) for v in VARIANTS},
                "exact": all(o["exact"] for o in outs)}

    def minimum_stream_batches(self, variant, counts):
        """Attack-phase batches of one scenario's sweep that no
        implementation can skip: a surviving stream runs the whole horizon,
        a detected one at least one batch.

        The attempted count (trials x grid x horizon) is fixed, but the work
        behind it follows the seed's success width; this count follows it
        too, so the rate it gives stays steady across seeds.
        """
        survivors = int(counts.sum())
        return survivors * HORIZON + (self.TRIALS * len(GRIDS[variant]) - survivors)

    def check(self, checks, outputs, golden):
        same_outputs(checks, outputs, "counts", "success counts")
        first = outputs[0]
        checks.expect(first["exact"], "success fractions are not whole counts over the trials")
        record = {}
        for v in VARIANTS:
            counts = first["counts"][v]
            center = int(np.flatnonzero(GRIDS[v] == 0.0)[0])
            at_zero = counts[:, center].sum() / (self.SCENARIOS * self.TRIALS)
            edges = counts[:, [0, -1]].sum() / (2 * self.SCENARIOS * self.TRIALS)
            checks.expect(at_zero >= 0.9, f"{v}: cloaking at delta_t = 0 succeeded in {at_zero:.2f} of trials")
            checks.expect(edges <= 0.1, f"{v}: grid edges succeeded in {edges:.2f} of trials")
            record[v] = {"per_point": counts.sum(axis=0).tolist(), "sha256": digest(counts.astype(np.int64))}
        if golden is not None:
            for v in VARIANTS:
                checks.expect(record[v] == golden.get(v), f"{v}: success counts differ from the golden counts")
        return record, {}


class Predict(Workload):
    """Detector warmup, snapshot CSV round trip and model-predicted curves.

    The warmup traffic is the one monte_carlo_ps(seed) draws (its first draw
    seeds the normal trace), so the ADE compares prediction and Monte Carlo
    on the same detector state, as acceptance criterion 3 does.
    """

    name = "predict"
    ADE_TRIALS = 60
    GRID_RESOLUTION = 100

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        normal_seed = int(np.random.default_rng(self.seed).integers(0, 2**63))
        schedule = MessageSchedule(MESSAGE_ID, PERIOD)
        self.trace = clock.synthesize_trace(schedule, TARGET, NoiseModel(), (WARMUP + 1) * BATCH, normal_seed)
        self.configs = {v: ids.IdsConfig(variant=v) for v in VARIANTS}
        self.recursion = formal.CusumRecursionConfig(grid_resolution=self.GRID_RESOLUTION, horizon=HORIZON)

    def sizes(self):
        return {v: {"warmup_batches": WARMUP, "messages": (WARMUP + 1) * BATCH, "grid_points": len(GRIDS[v]),
                    "horizon": HORIZON, "grid_resolution": self.GRID_RESOLUTION,
                    "ade_trials": self.ADE_TRIALS} for v in VARIANTS}

    def attack_stream_batches(self):
        return 0

    def job(self, step):
        work, snapshots, curves = {}, {}, {}
        for v in VARIANTS:
            report = ids.run_ids(self.trace, MESSAGE_ID, self.configs[v], WARMUP, period=PERIOD)
            state = report.final_state
            # the rate covers the formal path only: frozen state -> CSV -> curve
            start = time.perf_counter()
            snapshot = formal.take_snapshot(report, state, state.batch_index + 1)
            text = formal.snapshot_to_csv(snapshot)
            restored = formal.snapshot_from_csv(text)
            curve = formal.success_curve(restored, GRIDS[v], horizon=HORIZON, recursion_cfg=self.recursion)
            work[v] = (len(GRIDS[v]), time.perf_counter() - start)
            snapshots[v] = {"sha256": digest(text), "roundtrip": restored == snapshot}
            curves[v] = curve.p_success
        return {"work": work, "snapshots": snapshots, "p": curves}

    def check(self, checks, outputs, golden):
        same_outputs(checks, outputs, "p", "predicted curves")
        same_outputs(checks, outputs, "snapshots", "snapshot CSV")
        first = outputs[0]
        record, ade = {}, {}
        for v in VARIANTS:
            checks.expect(first["snapshots"][v]["roundtrip"], f"{v}: snapshot changed in the CSV round trip")
            p = first["p"][v]
            checks.expect(bool(np.all((p >= 0.0) & (p <= 1.0))), f"{v}: predicted probability outside [0, 1]")
            cfg = harness.ExperimentConfig(ids=self.configs[v], warmup_batches=WARMUP, trials=self.ADE_TRIALS,
                                           horizon=HORIZON, grid=GRIDS[v], seed=self.seed)
            experimental = harness.monte_carlo_ps(
                harness.SyntheticSource(MessageSchedule(MESSAGE_ID, PERIOD), TARGET, NoiseModel()),
                cloak_attack(PERIOD), cfg)
            counts, exact = success_counts(experimental)
            checks.expect(exact, f"{v}: Monte Carlo fractions are not whole counts")
            predicted = SuccessCurve(grid=GRIDS[v], p_success=p, horizon=HORIZON, source="PREDICTED")
            ade[f"ade_{v}_pct"] = harness.ade(predicted, experimental)
            record[v] = {"p": p.tolist(), "mc_counts": counts.tolist(), "ade_pct": ade[f"ade_{v}_pct"]}
        if golden is not None:
            for v in VARIANTS:
                want = golden[v]
                # numeric rework of the recursion may move points slightly; the
                # curve as a whole may move its ADE by at most 0.1 pct-pt
                checks.expect(np.max(np.abs(np.array(want["p"]) - first["p"][v])) <= 0.01,
                              f"{v}: predicted curve moved more than 0.01 from the golden curve")
                checks.expect(record[v]["mc_counts"] == want["mc_counts"],
                              f"{v}: Monte Carlo counts differ from the golden counts")
                checks.expect(abs(record[v]["ade_pct"] - want["ade_pct"]) <= 0.1,
                              f"{v}: ADE {record[v]['ade_pct']:.3f}% is more than 0.1 pct-pt from "
                              f"the golden {want['ade_pct']:.3f}%")
        return record, ade


class LogPipeline(Workload):
    """The recorded-log path through ``cli.main`` with files in a work dir.

    Steps: generate per-ID candump logs, parse and merge them with a sibling
    pair into one multi-ID candump log and a CSV log of its first 200 s,
    parse both, detect with both variants over the long target stream (long
    enough that the CUSUM reference FIFO fills and evicts), run the
    consistency study on the CSV log, run replay Monte Carlo on a small grid
    (per-trial warmup dominates) and correlate the sibling pair.
    """

    name = "log-pipeline"
    TARGET_PERIOD = 0.01
    TARGET_COUNT = 210_000          # 10 500 batches of 20, past ids.REFERENCE_CAP
    TARGET_JITTER = 100e-6          # the consistency study's setting (acceptance criterion 6)
    OTHERS = ((0x0C1, 0.05, -40.0, 42_000), (0x3E8, 0.5, 60.0, 4_200), (0x7DF, 1.0, 20.0, 2_100))
    DROPS = 50                      # target messages lost on the bus, repaired by --fill-missing
    KEEP_HEAD = 25_000              # no drops here: the CSV window and replay warmups stay whole
    CSV_WINDOW_S = 200.0
    SIBLINGS = correlation.CorrelationScenario(id_v=0x1A0, id_w=0x1A1, transmission_duration=250e-6,
                                               batch_size=BATCH, period=0.1)
    SIBLING_BATCHES = 1050
    SIBLING_CLOCK = ClockSpec(skew=ppm(-30.0), jitter_std=25e-6)
    START_TIME = 1.0                # canskew generate's default start time
    BATCH_SIZES = "20,40,60"
    REPLAY_TRIALS = 8
    REPLAY_GRIDS = {"sota": np.arange(-2, 3) * 1e-6, "ntp": np.arange(-2, 3) * 1e-8}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def _path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        rng = np.random.default_rng(self.seed)
        gen_seeds = rng.integers(0, 2**31, size=1 + len(self.OTHERS))
        sibling_seed, replay_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        self.drop = np.sort(rng.choice(np.arange(self.KEEP_HEAD, self.TARGET_COUNT), self.DROPS, replace=False))
        streams = [(MESSAGE_ID, self.TARGET_PERIOD, 100.0, self.TARGET_COUNT, self.TARGET_JITTER)]
        streams += [(mid, period, skew, count, 25e-6) for mid, period, skew, count in self.OTHERS]
        self.generated = [self._path(f"gen_{stream[0]:03x}.log") for stream in streams]
        self.generate_argv = [
            ["generate", "--id", hex(mid), "--period", repr(period), "--skew-ppm", repr(skew),
             "--jitter-std", repr(jitter), "--count", str(count), "--seed", str(int(s)), "--out", path]
            for (mid, period, skew, count, jitter), s, path in zip(streams, gen_seeds, self.generated)
        ]
        pair = correlation.simulate_sibling_pair(self.SIBLINGS, self.SIBLING_CLOCK, self.SIBLING_BATCHES,
                                                 sibling_seed)
        # shift to the generate start time so every written timestamp is positive
        self.siblings = [Trace(times=t.times + self.START_TIME, ids=t.ids) for t in pair]
        self.detect_argv = {
            v: ["detect", "--input", self._path("bus.log"), "--id", hex(MESSAGE_ID),
                "--period", repr(self.TARGET_PERIOD), "--variant", v, "--warmup", str(WARMUP),
                "--fill-missing", "--snapshot-out", self._path(f"snapshot_{v}.csv"),
                "--out", self._path(f"report_{v}.csv")]
            for v in VARIANTS
        }
        self.consistency_argv = [
            "consistency", "--format", "csv", "--id", hex(MESSAGE_ID), "--period", repr(self.TARGET_PERIOD),
            "--batch-sizes", self.BATCH_SIZES, "--out", self._path("consistency.csv"), self._path("bus.csv"),
        ]
        attack = cloak_attack(self.TARGET_PERIOD)
        self.replay = {
            v: (attack, harness.ExperimentConfig(ids=ids.IdsConfig(variant=v), warmup_batches=WARMUP,
                                                 trials=self.REPLAY_TRIALS, horizon=HORIZON,
                                                 grid=self.REPLAY_GRIDS[v], seed=replay_seed))
            for v in VARIANTS
        }

    def sizes(self):
        lines = self.TARGET_COUNT - self.DROPS + sum(o[3] for o in self.OTHERS) + 2 * len(self.siblings[0])
        return {"candump_lines": lines, "target_messages": self.TARGET_COUNT - self.DROPS,
                "target_batches": self.TARGET_COUNT // BATCH, "reference_cap": ids.REFERENCE_CAP,
                "csv_window_s": self.CSV_WINDOW_S, "consistency_batch_sizes": self.BATCH_SIZES,
                "replay": {v: {"trials": self.REPLAY_TRIALS, "grid_points": len(self.REPLAY_GRIDS[v]),
                               "horizon": HORIZON, "warmup_batches": WARMUP} for v in VARIANTS},
                "sibling_batches": self.SIBLING_BATCHES}

    def attack_stream_batches(self):
        return sum(self.REPLAY_TRIALS * len(self.REPLAY_GRIDS[v]) * HORIZON for v in VARIANTS)

    def _cli(self, argv):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"canskew {argv[0]} exited {code}: {err.getvalue().strip()}")

    def _read(self, name):
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def _write(self, name, text):
        with open(self._path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def job(self, step):
        candump = traceio.LogFormat.CANDUMP
        csv = traceio.LogFormat.CSV
        # 1. per-ID logs from the CLI, merged with the sibling pair
        for argv in self.generate_argv:
            self._cli(argv)
        parts = []
        for path in self.generated:
            with open(path, encoding="utf-8") as fh:
                parts.append(traceio.parse_log(fh.read(), candump))
        target = parts[0]
        keep = np.ones(len(target), dtype=bool)
        keep[self.drop] = False
        merged = Trace.merge(Trace(times=target.times[keep], ids=target.ids[keep]), *parts[1:], *self.siblings)
        head = merged.times < self.START_TIME + self.CSV_WINDOW_S
        window = Trace(times=merged.times[head], ids=merged.ids[head])
        bus_log = traceio.write_trace(merged, candump)
        bus_csv = traceio.write_trace(window, csv)
        self._write("bus.log", bus_log)
        self._write("bus.csv", bus_csv)
        # 2. parse both logs back
        parsed = traceio.parse_log(bus_log, candump)
        roundtrip = {"candump": exact_at_us(merged, parsed),
                     "csv": exact_at_us(window, traceio.parse_log(bus_csv, csv))}
        # 3. detect with both variants over the long stream
        work, reports = {}, {}
        for v in VARIANTS:
            start = time.perf_counter()
            self._cli(self.detect_argv[v])
            elapsed = time.perf_counter() - start
            text = self._read(f"report_{v}.csv")
            batches = text.count("\n")  # header + one row per batch after batch 0
            work[v] = (batches * BATCH, elapsed)
            reports[v] = {"sha256": digest(text), "batches": batches,
                          "references": reference_count(self._read(f"snapshot_{v}.csv"))}
        # 4. consistency study on the CSV log
        self._cli(self.consistency_argv)
        consistency = self._read("consistency.csv")
        # 5. replay Monte Carlo on the recorded target stream, curve CSV round trip
        replay = {}
        for v in VARIANTS:
            attack, cfg = self.replay[v]
            curve = harness.monte_carlo_ps(parsed, attack, cfg, message_id=MESSAGE_ID, period=self.TARGET_PERIOD)
            self._write(f"replay_{v}.csv", curve.to_csv())
            restored = SuccessCurve.from_csv(self._read(f"replay_{v}.csv"), trials=cfg.trials)
            replay[v] = {"curve": curve, "restored": restored}
        # 6. sibling correlation
        rho = correlation.correlate_pair(parsed, parsed, self.SIBLINGS).rho
        return {"work": work, "roundtrip": roundtrip, "reports": reports, "consistency": consistency,
                "replay": replay, "rho": rho}

    def check(self, checks, outputs, golden):
        def digests(out):
            return {"reports": {v: out["reports"][v]["sha256"] for v in VARIANTS},
                    "consistency": digest(out["consistency"]),
                    "replay": {v: success_counts(out["replay"][v]["curve"])[0] for v in VARIANTS},
                    "rho": out["rho"]}

        for out in outputs:
            out["digests"] = digests(out)
        same_outputs(checks, outputs, "digests", "detect reports, consistency, replay counts or rho")
        first = outputs[0]
        for log, exact in first["roundtrip"].items():
            checks.expect(exact, f"{log}: write -> parse round trip is not exact at microsecond resolution")
        for v in VARIANTS:
            rep = first["reports"][v]
            evicting = (rep["references"] == ids.REFERENCE_CAP
                        and rep["batches"] - 1 > ids.REFERENCE_CAP + ids.CUSUM_BOOTSTRAP_BATCHES)
            checks.expect(evicting, f"{v}: detect did not fill and evict the CUSUM reference FIFO")
            curve, restored = first["replay"][v]["curve"], first["replay"][v]["restored"]
            checks.expect(success_counts(curve)[1], f"{v}: replay fractions are not whole counts")
            checks.expect(np.array_equal(curve.p_success, restored.p_success)
                          and np.allclose(curve.grid, restored.grid, rtol=1e-11, atol=0.0),
                          f"{v}: replay curve changed in the CSV round trip")
        rows = [row.split(",") for row in first["consistency"].splitlines()[1:]]
        sigmas = {f"{variant}/{case}": sigma for variant, case, sigma, _ in rows}
        # one input log: the across-trace case has a single estimate and no sigma
        checks.expect(sorted(k for k, s in sigmas.items() if s) == [
            f"{v}/{case}" for v in sorted(VARIANTS) for case in ("batch_size", "start_offset")],
            f"consistency sigmas missing or unexpected: {sigmas}")
        checks.expect(first["rho"] >= 0.95, f"sibling correlation {first['rho']:.3f} below 0.95")
        d = first["digests"]
        record = {"reports": d["reports"], "consistency": d["consistency"], "consistency_sigmas": sigmas,
                  "replay": {v: d["replay"][v].tolist() for v in VARIANTS}, "rho": round(d["rho"], 12)}
        if golden is not None:
            for key in ("reports", "consistency", "replay", "rho"):
                checks.expect(record[key] == golden.get(key), f"{key} differs from the golden output")
        return record, {}


WORKLOADS = {w.name: w for w in (McSweep, Predict, LogPipeline)}
