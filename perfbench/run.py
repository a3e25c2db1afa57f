#!/usr/bin/env python3
"""canskew benchmark.

    python3 perfbench/run.py --workload {mc-sweep,predict,log-pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout, never from an installed copy. Each workload builds
its inputs from the seed in its set-up and runs its job in a closed loop
(one process, one job at a time, no worker threads, BLAS pinned to one
thread) for ``--seconds``; before every step of a job, the set-up is repeated
for a tenth of a second, and ``setup_s`` is the median of all set-ups.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json. With ``--trace 1`` jobs alternate between untraced and
traced (see tracer.py); the last line reports the per-layer metrics, the
tracing overhead among them. Outputs are checked
after measuring, and at the default seed (0) against golden.json. A run
record with provenance goes to perfbench/out/, spans of a traced run too.
``--write-golden`` (at seed 0) rewrites this workload's golden outputs.
"""
import os

# pin BLAS before numpy loads: one job at a time, one thread (<= nproc)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
# A set-up takes 0.2 ms to 2 ms, while the host's speed can sit at one of two
# levels, 1.8x apart, for seconds at a time. Set-up samples taken in short
# slices before every step of every job span the whole run, so their median
# weighs the two levels as the run's job times do.
SETUP_SLICE_S = 0.1


def parse_args():
    p = argparse.ArgumentParser(description="canskew benchmark")
    p.add_argument("--workload", required=True, choices=["mc-sweep", "predict", "log-pipeline"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="rewrite this workload's golden outputs (default seed only)")
    return p.parse_args()


def import_program():
    """Import canskew from this checkout's src/; exit non-zero if it has none."""
    if not (SRC / "canskew" / "__init__.py").is_file():
        sys.exit(f"error: no canskew sources under {SRC}; run from the root of a canskew checkout")
    sys.path.insert(0, str(SRC))
    import canskew

    if Path(canskew.__file__).resolve().parent != SRC / "canskew":
        sys.exit(f"error: imported canskew from {canskew.__file__}, not from {SRC}")


def blas_threads():
    """Thread counts reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({m.group(1) for m in re.finditer(r"(\S*openblas\S*\.so\S*)", fh.read())})
    except OSError:
        return found
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def git_rev():
    """HEAD of the checkout's own git repository, or None outside one."""
    # the ceiling keeps git from taking the rev of a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "canskew").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loop": "closed: one process, one job at a time, no worker threads",
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV}, "blas_threads": blas_threads(),
        "git_rev": git_rev(), "src_sha256": source_digest(), "sizes": workload.sizes(),
    }


def set_up(workload, seconds, times):
    """Set the workload up back to back for ``seconds`` (at least once)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)


def loop(workload, seconds, tracer=None):
    """Run jobs back to back while the next one, at the median job time so
    far, ends within ``seconds``; return (job wall times, job outputs, traced
    flags, set-up times).

    A job runs in ``workload.STEPS`` steps, each after a slice of set-ups.
    With a tracer, every second job runs traced, so untraced and traced jobs
    share the host's drift; at least one of each runs. Without, at least one
    job runs.
    """
    walls, outputs, traced, setup_times = [], [], [], []
    min_jobs = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(walls) < min_jobs or time.perf_counter() + statistics.median(walls) <= deadline:
        on = tracer is not None and len(walls) % 2 == 1
        wall, outs = 0.0, []
        for step in range(workload.STEPS):
            set_up(workload, SETUP_SLICE_S, setup_times)
            gc.collect()
            if on:
                tracer.install()
            try:
                start = time.perf_counter()
                if on:
                    with tracer.span("bench.iteration"):
                        outs.append(workload.job(step))
                else:
                    outs.append(workload.job(step))
                wall += time.perf_counter() - start
            finally:
                if on:
                    tracer.uninstall()
        walls.append(wall)
        outputs.append(workload.combine(outs))
        traced.append(on)
    return walls, outputs, traced, setup_times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, walls, outputs, rss_mb):
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_mb,
    }
    # total work over total time: under a host whose speed flips between two
    # levels, a mean holds steadier than a median of per-job rates
    for variant in outputs[0]["work"]:
        units = sum(out["work"][variant][0] for out in outputs)
        metrics[f"{variant}_work_per_s"] = units / sum(out["work"][variant][1] for out in outputs)
    return metrics


def per_layer(table, untraced_walls, traced_walls, attack_stream_batches, extra):
    from tracer import MODULES
    from workloads import VARIANTS

    n = len(traced_walls)

    def per(value):
        return value / n

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    g = table.get
    m = {}
    pb_calls, pb_self = g("ids.process_batch", "calls"), g("ids.process_batch", "self_s")
    m["ids.process_batch.calls"] = per(pb_calls)
    m["ids.process_batch.self_s"] = per(pb_self)
    m["ids.process_batch.us_per_call"] = 1e6 * ratio(pb_self, pb_calls)
    m["ids.clone_state.calls"] = per(g("ids.clone_state", "calls"))
    m["ids.clone_state.self_s"] = per(g("ids.clone_state", "self_s"))
    m["ids.init_state.calls"] = per(g("ids.init_state", "calls"))
    m["ids.run_ids.self_s"] = per(g("ids.run_ids", "self_s"))
    in_run_ids = table.count_where("ids.process_batch", table.under("ids.run_ids"))
    m["ids.run_ids.batches_per_s"] = ratio(in_run_ids, g("ids.run_ids", "total_s"))
    m["attacks.attack_arrivals.calls"] = per(g("attacks.attack_arrivals", "calls"))
    m["attacks.attack_arrivals.self_s"] = per(g("attacks.attack_arrivals", "self_s"))
    m["clock.synthesize_trace.self_s"] = per(g("clock.synthesize_trace", "self_s"))
    m["clock.synthesize_trace.msgs_per_s"] = ratio(g("clock.synthesize_trace", "counts"),
                                                   g("clock.synthesize_trace", "self_s"))
    m["harness.monte_carlo_ps.self_s"] = per(g("harness.monte_carlo_ps", "self_s"))
    m["harness.consistency_study.self_s"] = per(g("harness.consistency_study", "self_s"))
    armed_in_mc = table.count_where("ids.process_batch", table.under("harness.monte_carlo_ps"), weighted=True)
    m["harness.attack_batch_ratio"] = ratio(per(armed_in_mc), attack_stream_batches)
    rec_calls, rec_self = g("formal.cusum_success_recursion", "calls"), g("formal.cusum_success_recursion", "self_s")
    m["formal.cusum_success_recursion.calls"] = per(rec_calls)
    m["formal.cusum_success_recursion.self_s"] = per(rec_self)
    m["formal.cusum_success_recursion.ms_per_call"] = 1e3 * ratio(rec_self, rec_calls)
    m["formal.ntp_forecast.calls"] = per(g("formal.ntp_forecast", "calls"))
    m["formal.ntp_forecast.self_s"] = per(g("formal.ntp_forecast", "self_s"))
    m["formal.sota_success_prob.self_s"] = per(g("formal.sota_success_prob", "self_s"))
    m["formal.take_snapshot.self_s"] = per(g("formal.take_snapshot", "self_s"))
    m["formal.snapshot_csv.self_s"] = per(g("formal.snapshot_to_csv", "self_s") + g("formal.snapshot_from_csv", "self_s"))
    for fn in ("write_trace", "parse_log"):
        self_s = g(f"traceio.{fn}", "self_s")
        m[f"traceio.{fn}.self_s"] = per(self_s)
        m[f"traceio.{fn}.lines_per_s"] = ratio(g(f"traceio.{fn}", "counts"), self_s)
    m["traceio.fill_missing.self_s"] = per(g("traceio.fill_missing", "self_s"))
    m["curves.csv.self_s"] = per(g("curves.SuccessCurve.to_csv", "self_s") + g("curves.SuccessCurve.from_csv", "self_s"))
    m["correlation.correlate_pair.self_s"] = per(g("correlation.correlate_pair", "self_s"))
    for command in ("generate", "detect", "consistency"):
        m[f"cli.main.{command}.self_s"] = per(g(f"cli.main.{command}", "self_s"))
    for module in MODULES:
        m[f"{module}.self_s"] = per(table.prefix_self(module + "."))
    m["bench.self_s"] = per(table.prefix_self("bench."))
    m["trace.wall_s"] = per(g("bench.iteration", "total_s"))
    m["trace.untraced_wall_s"] = statistics.fmean(untraced_walls)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    for v in VARIANTS:
        m[f"ade_{v}_pct"] = extra.get(f"ade_{v}_pct", 0.0)
    return m


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = parse_args()
    import_program()
    import numpy as np
    import workloads
    from tracer import SpanTable, Tracer

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        tracer = Tracer() if args.trace else None
        walls, outputs, traced, setup_times = loop(workload, args.seconds, tracer)
        # the job's high-water mark, before the checks add their own
        rss_mb = peak_rss_mb()

        golden_all = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        golden = golden_all.get(args.workload) if args.seed == DEFAULT_SEED else None
        checks = workloads.Checks()
        record, extra = workload.check(checks, outputs, None if args.write_golden else golden)
        if args.seed == DEFAULT_SEED and golden is None and not args.write_golden:
            checks.expect(False, f"no golden outputs for {args.workload}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        spans = tracer.arrays()
        untraced_walls = [w for w, on in zip(walls, traced) if not on]
        traced_walls = [w for w, on in zip(walls, traced) if on]
        metrics = per_layer(SpanTable(spans), untraced_walls, traced_walls, workload.attack_stream_batches(), extra)
        np.savez_compressed(OUT / f"spans-{tag}.npz", **spans)
    else:
        metrics = end_to_end(setup_times, walls, outputs, rss_mb)

    declared = declared_metrics(args.trace)
    checks.expect(set(metrics) == set(declared),
                  f"metrics emitted {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": declared.get(name, "?")} for name, value in metrics.items()},
    }
    if args.write_golden:
        if args.seed != DEFAULT_SEED:
            sys.exit("error: --write-golden needs the default seed")
        golden_all[args.workload] = record
        GOLDEN.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")

    info = provenance(args, workload)
    info.update(iterations=len(walls), walls_s=walls, traced=traced, setups=len(setup_times),
                setup_quartiles_s=statistics.quantiles(setup_times, n=4),
                work=[out["work"] for out in outputs],
                check_failures=checks.notes, outputs=record, result=result)
    (OUT / f"result-{tag}.json").write_text(json.dumps(info, indent=1, default=str) + "\n")
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"provenance": {k: info[k] for k in ("nproc", "python", "numpy", "scipy", "blas_threads",
                                                          "git_rev", "seed", "sizes")}}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
