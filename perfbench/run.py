#!/usr/bin/env python3
"""ftspectra benchmark: one workload per run, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload estimate-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke      # self-test: every workload, tiny sizes

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of
the run (run facts, samples and, when traced, every span) is written once at
the end to ``.perfbench_out/`` in the checkout. Workloads, metrics and the
layer each metric should move are documented in ``workloads.py``.

The program is the checkout's ``src/ftspectra``; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS", "FTSPECTRA_PARALLEL")


@dataclass(frozen=True)
class Sizes:
    cli: tuple              # (T, d) of estimate-cli
    long: tuple             # (T, d) of estimate-long
    imse_T: tuple
    imse_d: int
    imse_runs: int          # replications per T in one imse-mc operation
    setups: int             # set-ups per untraced run; setup_s is their median
    min_ops: int            # operations per run, at the least
    probe_repeats: int


FULL = Sizes(cli=(2048, 100), long=(16384, 50), imse_T=(256, 1024, 2048), imse_d=50,
             imse_runs=2, setups=3, min_ops=3, probe_repeats=3)
SMOKE = Sizes(cli=(64, 12), long=(256, 12), imse_T=(32, 48, 64), imse_d=12,
              imse_runs=2, setups=1, min_ops=1, probe_repeats=1)

#: the smoothed-estimator metric of each imse-mc size, by position
SMOOTHED_METRICS = tuple(f"estimator.smoothed_s.T{T}" for T in FULL.imse_T)

E2E_UNITS = {"setup_s": "s", "wall_p50_s": "s", "wall_tail_s": "s",
             "peak_rss_mb": "MB", "reps_per_s": "1/s"}


def load_program():
    """Import the checkout's package, or exit 2 if the checkout has none."""
    if not os.path.isfile(os.path.join(SRC, "ftspectra", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/ftspectra is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import ftspectra

    if not os.path.abspath(ftspectra.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported ftspectra from {ftspectra.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def _openblas():
    """(version, thread count) of the OpenBLAS numpy loaded, if it can tell."""
    import ctypes

    import numpy as np

    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # the checkout is not a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_facts(seed: int) -> dict:
    import numpy
    import scipy

    version, threads = _openblas()
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def per_second(amount, seconds) -> float:
    """A rate, or 0 for a layer that was not measured."""
    return amount / seconds if seconds > 0.0 else 0.0


def tail(values):
    """(value, percentile, samples beyond it): the highest percentile with at
    least 10 samples beyond it; the maximum when there are fewer than 11."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - k - 1


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

class Run:
    """Operation bookkeeping of one run: every operation counts, set-up,
    warm-up and probe operations included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, problems, what) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


def setup_context(wl, workdir, seed, sizes, run, previous=None):
    """Set up once and warm up with one checked operation; later set-ups
    inherit the first output, so every invocation of a run is compared."""
    ctx = wl.setup(workdir, seed, sizes)
    if previous is not None:
        ctx.digests, ctx.rows, ctx.out_bytes = previous.digests, previous.rows, previous.out_bytes
    run.count(wl.operate(ctx).problems, "warm-up")
    return ctx


def run_untraced(wl, seed, seconds, sizes, workdir, run):
    from workloads import peak_rss_self_mb

    setup_times, ctx = [], None
    for _ in range(sizes.setups):
        t0 = time.perf_counter()
        ctx = setup_context(wl, workdir, seed, sizes, run, ctx)
        setup_times.append(time.perf_counter() - t0)
    ops = []
    t_start = time.perf_counter()
    while len(ops) < sizes.min_ops or time.perf_counter() - t_start < seconds:
        op = wl.operate(ctx)
        run.count(op.problems, f"operation {len(ops)}")
        ops.append(op)
    walls = [op.wall for op in ops]
    rss = ([op.rss_mb for op in ops] if ops[0].rss_mb is not None else [peak_rss_self_mb()])
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "setup_s": median(setup_times),
        "wall_p50_s": median(walls),
        "wall_tail_s": tail_value,
        "peak_rss_mb": median(rss),
        "reps_per_s": sum(op.reps for op in ops) / sum(walls),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_p50_s": f"median of {len(walls)} operations",
        "wall_tail_s": f"p{tail_pct:.1f} of {len(walls)} operations, {beyond} beyond it",
        "peak_rss_mb": ("median over child processes" if ops[0].rss_mb is not None
                        else "client process, program in-process"),
        "reps_per_s": f"{sum(op.reps for op in ops)} replications in {sum(walls):.3f} s",
    }
    samples = {"setup_s": setup_times, "walls": walls, "rss_mb": rss}
    return metrics, notes, samples


def layer_metrics(wl, ctx, tracer, traced_ops, untraced_walls, values):
    """Per-layer metrics from the spans of the traced operations, or of the
    probes for calls the operation does not make."""
    from spans import self_times
    from workloads import LAYER_TARGETS

    recs = self_times(tracer.spans)
    ok_ops = {f"op{i}" for i, op in enumerate(traced_ops) if not op.problems}
    op_recs = [r for r in recs if r["op"] in ok_ops]
    probe_recs = [r for r in recs if r["op"] == "probe"]
    roots = [r for r in op_recs if r["parent"] is None]
    op_layers = sorted({r["name"] for r in op_recs} - set(wl.harness))
    sources = {}

    def per_op(name):
        sums = dict.fromkeys(ok_ops, 0.0)
        for r in op_recs:
            if r["name"] == name:
                sums[r["op"]] += r["self"]
        return median(list(sums.values()))

    def layer(name, metric):
        if name in op_layers:
            sources[metric] = "traced operations"
            return per_op(name)
        durations = [r["self"] for r in probe_recs if r["name"] == name]
        if durations:
            sources[metric] = "probe"
            return median(durations)
        sources[metric] = "not measured"
        return 0.0

    def smoothed_by_T(T, metric):
        recs_T = [r for r in op_recs if r.get("attrs", {}).get("T") == T]
        sources[metric] = "traced operations"
        if not recs_T:
            recs_T = [r for r in probe_recs if r.get("attrs", {}).get("T") == T]
            sources[metric] = "probe"
        by_kernel = {}
        for r in recs_T:
            by_kernel.setdefault(r["attrs"]["kernel"], []).append(r["self"])
        if not by_kernel:
            sources[metric] = "not measured"
            return 0.0
        return median([median(v) for v in by_kernel.values()])

    m = {}
    m["import.ftspectra_s"] = layer("import.cold", "import.ftspectra_s")
    m["import.scipy_s"] = median(values["import.scipy_s"])
    m["core.read_s"] = layer("core.read", "core.read_s")
    m["core.read_MBps"] = per_second(os.path.getsize(ctx.csv_path) / 1e6, m["core.read_s"])
    m["core.write_s"] = layer("core.write", "core.write_s")
    m["core.write_MBps"] = per_second(ctx.out_bytes / 1e6, m["core.write_s"])
    m["kernels.weight_s"] = layer("kernels.weight", "kernels.weight_s")
    n_freq, d = len(ctx.raw.frequencies), ctx.series.d
    T_list = ctx.imse_config.T_list
    for T, metric in zip(T_list, SMOOTHED_METRICS):
        m[metric] = smoothed_by_T(T, metric)
    ops_count = sum(n_freq * (T - 1) * d * d for T in T_list)
    m["estimator.smoothed_ops"] = float(ops_count)
    m["estimator.smoothed_gops"] = per_second(ops_count / 1e9,
                                              sum(m[k] for k in SMOOTHED_METRICS))
    m["estimator.lagwindow_s"] = layer("estimator.lagwindow", "estimator.lagwindow_s")
    m["estimator.lags"] = float(ctx.lags)
    m["psd.clip_s"] = layer("psd.clip", "psd.clip_s")
    m["psd.neg_eigs"] = float(ctx.neg_eigs)
    m["psd.min_eig_s"] = layer("psd.min_eig", "psd.min_eig_s")
    m["bandwidth.select_s"] = layer("bandwidth.select", "bandwidth.select_s")
    m["bandwidth.q_hat"] = float(ctx.report.q_hat)
    m["bandwidth.truncated"] = float(ctx.report.truncated)
    m["sim.generate_s"] = layer("sim.generate", "sim.generate_s")
    m["sim.true_spectrum_s"] = layer("sim.true_spectrum", "sim.true_spectrum_s")
    m["sim.imse_s"] = layer("sim.imse", "sim.imse_s")
    speedups = values["sim.parallel_speedup"]
    m["sim.parallel_speedup"] = median(speedups)
    m["sim.parallel_speedup_range"] = max(speedups) - min(speedups)

    traced_walls = [r["end"] - r["start"] for r in roots]
    layer_sum = sum(per_op(name) for name in op_layers)
    m["cli.other_s"] = median(untraced_walls) - layer_sum
    m["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)

    # share of traced operation wall time per layer, and per module
    base = sum(traced_walls)
    share = {}
    for r in op_recs:
        share[r["name"]] = share.get(r["name"], 0.0) + r["self"] / base
    intended = sum(share.get(name, 0.0) for name in wl.intended)
    modules = {}
    for name, s in share.items():
        if name not in wl.intended:
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + s
    m["trace.intended_share_pct"] = 100.0 * intended
    shares = {
        "base": f"{len(traced_walls)} traced operations, {base:.3f} s of wall time "
                f"(median {median(traced_walls):.4f} s each)",
        "layers": dict(sorted(share.items(), key=lambda kv: -kv[1])),
        "intended": list(wl.intended),
        "intended_share": intended,
        "largest_other_module": max(modules.items(), key=lambda kv: kv[1]) if modules else None,
        "intended_is_largest": all(intended >= s for s in modules.values()),
    }
    units = {name: LAYER_TARGETS[name][0] for name in LAYER_TARGETS}
    return m, units, sources, shares


def run_traced(wl, seed, seconds, sizes, workdir, run):
    from spans import Tracer
    from workloads import run_probes

    ctx = setup_context(wl, workdir, seed, sizes, run)
    tracer = Tracer()
    values, probe_ops = run_probes(wl, ctx, tracer, sizes.probe_repeats)
    for problems in probe_ops:
        run.count(problems, "probe")
    traced, untraced = [], []
    t_start = time.perf_counter()
    while (min(len(traced), len(untraced)) < sizes.min_ops
           or time.perf_counter() - t_start < seconds):
        tracer.op = f"op{len(traced)}"
        op = wl.operate_traced(ctx, tracer)
        run.count(op.problems, f"traced operation {len(traced)}")
        traced.append(op)
        tracer.op = None
        op = wl.operate(ctx)
        run.count(op.problems, f"operation {len(untraced)}")
        untraced.append(op)
    if not any(not op.problems for op in traced):
        raise RuntimeError("no traced operation succeeded: " + "; ".join(run.problems[:3]))
    metrics, units, sources, shares = layer_metrics(
        wl, ctx, tracer, traced, [op.wall for op in untraced], values)
    extra = {"sources": sources, "shares": shares,
             "unpatched": ctx.extra.get("unpatched", [])}
    return metrics, units, extra, tracer


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def result_line(run, metrics, units) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def print_untraced(wl, metrics, notes, run):
    for name, value in metrics.items():
        print(f"{wl.name:14s} {name:12s} = {value:.6g} {E2E_UNITS[name]:4s} ({notes[name]})")
    print(f"{wl.name:14s} {'ops_failed':12s} = {run.failed / run.attempted:.6g} fraction "
          f"({run.failed} of {run.attempted} operations)")


def print_traced(wl, metrics, units, extra, run):
    from workloads import LAYER_TARGETS

    for name, value in metrics.items():
        _, moves, where = LAYER_TARGETS[name]
        print(f"{wl.name:14s} {name:28s} = {value:.6g} {units[name]:6s} "
              f"[{extra['sources'].get(name, 'computed')}; should move {moves} on {where}]")
    shares = extra["shares"]
    print(f"{wl.name:14s} layer shares of {shares['base']}:")
    for name, share in shares["layers"].items():
        print(f"{wl.name:14s}   {name:22s} {100 * share:6.2f} %")
    other = shares["largest_other_module"]
    print(f"{wl.name:14s} intended layer {'+'.join(shares['intended'])} holds "
          f"{100 * shares['intended_share']:.2f} % of the same base; largest other module "
          f"{other[0] if other else '-'} {100 * other[1] if other else 0:.2f} %: "
          f"{'largest share' if shares['intended_is_largest'] else 'NOT the largest share'}")
    if extra["unpatched"]:
        print(f"{wl.name:14s} not traced (no such attribute): {', '.join(extra['unpatched'])}")
    print(f"{wl.name:14s} ops_failed = {run.failed / run.attempted:.6g} fraction "
          f"({run.failed} of {run.attempted} operations)")


def measure(name, seed, seconds, trace, sizes):
    """One run; returns (result line, full record)."""
    from workloads import WORKLOADS, remove_workdir, workdir_for

    wl = WORKLOADS[name]
    facts = run_facts(seed)
    print(f"# ftspectra benchmark: workload {name}, seed {seed}, {seconds} s, trace {trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    workdir = workdir_for(ROOT, name)
    run = Run()
    try:
        if trace:
            metrics, units, extra, tracer = run_traced(wl, seed, seconds, sizes, workdir, run)
            print_traced(wl, metrics, units, extra, run)
            record = {"facts": facts, "metrics": metrics, **extra, "problems": run.problems}
        else:
            metrics, notes, samples = run_untraced(wl, seed, seconds, sizes, workdir, run)
            units = E2E_UNITS
            tracer = None
            print_untraced(wl, metrics, notes, run)
            record = {"facts": facts, "metrics": metrics, "notes": notes,
                      "samples": samples, "problems": run.problems}
    finally:
        remove_workdir(workdir)
    for problem in run.problems[:10]:
        print(f"{name:14s} FAILED {problem}")
    return run, metrics, units, record, tracer


def write_record(name, seed, trace, record, tracer):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}.json")
    if tracer is not None:
        tracer.dump(path, **record)
    else:
        with open(path, "w") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced, one operation each;
    the metric names must be BENCHMARK.json's, and deliberately corrupted
    outputs must be counted as failed operations."""
    from workloads import WORKLOADS, LAYER_TARGETS, remove_workdir, workdir_for

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")
    if per_layer != {k: v[0] for k, v in LAYER_TARGETS.items()}:
        failures.append("BENCHMARK.json per_layer differs from LAYER_TARGETS")
    for name in WORKLOADS:
        for trace, expected in ((0, e2e), (1, per_layer)):
            run, metrics, units, _, _ = measure(name, 0, 0, trace, SMOKE)
            got = {k: units[k] for k in metrics}
            if got != expected:
                failures.append(f"{name} trace {trace}: metrics {sorted(got)} "
                                f"are not BENCHMARK.json's {sorted(expected)}")
            if run.failed:
                failures.append(f"{name} trace {trace}: {run.problems}")
        workdir = workdir_for(ROOT, name)
        try:
            failures += negative_cases(WORKLOADS[name], workdir)
        finally:
            remove_workdir(workdir)
    for f in failures:
        print("SELFTEST FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def negative_cases(wl, workdir) -> list:
    """Corrupt a copy of a real output; the operation check must fail."""
    import dataclasses

    from workloads import ImseWorkload, check_estimate_files, check_rows, verify_cli_output

    run = Run()
    ctx = setup_context(wl, workdir, 0, SMOKE, run)
    if run.failed:
        return [f"{wl.name}: warm-up failed: {run.problems}"]
    expected_failures = 0
    if isinstance(wl, ImseWorkload):
        rows = list(ctx.rows)
        nan = [dataclasses.replace(rows[0], mean_imse=float("nan"))] + rows[1:]
        shifted = rows[:-1] + [dataclasses.replace(rows[-1], mean_imse=rows[-1].mean_imse * 2)]
        for bad in (nan, shifted):
            run.count(check_rows(bad, ctx.rows, ctx.imse_config), "corrupted rows")
            expected_failures += 1
    else:
        prefix = ctx.extra["prefix"]
        # 1e-3 is refused by the package's own loader; 1e-11 passes the
        # loader's 1e-10 tolerance and must be caught by the check itself
        for size in (1e-3, 1e-11):
            bad = os.path.join(workdir, f"corrupt{size:g}")
            with open(prefix + ".json") as fh:
                obj = json.load(fh)
            obj["kernels"][0]["im"][0][1] += size * max(map(abs, obj["kernels"][0]["re"][0]))
            with open(bad + ".json", "w") as fh:
                json.dump(obj, fh)
            shutil.copy(prefix + ".summary.json", bad + ".summary.json")
            run.count(check_estimate_files(bad, ctx.clipped), f"non-Hermitian by {size:g}")
            expected_failures += 1
        run.count(verify_cli_output(ctx, bad), "non-Hermitian copy, operation check")
        expected_failures += 1
    if run.failed != expected_failures or run.attempted != expected_failures + 1:
        return [f"{wl.name}: {run.failed} of {run.attempted} operations failed, "
                f"expected the {expected_failures} corrupted ones"]
    print(f"{wl.name:14s} negative cases: {run.failed} corrupted outputs counted as failed")
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["estimate-cli", "estimate-long", "imse-mc"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test at tiny sizes, with corrupted-output cases")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    load_program()
    if args.smoke:
        return smoke()
    run, metrics, units, record, tracer = measure(args.workload, args.seed, args.seconds,
                                                  args.trace, FULL)
    write_record(args.workload, args.seed, args.trace, record, tracer)
    print(result_line(run, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
