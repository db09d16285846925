"""Workload definitions of the ftspectra benchmark.

Every workload is a closed loop driven by one client process: the next
operation starts only after the previous one has finished and been checked,
and only one workload runs at a time. Set-up generates every input from the
workload seed with ``make_fma1_model`` / ``generate_fma1`` / ``series_to_csv``;
the program receives only those files (CLI workloads) or the seeded
configuration (imse-mc).

Thread environment. The program runs under the thread environment as found
(OpenBLAS 0.3.31 defaults to one thread per core, 2 on a 2-core machine). The
benchmark sets no ``OPENBLAS_NUM_THREADS`` or similar variable for it; it
records them with every result. Serial Python plus 2 BLAS threads stays within
2 cores.

Why each workload
-----------------
estimate-cli
    ``python -m ftspectra estimate`` as a subprocess, one invocation at a time,
    on T = 2048, d = 100 (4.0 MB CSV) with ``--kernel TR --bandwidth auto
    --psd semidefinite``, the default smoothed method and the 10 default
    frequencies. The CLI as users run it: the package import (mostly
    ``scipy.integrate``) and the 6.4 MB JSON write dominate the wall time; the
    estimator is a few per cent. A scipy-free import or a faster writer shows
    here; an estimator refactor should predict almost no change.
estimate-long
    The same CLI on T = 16384, d = 50 (16 MB CSV) with ``--method lagwindow
    --bandwidth auto --psd semidefinite``. Same layers used differently: the
    input is read-heavy (``series_from_csv``) and the 1.6 MB write is small.
    The only gated use of the lag-window form and of the bandwidth rule at
    large T, and the baseline for chunked reading or streaming.
imse-mc
    In-process ``imse_experiment``, serial (``n_jobs=1``): T in {256, 1024,
    2048}, d = 50, kernels EPA, TR, PR, ID, ``bandwidth_mode="rate"``, default
    frequencies, 2 replications per T in each operation. The paper's
    Monte-Carlo path: the smoothed estimator takes most of the time,
    simulation and the true spectrum a few per cent each; no import, no file
    I/O. A faster lag-sum estimator core shows here.

No parallel workload (known defect, measured but not gated). ``imse-mc`` at
``n_jobs=2`` puts 2 worker processes x 2 OpenBLAS threads on 2 cores. In the
sizing runs that gave 1.4-6.5 replications/s against ~13.5 serial and 24.8
with ``OPENBLAS_NUM_THREADS=1``: a spread far too wide to gate. The traced run
reports it as ``sim.parallel_speedup`` (with its range) and checks that the
parallel rows equal the serial ones. A fix for the oversubscription adds a
parallel workload as its own change.

End-to-end metrics (tracing off; every workload reports every one)
------------------------------------------------------------------
Noise. On the 2-vCPU machine this was defined on, even a pure Python loop
drifts by ~12% (interquartile range over median) between 30-s windows, and
slow phases last minutes. Ten-run spreads of the time metrics measured 0.05 to
0.25 depending on the period, so every time bound is the largest allowed
(0.25). Scaling by an in-run calibration loop was tried and dropped: it
narrowed the CLI workloads but widened imse-mc, whose 2-thread BLAS it does
not track.

setup_s       s      input generation, in-process reference and one warm-up
                     operation; median of 3 set-ups per run
wall_p50_s    s      median wall time of one operation: a CLI invocation from
                     spawn to exit, or one ``imse_experiment`` call (6 reps)
wall_tail_s   s      the highest percentile of operation wall time with at
                     least 10 samples beyond it (percentile and count printed)
peak_rss_mb   MB     CLI: the child's max RSS from its own ``os.wait4``
                     rusage, median over invocations. imse-mc: the client
                     process's max RSS (the program runs in it)
reps_per_s    1/s    completed replications per second of operation time;
                     a replication covers all 4 kernels at one T (imse-mc) or
                     is one invocation (CLI)
ops_failed  fraction failed operations over attempted ones; printed, and
                     carried by the result's ``attempted`` and ``failed``
                     fields rather than gated as a metric, since it is 0

Per-layer metrics (traced run) and the end-to-end metric each should move
-------------------------------------------------------------------------
A layer metric comes from the traced operations when the operation makes that
call, otherwise from a probe that makes the call on the workload's own input.
``LAYER_TARGETS`` below is the table; run.py prints it with every traced run.
Traced CLI invocations start through ``traced_cli.py`` instead of ``-m``, so
``trace.overhead_s`` can read slightly below zero on the CLI workloads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import ftspectra.sim as ftsim
from ftspectra import (
    FunctionalSeries,
    ImseConfig,
    baseline_weight,
    clip_estimate,
    epanechnikov,
    estimate_from_json_dict,
    estimate_lagwindow,
    estimate_smoothed,
    estimate_to_json_dict,
    flat_top_parzen,
    generate_fma1,
    hs_distance,
    hs_norm,
    imse_experiment,
    imse_from_estimate,
    infinitely_differentiable,
    make_fma1_model,
    min_eigenvalue,
    select_bandwidth,
    series_from_csv,
    series_to_csv,
    center,
    trapezoid,
    true_spectrum,
    weight_function,
)
from ftspectra.kernels import KernelFamily, lag_weights

HERE = os.path.dirname(os.path.abspath(__file__))

#: metric -> (unit, end-to-end metric it should move, on which workload)
LAYER_TARGETS = {
    "import.ftspectra_s": ("s", "wall_p50_s", "estimate-cli, estimate-long (none on imse-mc)"),
    "import.scipy_s": ("s", "wall_p50_s", "estimate-cli, estimate-long"),
    "core.read_s": ("s", "wall_p50_s", "estimate-long (most), estimate-cli"),
    "core.read_MBps": ("MB/s", "wall_p50_s", "estimate-long (most), estimate-cli"),
    "core.write_s": ("s", "wall_p50_s", "estimate-cli (most), estimate-long"),
    "core.write_MBps": ("MB/s", "wall_p50_s", "estimate-cli (most), estimate-long"),
    "kernels.weight_s": ("s", "reps_per_s", "imse-mc"),
    "estimator.smoothed_s.T256": ("s", "reps_per_s", "imse-mc (small share on estimate-cli)"),
    "estimator.smoothed_s.T1024": ("s", "reps_per_s", "imse-mc (small share on estimate-cli)"),
    "estimator.smoothed_s.T2048": ("s", "reps_per_s", "imse-mc (small share on estimate-cli)"),
    "estimator.smoothed_ops": ("count", "reps_per_s", "imse-mc"),
    "estimator.smoothed_gops": ("Gop/s", "reps_per_s", "imse-mc"),
    "estimator.lagwindow_s": ("s", "wall_p50_s", "estimate-long"),
    "estimator.lags": ("count", "wall_p50_s", "estimate-long"),
    "psd.clip_s": ("s", "wall_p50_s", "estimate-cli"),
    "psd.neg_eigs": ("count", "wall_p50_s", "estimate-cli"),
    "psd.min_eig_s": ("s", "wall_p50_s", "estimate-cli"),
    "bandwidth.select_s": ("s", "wall_p50_s", "estimate-long, estimate-cli"),
    "bandwidth.q_hat": ("count", "wall_p50_s", "estimate-long, estimate-cli"),
    "bandwidth.truncated": ("count", "wall_p50_s", "estimate-long, estimate-cli"),
    "sim.generate_s": ("s", "reps_per_s", "imse-mc"),
    "sim.true_spectrum_s": ("s", "reps_per_s", "imse-mc"),
    "sim.imse_s": ("s", "reps_per_s", "imse-mc"),
    "sim.parallel_speedup": ("x", "none gated (known defect)", "imse-mc config"),
    "sim.parallel_speedup_range": ("x", "none gated (known defect)", "imse-mc config"),
    "cli.other_s": ("s", "wall_p50_s", "estimate-cli, estimate-long"),
    "trace.overhead_s": ("s", "none", "all"),
    "trace.intended_share_pct": ("%", "none (checks the workload's design)", "all"),
}

#: relative tolerances of the output checks
HERMITIAN_RTOL = 1e-12
PSD_RTOL = 1e-9
REFERENCE_RTOL = 1e-9

#: a child still running after this is killed (an invocation takes ~1.5 s)
CHILD_TIMEOUT_S = 60.0
#: the parallel probe stops repeating once it has spent this long
PARALLEL_BUDGET_S = 30.0


@dataclass
class Op:
    """Outcome of one operation."""

    wall: float
    reps: int
    problems: list
    rss_mb: float | None = None


@dataclass
class Context:
    """Inputs made in set-up, plus the in-process reference results the
    checks and probes use."""

    workdir: str
    model: object
    series: FunctionalSeries
    csv_path: str
    spec: object
    bandwidth: float
    report: object
    raw: object                       # estimate before the clip
    clipped: object
    lags: int
    neg_eigs: int
    imse_config: ImseConfig
    weight_cases: list                # (T, spec, bandwidth) of each smoothed estimate
    rows: list | None = None          # imse-mc reference rows
    digests: tuple | None = None      # CLI output bytes of the first invocation
    out_bytes: int = 0
    extra: dict = field(default_factory=dict)


def _kernels():
    return (epanechnikov(), trapezoid(), flat_top_parzen(), infinitely_differentiable())


def imse_config(seed: int, sizes) -> ImseConfig:
    return ImseConfig(T_list=tuple(sizes.imse_T), n_runs=sizes.imse_runs,
                      kernel_specs=_kernels(), bandwidth_mode="rate",
                      seed=seed, d=sizes.imse_d, n_jobs=1)


def _rate(T: int) -> float:
    return T ** (-0.2)


def _estimate(method: str, series, spec, bandwidth):
    fn = estimate_lagwindow if method == "lagwindow" else estimate_smoothed
    return fn(series, spec, bandwidth)


def _prefix(series: FunctionalSeries, T: int) -> FunctionalSeries:
    return FunctionalSeries(series.grid, series.values[:T])


def _neg_eigs(est) -> int:
    return int(sum((np.linalg.eigvalsh(k.matrix) < 0.0).sum() for k in est.kernels))


def _write_estimate_json(est, path) -> None:
    # the command line's writer: estimate_to_json_dict plus an indented dump
    with open(path, "w") as fh:
        json.dump(estimate_to_json_dict(est), fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_context(workdir, seed, sizes, T, d, method, auto_bandwidth) -> Context:
    """Generate the input series and CSV from the seed and compute the
    reference results with in-process public calls: the trapezoid kernel with
    the empirical bandwidth (the CLI workloads' command) or the rate."""
    model = make_fma1_model(seed, d=d)
    series = generate_fma1(model, T)
    csv_path = os.path.join(workdir, "input.csv")
    series_to_csv(series, csv_path)
    spec = trapezoid()
    report = select_bandwidth(series, spec)
    bandwidth = report.B_T if auto_bandwidth else _rate(T)
    raw = _estimate(method, series, spec, bandwidth)
    return Context(
        workdir=workdir, model=model, series=series, csv_path=csv_path,
        spec=spec, bandwidth=bandwidth, report=report, raw=raw,
        clipped=clip_estimate(raw, "semidefinite"),
        lags=int(lag_weights(spec, bandwidth)[:T].size),
        neg_eigs=_neg_eigs(raw),
        imse_config=imse_config(seed, sizes),
        weight_cases=[(T, spec, bandwidth)],
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_kernels(est) -> list:
    """Every kernel Hermitian, and PSD up to rounding after the clip."""
    problems = []
    for i, k in enumerate(est.kernels):
        m = k.matrix
        scale = float(np.max(np.abs(m)))
        if scale > 0.0 and float(np.max(np.abs(m - m.conj().T))) > HERMITIAN_RTOL * scale:
            problems.append(f"kernel {i} is not Hermitian")
            continue
        eig = np.linalg.eigvalsh(m)
        if eig[0] < -PSD_RTOL * max(float(np.max(np.abs(eig))), 1e-300):
            problems.append(f"kernel {i} has eigenvalue {eig[0]:.3e} after the clip")
    return problems


def check_against_reference(est, ref) -> list:
    """Same metadata, and every kernel within REFERENCE_RTOL relative HS
    distance of the in-process result."""
    if (est.kernel_id, est.method, float(est.bandwidth)) != \
            (ref.kernel_id, ref.method, float(ref.bandwidth)):
        return [f"metadata {(est.kernel_id, est.method, est.bandwidth)} differs from "
                f"{(ref.kernel_id, ref.method, ref.bandwidth)}"]
    if not np.array_equal(est.frequencies, ref.frequencies):
        return ["frequencies differ from the reference"]
    problems = []
    for i, (a, b) in enumerate(zip(est.kernels, ref.kernels)):
        rel = hs_distance(a, b) / max(hs_norm(b), 1e-300)
        if rel > REFERENCE_RTOL:
            problems.append(f"kernel {i} is {rel:.3e} (relative HS) from the reference")
    return problems


def check_estimate_files(prefix, ref) -> list:
    """Full check of ``<prefix>.json`` and ``<prefix>.summary.json``."""
    try:
        with open(prefix + ".json") as fh:
            est = estimate_from_json_dict(json.load(fh))
        with open(prefix + ".summary.json") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:      # ParseError and DomainError too
        return [f"output does not load: {type(exc).__name__}: {exc}"]
    problems = check_kernels(est) + check_against_reference(est, ref)
    if summary.get("bandwidth") != float(ref.bandwidth):
        problems.append("summary bandwidth differs from the reference")
    return problems


def _digests(prefix) -> tuple:
    out = []
    for path in (prefix + ".json", prefix + ".summary.json"):
        with open(path, "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(out)


def verify_cli_output(ctx: Context, prefix) -> list:
    """The first output gets the full check; every later one must be byte
    identical to it (and gets the full check too when it is not)."""
    try:
        digests = _digests(prefix)
    except OSError as exc:
        return [f"output missing: {exc}"]
    if ctx.digests is None:
        problems = check_estimate_files(prefix, ctx.clipped)
        if not problems:
            ctx.digests = digests
            ctx.out_bytes = os.path.getsize(prefix + ".json")
        return problems
    if digests == ctx.digests:
        return []
    return ["output bytes differ from the first invocation"] + \
        check_estimate_files(prefix, ctx.clipped)


def check_rows(rows, reference, config: ImseConfig) -> list:
    """Every IMSE finite and positive, the table complete, and identical to
    the first table of the run (same seed, so same rows)."""
    expected = [(spec.identifier, T) for T in config.T_list for spec in config.kernel_specs]
    if [(r.kernel, r.T) for r in rows] != expected:
        return ["rows do not cover every (kernel, T) cell in order"]
    problems = []
    for r in rows:
        if not (math.isfinite(r.mean_imse) and r.mean_imse > 0.0
                and math.isfinite(r.mean_log2_imse) and math.isfinite(r.stderr)
                and r.stderr >= 0.0 and r.n_runs == config.n_runs):
            problems.append(f"bad row {r}")
    if not problems and reference is not None and list(rows) != list(reference):
        problems.append("rows differ from the first run of this seed")
    return problems


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The environment as found, plus the checkout's ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, stderr_path, env):
    """Run ``argv`` to completion; return (wall seconds, exit code, max RSS
    in MB of that child alone, read from its own ``wait4`` rusage)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def _stderr_tail(path) -> str:
    with open(path, errors="replace") as fh:
        return fh.read()[-300:].strip()


# ---------------------------------------------------------------------------
# probes: calls into the layers a workload's operation does not make
# ---------------------------------------------------------------------------

def _importtime_scipy_s(stderr_text: str) -> float:
    """Self time that ``python -X importtime`` attributes to scipy modules."""
    total_us = 0
    for line in stderr_text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            try:
                total_us += int(parts[0].split(":")[1])
            except ValueError:
                continue
    return total_us / 1e6


def probe_import(ctx, tracer, repeats, values):
    ops = []
    env = ctx.extra.get("env") or child_env()
    err = os.path.join(ctx.workdir, "import_stderr.txt")
    for _ in range(repeats):
        with tracer.span("import.cold"):
            _, code, _ = spawn([sys.executable, "-c", "import ftspectra"], err, env)
        ops.append([] if code == 0 else [f"import exited {code}: {_stderr_tail(err)}"])
    for _ in range(repeats):
        _, code, _ = spawn([sys.executable, "-X", "importtime", "-c", "import ftspectra"],
                           err, env)
        with open(err, errors="replace") as fh:
            values.setdefault("import.scipy_s", []).append(_importtime_scipy_s(fh.read()))
        ops.append([] if code == 0 else [f"importtime run exited {code}"])
    return ops


def probe_core_read(ctx, tracer, repeats, values):
    ops = []
    for _ in range(repeats):
        with tracer.span("core.read"):
            series = series_from_csv(ctx.csv_path)
        ops.append([] if np.array_equal(series.values, ctx.series.values)
                   else ["CSV read-back differs from the generated series"])
    return ops


def probe_core_write(ctx, tracer, repeats, values):
    ops = []
    path = os.path.join(ctx.workdir, "probe_estimate.json")
    for _ in range(repeats):
        with tracer.span("core.write"):
            _write_estimate_json(ctx.clipped, path)
        ops.append([])
    ctx.out_bytes = os.path.getsize(path)
    return ops


def probe_kernels_weight(ctx, tracer, repeats, values):
    """The weights on the (frequency x T-1) grids of one operation's
    smoothed estimates."""
    ops = []
    freqs = ctx.raw.frequencies
    grids = [(spec, b, freqs[:, None] - 2.0 * np.pi * np.arange(1, T)[None, :] / T)
             for T, spec, b in ctx.weight_cases]
    for _ in range(repeats):
        with tracer.span("kernels.weight"):
            ws = [baseline_weight(b, x) if spec.family is KernelFamily.EPANECHNIKOV
                  else weight_function(spec, b, x) for spec, b, x in grids]
        ops.append([] if all(np.all(np.isfinite(w)) for w in ws) else ["non-finite weights"])
    return ops


def probe_smoothed(ctx, tracer, repeats, values):
    ops = []
    for T in ctx.imse_config.T_list:
        part = center(_prefix(ctx.series, T))
        for spec in _kernels():
            for _ in range(repeats):
                with tracer.span("estimator.smoothed", T=T, kernel=spec.identifier):
                    est = estimate_smoothed(part, spec, _rate(T))
                ops.append(check_kernels_finite(est))
    return ops


def check_kernels_finite(est) -> list:
    return [] if all(np.all(np.isfinite(k.matrix)) for k in est.kernels) \
        else ["non-finite estimate"]


def probe_lagwindow(ctx, tracer, repeats, values):
    ops = []
    for _ in range(repeats):
        with tracer.span("estimator.lagwindow"):
            est = estimate_lagwindow(ctx.series, ctx.spec, ctx.bandwidth)
        ops.append(check_kernels_finite(est))
    return ops


def probe_psd(ctx, tracer, repeats, values):
    ops = []
    for _ in range(repeats):
        with tracer.span("psd.clip"):
            est = clip_estimate(ctx.raw, "semidefinite")
        with tracer.span("psd.min_eig"):
            for k in est.kernels:
                min_eigenvalue(k)
        ops.append(check_kernels(est))
    return ops


def probe_bandwidth(ctx, tracer, repeats, values):
    ops = []
    for _ in range(repeats):
        with tracer.span("bandwidth.select"):
            report = select_bandwidth(ctx.series, ctx.spec)
        ops.append([] if report.B_T == ctx.report.B_T else ["bandwidth changed between calls"])
    return ops


def probe_sim(ctx, tracer, repeats, values):
    ops = []
    T = ctx.series.n_curves
    for _ in range(repeats):
        with tracer.span("sim.generate"):
            series = center(generate_fma1(ctx.model, T))
        with tracer.span("sim.true_spectrum"):
            truth = true_spectrum(ctx.model)
        with tracer.span("sim.imse"):
            imse = imse_from_estimate(ctx.clipped, truth)
        ops.append([] if math.isfinite(imse) and imse > 0.0 and series.n_curves == T
                   else [f"bad IMSE {imse}"])
    return ops


def probe_parallel(ctx, tracer, repeats, values):
    """imse-mc configuration at n_jobs=2 against serial, thread environment
    as found; the parallel rows must equal the serial ones."""
    ops = []
    cfg = ctx.imse_config
    par = dataclasses.replace(cfg, n_jobs=2)
    t_start = time.perf_counter()
    for _ in range(repeats):
        if values.get("sim.parallel_speedup") and \
                time.perf_counter() - t_start > PARALLEL_BUDGET_S:
            break
        t0 = time.perf_counter()
        serial = imse_experiment(cfg)
        t1 = time.perf_counter()
        parallel = imse_experiment(par)
        t2 = time.perf_counter()
        values.setdefault("sim.parallel_speedup", []).append((t1 - t0) / (t2 - t1))
        problems = check_rows(serial, ctx.rows, cfg)
        if ctx.rows is None and not problems:
            ctx.rows = serial
        if list(parallel) != list(serial):
            problems.append("n_jobs=2 rows differ from the serial rows")
        ops.append(problems)
    return ops


def run_probes(workload, ctx, tracer, repeats):
    """Run the workload's probes; return (scalar samples, one problem list
    per probe operation)."""
    values, ops = {}, []
    tracer.op = "probe"
    for probe in workload.probes:
        ops += probe(ctx, tracer, repeats, values)
    return values, ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CliWorkload:
    """``ftspectra estimate`` as a subprocess, one invocation at a time."""

    harness = ("cli.process", "cli.main")

    def __init__(self, name, method, intended):
        self.name = name
        self.method = method
        self.intended = intended

    def setup(self, workdir, seed, sizes) -> Context:
        T, d = sizes.long if self.method == "lagwindow" else sizes.cli
        ctx = make_context(workdir, seed, sizes, T, d, self.method, auto_bandwidth=True)
        ctx.extra["env"] = child_env()
        ctx.extra["prefix"] = os.path.join(workdir, "est")
        return ctx

    def args(self, ctx) -> list:
        argv = ["estimate", "--input", ctx.csv_path, "--kernel", "TR",
                "--bandwidth", "auto", "--psd", "semidefinite",
                "--out", ctx.extra["prefix"]]
        if self.method == "lagwindow":
            argv += ["--method", "lagwindow"]
        return argv

    def _invoke(self, ctx, argv) -> Op:
        stderr_path = os.path.join(ctx.workdir, "stderr.txt")
        wall, code, rss = spawn(argv, stderr_path, ctx.extra["env"])
        if code != 0:
            return Op(wall, 1, [f"exit code {code}: {_stderr_tail(stderr_path)}"], rss)
        return Op(wall, 1, verify_cli_output(ctx, ctx.extra["prefix"]), rss)

    def operate(self, ctx) -> Op:
        return self._invoke(ctx, [sys.executable, "-m", "ftspectra"] + self.args(ctx))

    def operate_traced(self, ctx, tracer) -> Op:
        spans_path = os.path.join(ctx.workdir, "spans.json")
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path] + self.args(ctx)
        with tracer.span("cli.process") as root:
            op = self._invoke(ctx, argv)
        if not op.problems:
            with open(spans_path) as fh:
                child = json.load(fh)
            tracer.adopt(child["spans"], root["id"])
            ctx.extra["unpatched"] = child["unpatched"]
        return op

    probes = (probe_import, probe_kernels_weight, probe_smoothed, probe_lagwindow,
              probe_sim, probe_parallel)


class ImseWorkload:
    """In-process serial ``imse_experiment``."""

    name = "imse-mc"
    harness = ("sim.experiment", "sim.replication")
    intended = ("estimator.smoothed",)
    probes = (probe_import, probe_core_read, probe_core_write, probe_kernels_weight,
              probe_lagwindow, probe_psd, probe_bandwidth, probe_parallel)

    def setup(self, workdir, seed, sizes) -> Context:
        ctx = make_context(workdir, seed, sizes, max(sizes.imse_T), sizes.imse_d,
                           "smoothed", auto_bandwidth=False)
        cfg = ctx.imse_config
        ctx.weight_cases = [(T, spec, _rate(T)) for T in cfg.T_list
                            for spec in cfg.kernel_specs] * cfg.n_runs
        return ctx

    def operate(self, ctx) -> Op:
        t0 = time.perf_counter()
        rows = imse_experiment(ctx.imse_config)
        wall = time.perf_counter() - t0
        problems = check_rows(rows, ctx.rows, ctx.imse_config)
        if ctx.rows is None and not problems:
            ctx.rows = rows
        reps = len(ctx.imse_config.T_list) * ctx.imse_config.n_runs
        return Op(wall, reps, problems)

    def operate_traced(self, ctx, tracer) -> Op:
        def smoothed_attrs(series, spec, *rest):
            return {"T": series.n_curves, "kernel": spec.identifier}

        targets = [
            (ftsim, "_run_replication", "sim.replication"),
            (ftsim, "generate_fma1", "sim.generate"),
            (ftsim, "center", "sim.generate"),
            (ftsim, "true_spectrum", "sim.true_spectrum"),
            (ftsim, "estimate_smoothed", "estimator.smoothed", {"attrs_fn": smoothed_attrs}),
            (ftsim, "imse_from_estimate", "sim.imse"),
        ]
        with tracer.patched(targets) as missing:
            with tracer.span("sim.experiment"):
                op = self.operate(ctx)
        ctx.extra["unpatched"] = missing
        return op


WORKLOADS = {
    w.name: w for w in (
        CliWorkload("estimate-cli", "smoothed", ("import", "core.write")),
        CliWorkload("estimate-long", "lagwindow", ("import", "core.read")),
        ImseWorkload(),
    )
}


def workdir_for(root, workload_name) -> str:
    """A fresh scratch directory for one run, inside the checkout."""
    path = os.path.join(root, ".perfbench_work", f"{workload_name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))  # only if no other run is using it
    except OSError:
        pass


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

