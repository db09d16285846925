"""Command-line entry point: simulate data, estimate spectra, select
bandwidths, and run the Monte-Carlo benchmark.

Exit codes: 0 success, 1 invalid configuration, 2 unparseable input,
3 numeric failure. On failure a machine-readable JSON object describing the
error is written to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bandwidth import report_to_json_dict, select_bandwidth
from .core import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    NotCenteredError,
    NumericError,
    ParseError,
    estimate_to_csv_dir,
    estimate_to_json_dict,
    hermitian_residual,
    series_from_csv,
    series_from_json_dict,
    series_to_csv,
)
from .estimator import estimate_lagwindow, estimate_smoothed
from .kernels import UnsupportedKernelError, check_bandwidth, parse_kernel
from .psd import clip_estimate, min_eigenvalue
from .sim import (
    ImseConfig,
    generate_fma1,
    make_fma1_model,
    resolve_bandwidth,
    rows_to_csv,
    rows_to_json,
    imse_experiment,
    true_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3

def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json_object(path) -> dict:
    """The JSON object stored in a file; ParseError if the file cannot be
    read, is not JSON, or holds something other than an object."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return obj


def _load_series(path):
    if str(path).endswith(".json"):
        return series_from_json_dict(_read_json_object(path))
    return series_from_csv(path)


def _parse_list(text, convert, what: str) -> list:
    """Parse a comma-separated flag value item by item; empty items are
    skipped. DomainError on a bad item or an empty list."""
    try:
        values = [convert(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise DomainError(f"empty {what} list")
    return values


def _parse_bandwidth_mode(text: str):
    if text in ("auto", "rate", "2rate"):
        return text
    try:
        value = float(text)
    except ValueError as exc:
        raise DomainError(
            f"bandwidth must be 'auto', 'rate', '2rate' or a number, got {text!r}"
        ) from exc
    return check_bandwidth(value)


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Precedence: command-line flags > config file > parser defaults. The
    config file's keys become the chosen subcommand's defaults before the
    final parse; a key that is not one of its options is rejected."""
    args, _ = parser.parse_known_args(argv)
    path = getattr(args, "config", None)
    if path:
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        sub = subparsers.choices[args.command]
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        defaults = {}
        for key, value in _read_json_object(path).items():
            dest = key.replace("-", "_")
            if dest not in dests:
                raise DomainError(f"config {path}: unknown option {key!r}")
            defaults[dest] = value
        sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftspectra",
        description="Flat-top kernel spectral density estimation for "
                    "functional time series.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a functional series")
    p_sim.add_argument("--model", default="fma1", choices=["fma1"])
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--d", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--config")

    p_est = sub.add_parser("estimate", help="estimate the spectral density")
    p_est.add_argument("--input", required=True, help="series CSV or JSON")
    p_est.add_argument("--kernel", default="TR",
                       help="TR, PR, ID, EPA or a JSON kernel object")
    p_est.add_argument("--bandwidth", default="rate",
                       help="'auto', 'rate' (T^-1/5), '2rate', or a value in (0,1]")
    p_est.add_argument("--method", default="smoothed",
                       choices=["smoothed", "lagwindow"])
    p_est.add_argument("--psd", default="none",
                       choices=["none", "semidefinite", "definite"])
    p_est.add_argument("--eps", type=float, default=None,
                       help="eigenvalue floor for --psd definite (default 1/T)")
    p_est.add_argument("--frequencies", default=None,
                       help="comma-separated, strictly increasing in [0, 2*pi)")
    p_est.add_argument("--out", required=True,
                       help="output prefix: writes <out>.json and <out>.summary.json")
    p_est.add_argument("--csv-dir", default=None,
                       help="also write the estimate as a CSV directory")
    p_est.add_argument("--config")

    p_bw = sub.add_parser("bandwidth", help="run the empirical bandwidth rule")
    p_bw.add_argument("--input", required=True)
    p_bw.add_argument("--kernel", default="TR")
    p_bw.add_argument("--C0", type=float, default=2.0)
    p_bw.add_argument("--aggregation", default="mean", choices=["mean", "max"])
    p_bw.add_argument("--window-start", type=int, default=1, choices=[0, 1])
    p_bw.add_argument("--out", required=True, help="output JSON path")
    p_bw.add_argument("--config")

    p_bench = sub.add_parser("bench", help="Monte-Carlo IMSE benchmark")
    p_bench.add_argument("--T-list", default="64,128,256,512,1024")
    p_bench.add_argument("--replications", type=int, default=50)
    p_bench.add_argument("--kernels", default="EPA,TR,PR,ID")
    p_bench.add_argument("--bandwidth", default="rate")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--d", type=int, default=50)
    p_bench.add_argument("--fixed-operators", action="store_true",
                         help="share one operator draw across all replications")
    p_bench.add_argument("--full", action="store_true",
                         help="full-scale run: 200 replications, T up to 2048")
    p_bench.add_argument("--parallel", type=int, default=1,
                         help="worker processes for the replications (>= 1)")
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--config")

    return parser


def cmd_simulate(args) -> int:
    model = make_fma1_model(args.seed, d=args.d)
    series = generate_fma1(model, args.T)
    series_to_csv(series, args.out)
    return EXIT_OK


def cmd_estimate(args) -> int:
    series = _load_series(args.input)
    spec = parse_kernel(args.kernel)
    frequencies = (None if args.frequencies is None
                   else _parse_list(args.frequencies, float, "frequency"))
    mode = _parse_bandwidth_mode(args.bandwidth)
    bandwidth = resolve_bandwidth(mode, series.n_curves, series=series, spec=spec)
    if args.method == "lagwindow":
        est = estimate_lagwindow(series, spec, bandwidth, frequencies)
    else:
        est = estimate_smoothed(series, spec, bandwidth, frequencies)
    eps = args.eps if args.eps is not None else 1.0 / series.n_curves
    est = clip_estimate(est, args.psd, eps=eps)
    _write_json(f"{args.out}.json", estimate_to_json_dict(est))
    if args.csv_dir:
        estimate_to_csv_dir(est, args.csv_dir)
    summary = {
        "input": str(args.input),
        "kernel": spec.identifier,
        "method": est.method,
        "bandwidth_mode": mode if isinstance(mode, str) else "explicit",
        "bandwidth": float(est.bandwidth),
        "psd_mode": args.psd,
        "eps": float(eps) if args.psd == "definite" else None,
        "frequencies": est.frequencies.tolist(),
        "hermitian_residual_max": max(hermitian_residual(k.matrix)
                                      for k in est.kernels),
        "min_eigenvalue_per_frequency": [min_eigenvalue(k) for k in est.kernels],
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


def cmd_bandwidth(args) -> int:
    series = _load_series(args.input)
    spec = parse_kernel(args.kernel)
    report = select_bandwidth(series, spec, C0=args.C0,
                              aggregation=args.aggregation,
                              window_start=args.window_start)
    _write_json(args.out, report_to_json_dict(report))
    return EXIT_OK


def cmd_bench(args) -> int:
    t_list = tuple(_parse_list(args.T_list, int, "T"))
    replications = args.replications
    if args.full:
        t_list = (64, 128, 256, 512, 1024, 2048)
        replications = max(replications, 200)
    specs = _parse_list(args.kernels, parse_kernel, "kernel")
    mode = _parse_bandwidth_mode(args.bandwidth)
    config = ImseConfig(
        T_list=t_list,
        n_runs=replications,
        kernel_specs=tuple(specs),
        bandwidth_mode=mode,
        seed=args.seed,
        d=args.d,
        redraw_operators=not args.fixed_operators,
        n_jobs=args.parallel,
    )
    rows = imse_experiment(config)
    os.makedirs(args.out_dir, exist_ok=True)
    rows_to_csv(rows, os.path.join(args.out_dir, "bench.csv"))
    rows_to_json(rows, os.path.join(args.out_dir, "bench.json"))
    _write_traces(args.out_dir, config)
    return EXIT_OK


def _write_traces(out_dir, config: ImseConfig) -> None:
    """Plot-ready diagonal traces |fhat(tau, tau)| over a dense frequency grid
    for one seeded replication at the largest benchmark T, plus the matching
    exact spectrum."""
    from .bandwidth import gamma_grid_indices
    from .core import center

    T = max(config.T_list)
    model = make_fma1_model(config.seed, d=config.d)
    series = center(generate_fma1(model, T))
    freqs = np.linspace(0.0, np.pi, 65)
    idx = gamma_grid_indices(config.d)
    header = ["omega"] + [f"tau_{i}" for i in idx]

    def write_trace(path, kernels):
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for w, k in zip(freqs, kernels):
                diag = np.abs(np.diagonal(k.matrix))[idx]
                fh.write(",".join([repr(float(w))] + [repr(float(v)) for v in diag]) + "\n")

    for spec in config.kernel_specs:
        bandwidth = resolve_bandwidth(config.bandwidth_mode, T,
                                      series=series, spec=spec)
        est = estimate_smoothed(series, spec, bandwidth, freqs)
        name = spec.identifier.split("(")[0].lower()
        write_trace(os.path.join(out_dir, f"trace_{name}.csv"), est.kernels)
    truth = true_spectrum(model, freqs)
    write_trace(os.path.join(out_dir, "trace_truth.csv"), truth.kernels)


_ERROR_EXITS = (
    ((ParseError,), EXIT_PARSE),
    ((NumericError, DegenerateDataError, np.linalg.LinAlgError, FloatingPointError),
     EXIT_NUMERIC),
    ((DomainError, DimensionError, NotCenteredError, UnsupportedKernelError,
      ValueError), EXIT_CONFIG),
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        handler = {
            "simulate": cmd_simulate,
            "estimate": cmd_estimate,
            "bandwidth": cmd_bandwidth,
            "bench": cmd_bench,
        }[args.command]
        return handler(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        for types, code in _ERROR_EXITS:
            if isinstance(exc, types):
                payload = {"error": {"code": code, "type": type(exc).__name__,
                                     "message": str(exc)}}
                print(json.dumps(payload), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
