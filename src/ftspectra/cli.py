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
import re
import sys

import numpy as np

from . import __version__
from .bandwidth import gamma_grid_indices, report_to_json_dict, select_bandwidth
from .core import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    NumericError,
    ParseError,
    _estimate_fields,
    estimate_to_csv_dir,
    estimate_to_json_dict,  # not called here; perfbench's traced runs wrap it
    hermitian_residual,
    read_json,
    series_from_csv,
    series_from_json_dict,
    series_to_csv,
    write_csv,
)
from .core import write_json as _write_json
from .estimator import estimate_lagwindow, estimate_smoothed
from .kernels import UnsupportedKernelError, parse_kernel
from .psd import clip_estimate, min_eigenvalue
from .sim import (
    ImseConfig,
    _estimates,
    generate_fma1,
    make_fma1_model,
    parse_bandwidth_mode,
    resolve_bandwidths,
    rows_to_csv,
    rows_to_json,
    imse_experiment,
    true_spectrum,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


def _load_series(path):
    """The series in a CSV or ``.json`` file; ParseError also when its
    content cannot form a series (too few curves, d not matching the values)."""
    try:
        if str(path).endswith(".json"):
            return series_from_json_dict(read_json(path))
        return series_from_csv(path)
    except (DomainError, DimensionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_list(text, convert, what: str) -> list:
    """Parse a comma-separated flag value item by item, not splitting inside
    a {...} JSON object; empty items are skipped. DomainError on a bad item
    or an empty list."""
    try:
        items = re.split(r",(?![^{}]*\})", str(text))
        values = [convert(v) for v in items if v.strip()]
    except ValueError as exc:
        raise DomainError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise DomainError(f"empty {what} list")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a DomainError (exit 1 with the JSON error)
    instead of printing the usage text and exiting 2."""

    def error(self, message):
        raise DomainError(message)


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Precedence: command-line flags > config file > parser defaults. Each
    config entry goes in as the flag --<key>=<value> right after the
    subcommand, so argparse checks and converts it like any flag and a later
    explicit flag wins. A string value goes in as is, any other as JSON;
    true is a bare switch, false and null leave the default."""
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path:
        tokens = []
        for key, value in read_json(path).items():
            flag = "--" + key.replace("_", "-")
            if "--help".startswith(flag):   # would print the usage and exit 0
                raise DomainError(f"{path}: unknown option {key!r}")
            if value is True:
                tokens.append(flag)
            elif value is not False and value is not None:
                text = value if isinstance(value, str) else json.dumps(value)
                tokens.append(f"{flag}={text}")
        at = next((i + 1 for i, a in enumerate(argv) if not a.startswith("-")), 0)
        argv[at:at] = tokens
    return parser.parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    mode = parse_bandwidth_mode(args.bandwidth)
    bandwidth, = resolve_bandwidths(mode, series, (spec,))
    if args.method == "lagwindow":
        est = estimate_lagwindow(series, spec, bandwidth, frequencies)
    else:
        est = estimate_smoothed(series, spec, bandwidth, frequencies)
    eps = args.eps if args.eps is not None else 1.0 / series.n_curves
    est = clip_estimate(est, args.psd, eps=eps)
    _write_json(f"{args.out}.json", _estimate_fields(est))
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
        "hermitian_residual_max": float(hermitian_residual(est.matrices).max()),
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
    config = ImseConfig(
        T_list=tuple(_parse_list(args.T_list, int, "T")),
        n_runs=args.replications,
        kernel_specs=tuple(_parse_list(args.kernels, parse_kernel, "kernel")),
        bandwidth_mode=args.bandwidth,
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
    for one seeded replication at the largest benchmark T, one file per
    kernel spec, plus the matching exact spectrum in trace_truth.csv."""
    T = max(config.T_list)
    model = make_fma1_model(config.seed, d=config.d)
    series = generate_fma1(model, T)
    freqs = np.linspace(0.0, np.pi, 65)
    idx = gamma_grid_indices(config.d)
    header = ["omega"] + [f"tau_{i}" for i in idx]

    def write_trace(path, est):
        write_csv(path, [header] + [[w, *np.abs(np.diagonal(m))[idx]]
                                    for w, m in zip(freqs, est.matrices)])

    seen = {}   # specs per family so far: the k-th, k >= 2, is trace_<family>_<k>
    estimates = _estimates(config.kernel_specs, config.bandwidth_mode, series, freqs)
    for spec, est in zip(config.kernel_specs, estimates):
        family = spec.identifier.split("(")[0].lower()
        seen[family] = k = seen.get(family, 0) + 1
        name = family if k == 1 else f"{family}_{k}"
        write_trace(os.path.join(out_dir, f"trace_{name}.csv"), est)
    write_trace(os.path.join(out_dir, "trace_truth.csv"), true_spectrum(model, freqs))


_ERROR_EXITS = (
    ((ParseError,), EXIT_PARSE),
    ((NumericError, DegenerateDataError, np.linalg.LinAlgError, FloatingPointError,
      MemoryError), EXIT_NUMERIC),
    ((DomainError, DimensionError, UnsupportedKernelError, ValueError), EXIT_CONFIG),
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
