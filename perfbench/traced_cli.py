"""Run the ftspectra command line with spans around its calls into each module.

Usage: python3 perfbench/traced_cli.py SPANS_OUT <ftspectra arguments...>

The package is imported and run as ``python -m ftspectra`` would run it; the
spans are kept in memory and written to SPANS_OUT as JSON once the command has
returned. The exit code is the command's.
"""

import time

_PROCESS_START = time.perf_counter()

import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def _not_estimate(path, *rest) -> bool:
    # the estimate's JSON dump is core.write; the summary's stays with cli
    return str(path).endswith(".summary.json")


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import"):
        import ftspectra.cli as cli
        import ftspectra.sim as sim
    targets = [
        (cli, "series_from_csv", "core.read"),
        (sim, "select_bandwidth", "bandwidth.select"),
        (cli, "estimate_smoothed", "estimator.smoothed"),
        (cli, "estimate_lagwindow", "estimator.lagwindow"),
        (cli, "clip_estimate", "psd.clip"),
        (cli, "min_eigenvalue", "psd.min_eig"),
        (cli, "estimate_to_json_dict", "core.write"),
        (cli, "_write_json", "core.write", {"skip_fn": _not_estimate}),
    ]
    with tracer.patched(targets) as missing:
        with tracer.span("cli.main"):
            code = cli.main(argv)
    tracer.dump(out_path, process_start=_PROCESS_START, unpatched=missing)
    return code


if __name__ == "__main__":
    sys.exit(main())
