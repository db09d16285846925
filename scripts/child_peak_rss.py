#!/usr/bin/env python3
"""Peak RSS of one ftspectra CLI command, per checkout, as the program's own.

    python3 scripts/child_peak_rss.py [--runs N] <checkout> [<checkout> ...] \\
        -- estimate --input series.csv --kernel TR --psd semidefinite --out est

Runs ``python -m ftspectra <args>`` N times for each checkout, with that
checkout's ``src`` first on PYTHONPATH, alternating the checkouts run by run,
and prints per checkout the median and the per-run values of the child's
max RSS in MB, read from its own ``wait4`` rusage. On Linux a child's max
RSS starts from the address space it was forked from, so the launcher is
this small process and nothing else: the numbers are the program's own
peak, not a benchmark client's. Relative paths in the arguments are taken
from the current directory. A run that exits non-zero stops the script with
its exit code and the command's error output.
"""

import os
import statistics
import subprocess
import sys

USAGE = "usage: child_peak_rss.py [--runs N] <checkout> [<checkout> ...] -- <ftspectra args>"


def parse(argv):
    """(runs, checkouts, ftspectra args) from the command line."""
    if "--" not in argv:
        raise SystemExit(USAGE)
    split = argv.index("--")
    head, args = argv[:split], argv[split + 1:]
    runs = 5
    if head[:1] == ["--runs"]:
        if len(head) < 2 or not head[1].isdigit() or int(head[1]) < 1:
            raise SystemExit("--runs needs a positive integer")
        runs, head = int(head[1]), head[2:]
    if not head or not args:
        raise SystemExit(USAGE)
    for checkout in head:
        if not os.path.isdir(os.path.join(checkout, "src", "ftspectra")):
            raise SystemExit(f"{checkout}: no src/ftspectra")
    return runs, head, args


def child_max_rss_mb(checkout, args) -> float:
    """Run the command once with the checkout's src; its max RSS in MB."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(checkout, "src"))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, "-m", "ftspectra", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code != 0:
        sys.stderr.write(stderr.decode(errors="replace"))
        raise SystemExit(f"{checkout}: exit code {code}")
    return usage.ru_maxrss / 1024.0


def main(argv=None) -> None:
    runs, checkouts, args = parse(sys.argv[1:] if argv is None else argv)
    peaks = [[] for _ in checkouts]
    for _ in range(runs):
        for checkout, values in zip(checkouts, peaks):
            values.append(child_max_rss_mb(checkout, args))
    for checkout, values in zip(checkouts, peaks):
        print(f"{checkout}: median {statistics.median(values):.2f} MB over {runs} runs "
              f"({' '.join(f'{v:.2f}' for v in values)})")


if __name__ == "__main__":
    main()
