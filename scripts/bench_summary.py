#!/usr/bin/env python3
"""Summarize untraced perfbench runs of a parent and a change checkout into
one BENCH_<pr>.json file.

Each side is a perfbench output directory holding the records
``<workload>-seed<seed>-trace0.json`` that ``python3 perfbench/run.py
--workload <workload> --seed <seed>`` writes. For every workload and every
end-to-end metric of BENCHMARK.json the file gives, per side, the median and
quartiles over seeds and the per-seed values; for the seeds both sides ran,
the ratio of the medians, how many of the seed pairs the change won, and two
verdicts:

- gain: "gain" when the change won at least nine tenths of the seed pairs
  (ties count for neither) and its median is better than the parent's by
  more than the parent's interquartile range, else "no gain";
- regression: "regression" when the change's median is worse than the
  parent's by more than the metric's bound (a share of the parent's
  median); else "unresolved" when either side's interquartile range is
  wider than that bound and not every change run beats every parent run;
  else "within bound".

The machine facts and seeds are taken from the records.

    python3 scripts/bench_summary.py --pr 7 \\
        --parent ../parent/.perfbench_out --change .perfbench_out
"""

import argparse
import glob
import json
import os
import re
import statistics

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json$")
FACT_KEYS = ("nproc", "cpus_usable", "machine", "python", "numpy", "scipy",
             "openblas", "blas_threads", "thread_env", "git_commit")


def read_records(out_dir) -> dict:
    """{workload: {seed: record}} of the untraced records in a directory."""
    records = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*-trace0.json"))):
        match = RECORD.match(os.path.basename(path))
        with open(path) as fh:
            records.setdefault(match["workload"], {})[int(match["seed"])] = json.load(fh)
    if not records:
        raise SystemExit(f"no *-trace0.json records in {out_dir}")
    return records


def spread(values) -> dict:
    """Median and quartiles (inclusive method; both equal the value for one)."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def facts(records) -> dict:
    """Each machine fact, or the list of distinct values it took over the
    workloads and seeds of one side."""
    out = {}
    for key in FACT_KEYS:
        values = []
        for record in (r for runs in records.values() for r in runs.values()):
            if record["facts"].get(key) not in values:
                values.append(record["facts"].get(key))
        out[key] = values[0] if len(values) == 1 else values
    return out


def side(runs, metric) -> dict:
    seeds = sorted(runs)
    values = [runs[s]["metrics"][metric] for s in seeds]
    return {**spread(values), "values": dict(zip(map(str, seeds), values))}


def gain_verdict(p, c, wins, n_pairs, sign) -> str:
    met = (n_pairs > 0 and 10 * wins >= 9 * n_pairs
           and sign * (c["median"] - p["median"]) > p["iqr"])
    return "gain" if met else "no gain"


def regression_verdict(p, c, bound, sign) -> str:
    allowed = bound * abs(p["median"])
    if sign * (p["median"] - c["median"]) > allowed:
        return "regression"
    every_run_better = all(sign * (cv - pv) > 0.0 for cv in c["values"].values()
                           for pv in p["values"].values())
    if max(p["iqr"], c["iqr"]) > allowed and not every_run_better:
        return "unresolved"
    return "within bound"


def summarize(parent, change, end_to_end) -> dict:
    workloads = {}
    for name in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[name], change[name]
        paired = sorted(set(p_runs) & set(c_runs))
        metrics = {}
        for m in end_to_end:
            p, c = side(p_runs, m["name"]), side(c_runs, m["name"])
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(sign * (c["values"][str(s)] - p["values"][str(s)]) > 0.0
                       for s in paired)
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": p, "change": c,
                "change_over_parent": c["median"] / p["median"] if p["median"] else None,
                "change_wins": f"{wins} of {len(paired)} seed pairs",
                "gain": gain_verdict(p, c, wins, len(paired), sign),
                "regression": regression_verdict(p, c, m["bound"], sign),
            }
        workloads[name] = {
            "seeds": {"parent": sorted(p_runs), "change": sorted(c_runs)},
            "failed_operations": {
                "parent": sum(len(r["problems"]) for r in p_runs.values()),
                "change": sum(len(r["problems"]) for r in c_runs.values())},
            "metrics": metrics,
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="label of the file, BENCH_<pr>.json")
    parser.add_argument("--parent", required=True, help="perfbench output directory")
    parser.add_argument("--change", default=os.path.join(ROOT, ".perfbench_out"),
                        help="perfbench output directory (default: this checkout's)")
    parser.add_argument("--out", default=None, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = read_records(args.parent), read_records(args.change)
    summary = {
        "command": " ".join(spec["command"]) + " --workload <workload> --seed <seed>",
        "run_seconds": spec["run_seconds"],
        "facts": {"parent": facts(parent), "change": facts(change)},
        "workloads": summarize(parent, change, spec["end_to_end"]),
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, wl in summary["workloads"].items():
        for metric, m in wl["metrics"].items():
            print(f"{name:14s} {metric:12s} parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}] {m['unit']}  wins {m['change_wins']}  "
                  f"{m['gain']}, {m['regression']}")
    print(f"wrote {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
