import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from ftspectra.core import read_csv

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_export_kernel_shapes(tmp_path):
    res = subprocess.run([sys.executable, str(SCRIPTS / "export_kernel_shapes.py"),
                          "--out-dir", str(tmp_path)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    for name, header, n_rows in [("taper.csv", ["s", "tr", "pr", "id"], 801),
                                 ("smoothing_kernel.csv", ["x", "tr", "pr", "id"], 1201),
                                 ("weight_function.csv", ["x", "tr", "pr", "id"], 801)]:
        head, values = read_csv(tmp_path / name, header=True)
        assert head == header, name
        assert values.shape == (n_rows, 4), name
        assert np.all(np.isfinite(values)), name


def write_records(out_dir, seeds, metrics, problems):
    """One <workload>-seed<s>-trace0.json record per seed, as perfbench
    writes them: each metric given from its per-seed values, the other
    end-to-end metrics fixed."""
    out_dir.mkdir()
    fixed = {"wall_tail_s": 1.0, "peak_rss_mb": 100.0, "setup_s": 0.5}
    for i, seed in enumerate(seeds):
        record = {
            "facts": {"nproc": 2, "python": "3.x"},
            "metrics": {**fixed, **{name: values[i] for name, values in metrics.items()}},
            "problems": problems[i],
        }
        (out_dir / f"wl-seed{seed}-trace0.json").write_text(json.dumps(record))


def run_bench_summary(tmp_path):
    out = tmp_path / "BENCH_x.json"
    res = subprocess.run([sys.executable, str(SCRIPTS / "bench_summary.py"), "--pr", "x",
                          "--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"), "--out", str(out)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(out.read_text())["workloads"]["wl"], res.stdout


def test_bench_summary(tmp_path):
    write_records(tmp_path / "parent", [1, 2, 3],
                  {"wall_p50_s": [1.0, 2.0, 4.0], "reps_per_s": [10.0, 20.0, 30.0]},
                  [[], [], []])
    # seed 1 ties on both metrics, which counts for neither side
    write_records(tmp_path / "change", [1, 2, 3],
                  {"wall_p50_s": [1.0, 1.5, 3.0], "reps_per_s": [10.0, 25.0, 20.0]},
                  [[], ["bad row"], []])
    out = tmp_path / "BENCH_x.json"
    res = subprocess.run([sys.executable, str(SCRIPTS / "bench_summary.py"), "--pr", "x",
                          "--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"), "--out", str(out)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    wl = json.loads(out.read_text())["workloads"]["wl"]
    assert wl["failed_operations"] == {"parent": 0, "change": 1}
    assert sorted(wl["metrics"]) == ["peak_rss_mb", "reps_per_s", "setup_s",
                                     "wall_p50_s", "wall_tail_s"]
    wall = wl["metrics"]["wall_p50_s"]
    # inclusive quartiles of three values a <= b <= c: (a+b)/2, b, (b+c)/2
    assert {k: wall["parent"][k] for k in ("q1", "median", "q3")} == {
        "q1": 1.5, "median": 2.0, "q3": 3.0}
    assert {k: wall["change"][k] for k in ("q1", "median", "q3")} == {
        "q1": 1.25, "median": 1.5, "q3": 2.25}
    assert wall["change_over_parent"] == 0.75
    assert wall["change_wins"] == "2 of 3 seed pairs"
    reps = wl["metrics"]["reps_per_s"]
    assert reps["change_over_parent"] == 1.0
    assert reps["change_wins"] == "1 of 3 seed pairs"
    assert wl["metrics"]["setup_s"]["change_wins"] == "0 of 3 seed pairs"


def test_bench_summary_verdicts(tmp_path):
    # ten seed pairs; bounds from BENCHMARK.json: 0.25 of the parent's
    # median for the times and reps_per_s, 0.05 for peak_rss_mb
    seeds = range(1, 11)
    parent = {
        "wall_p50_s": [1.0 + 0.01 * i for i in range(10)],
        "reps_per_s": [20.0 + 0.1 * i for i in range(10)],
        "peak_rss_mb": [100.0 + 0.01 * i for i in range(10)],
        "setup_s": [0.5 + 0.05 * i for i in range(10)],
        "wall_tail_s": [2.0 + 0.2 * i for i in range(10)],
    }
    change = {
        # met gain: 10 of 10 won, median 0.2 s better against a parent IQR of 0.045 s
        "wall_p50_s": [v - 0.2 for v in parent["wall_p50_s"]],
        # 8 of 10 won, by a median gap far above the parent's IQR: no gain
        "reps_per_s": [v + (2.0 if i < 8 else -0.5)
                       for i, v in enumerate(parent["reps_per_s"])],
        # median 10 % worse against a 5 % bound
        "peak_rss_mb": [v + 10.0 for v in parent["peak_rss_mb"]],
        # parent IQR 0.225 s above the bound of 0.18 s, and the change's
        # slowest run is slower than the parent's fastest
        "setup_s": [v - 0.01 for v in parent["setup_s"]],
        # spread as wide, but every change run beats every parent run
        "wall_tail_s": [0.5 + 0.1 * i for i in range(10)],
    }
    write_records(tmp_path / "parent", seeds, parent, [[]] * 10)
    write_records(tmp_path / "change", seeds, change, [[]] * 10)
    wl, stdout = run_bench_summary(tmp_path)
    verdicts = {name: (m["change_wins"], m["gain"], m["regression"])
                for name, m in wl["metrics"].items()}
    assert verdicts == {
        "wall_p50_s": ("10 of 10 seed pairs", "gain", "within bound"),
        "reps_per_s": ("8 of 10 seed pairs", "no gain", "within bound"),
        "peak_rss_mb": ("0 of 10 seed pairs", "no gain", "regression"),
        "setup_s": ("10 of 10 seed pairs", "no gain", "unresolved"),
        "wall_tail_s": ("10 of 10 seed pairs", "gain", "within bound"),
    }
    for name, (_, gain, regression) in verdicts.items():
        line, = [line for line in stdout.splitlines() if f" {name} " in line]
        assert line.endswith(f"{gain}, {regression}"), line


def test_perfbench_smoke_traces_every_span():
    # a renamed or bypassed function leaves its span dark: perfbench then
    # prints "not traced" for a missing name, or "= 0 s" for one never called
    res = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "selftest passed" in res.stdout
    assert [line for line in lines if "not traced" in line] == []
    for workload, name in (("imse-mc", "sim.true_spectrum_s"), ("imse-mc", "sim.imse_s"),
                           ("estimate-cli", "psd.clip_s"), ("estimate-cli", "psd.min_eig_s"),
                           ("estimate-cli", "core.write_s"), ("estimate-long", "core.write_s")):
        span, = [line for line in lines if line.startswith(workload) and f" {name} " in line]
        assert "= 0 s" not in span, span
