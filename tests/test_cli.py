import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftspectra import (
    FunctionalSeries,
    Grid,
    clip_estimate,
    estimate_from_json_dict,
    estimate_lagwindow,
    estimate_smoothed,
    estimate_to_json_dict,
    generate_fma1,
    make_fma1_model,
    parse_kernel,
    select_bandwidth,
    series_from_csv,
    series_to_csv,
    trapezoid,
    true_spectrum,
)
from ftspectra import cli
from ftspectra.bandwidth import gamma_grid_indices
from ftspectra.core import read_csv, write_csv, write_json
from ftspectra.sim import parse_bandwidth_mode, resolve_bandwidths

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ftspectra", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_import_leaves_out_the_process_pool():
    # only bench --parallel uses the pool; importing concurrent.futures
    # (and with it logging) costs every call
    res = subprocess.run([sys.executable, "-c", "import sys, ftspectra.cli; "
                          "print('concurrent.futures' in sys.modules)"],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    res = run_cli("simulate", "--model", "fma1", "--T", "128", "--d", "40",
                  "--seed", "7", "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "small.csv"
    series_to_csv(generate_fma1(make_fma1_model(7, d=4), 64), path)
    return path


@pytest.fixture(scope="module")
def overflowing_csv(tmp_path_factory):
    # every value is finite, but a lag product of two is about 1e400
    path = tmp_path_factory.mktemp("cli") / "overflowing.csv"
    values = np.random.default_rng(5).standard_normal((64, 4)) * 1e200
    series_to_csv(FunctionalSeries(Grid(4), values), path)
    return path


# The edges of the float range: signed zeros, subnormals, the smallest
# normal, values near the largest, the infinities and nan; and floats drawn
# at large. A valid bandwidth B still costs time and memory in proportion to
# its S/B lag weights, up to the 10^7-lag limit, so the draws leave out
# (1e-8, 1e-6): below it every B is refused, above it a run holds at most
# about 10^6 weights.
FLAG_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(max_value=1e-8), st.floats(min_value=1e-6))


class TestSimulate:
    def test_writes_loadable_csv(self, data_csv):
        series = series_from_csv(data_csv)
        assert series.n_curves == 128 and series.d == 40

    def test_matches_library_pipeline_bitwise(self, data_csv):
        series = series_from_csv(data_csv)
        expected = generate_fma1(make_fma1_model(7, d=40), 128)
        assert np.array_equal(series.values, expected.values)

    def test_deterministic(self, tmp_path, data_csv):
        other = tmp_path / "again.csv"
        run_cli("simulate", "--model", "fma1", "--T", "128", "--d", "40",
                "--seed", "7", "--out", str(other))
        assert other.read_bytes() == data_csv.read_bytes()


class TestEstimate:
    def test_round_trip_equals_in_memory(self, data_csv, tmp_path):
        out = tmp_path / "est"
        res = run_cli("estimate", "--input", str(data_csv), "--kernel", "TR",
                      "--bandwidth", "rate", "--out", str(out),
                      "--csv-dir", str(tmp_path / "est_csv"))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.json") as fh:
            est = estimate_from_json_dict(json.load(fh))

        series = generate_fma1(make_fma1_model(7, d=40), 128)
        expected = estimate_smoothed(series, trapezoid(), 128 ** (-0.2))
        assert np.array_equal(est.frequencies, expected.frequencies)
        for a, b in zip(est.kernels, expected.kernels):
            assert np.array_equal(a.matrix, b.matrix)

        for i, b in enumerate(expected.kernels):
            parts = [read_csv(tmp_path / "est_csv" / f"freq_{i:04d}_{part}.csv",
                              header=False)[1] for part in ("re", "im")]
            assert np.array_equal(parts[0] + 1j * parts[1], b.matrix)

    def test_rerun_is_byte_identical_one_matrix_row_per_line(self, data_csv, tmp_path):
        outputs = []
        for name in ("a", "b"):
            res = run_cli("estimate", "--input", str(data_csv), "--kernel", "TR",
                          "--out", str(tmp_path / name))
            assert res.returncode == 0, res.stderr
            outputs.append([(tmp_path / f"{name}{suffix}").read_bytes()
                            for suffix in (".json", ".summary.json")])
        assert outputs[0] == outputs[1]
        with open(tmp_path / "a.json") as fh:
            rows = json.load(fh)["kernels"][0]["re"]
        lines = {line.strip().rstrip(",") for line in outputs[0][0].decode().splitlines()}
        assert len(rows) == 40 and all(json.dumps(row) in lines for row in rows)

    @pytest.mark.parametrize("args", [
        ("--kernel", "TR", "--bandwidth", "auto", "--psd", "semidefinite"),
        ("--kernel", "EPA"),
        ("--kernel", "PR", "--method", "lagwindow", "--psd", "definite"),
    ], ids=["TR-auto-semidefinite", "EPA", "PR-lagwindow-definite"])
    def test_files_are_the_list_layout_of_the_in_memory_estimate(self, data_csv, tmp_path,
                                                                 args):
        # the estimate is written from arrays, reusing mirrored entries'
        # text; the bytes must be those of its nested-list form
        res = run_cli("estimate", "--input", str(data_csv), *args, "--out",
                      str(tmp_path / "est"), "--csv-dir", str(tmp_path / "dir"))
        assert res.returncode == 0, res.stderr
        flags = dict(zip(args[::2], args[1::2]))
        series, spec = series_from_csv(data_csv), parse_kernel(flags["--kernel"])
        bandwidth, = resolve_bandwidths(parse_bandwidth_mode(flags.get("--bandwidth", "rate")),
                                        series, (spec,))
        method = estimate_lagwindow if "--method" in flags else estimate_smoothed
        est = clip_estimate(method(series, spec, bandwidth), flags.get("--psd", "none"),
                            eps=1.0 / series.n_curves)
        fields = estimate_to_json_dict(est)
        expected = {"est.json": fields,
                    "dir/meta.json": {k: v for k, v in fields.items() if k != "kernels"}}
        for i, m in enumerate(est.matrices):
            expected[f"dir/freq_{i:04d}_re.csv"] = m.real.tolist()
            expected[f"dir/freq_{i:04d}_im.csv"] = m.imag.tolist()
        assert {f"dir/{p.name}" for p in (tmp_path / "dir").iterdir()} == set(expected) - {
            "est.json"}
        for name, content in expected.items():
            (write_json if name.endswith(".json") else write_csv)(tmp_path / "ref", content)
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref").read_bytes(), name

    def test_psd_clip_reported_in_summary(self, data_csv, tmp_path):
        out = tmp_path / "clipped"
        res = run_cli("estimate", "--input", str(data_csv), "--kernel", "PR",
                      "--psd", "semidefinite", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.summary.json") as fh:
            summary = json.load(fh)
        assert summary["psd_mode"] == "semidefinite"
        assert min(summary["min_eigenvalue_per_frequency"]) >= -1e-10
        assert summary["hermitian_residual_max"] <= 1e-10

    def test_lagwindow_and_explicit_bandwidth(self, data_csv, tmp_path):
        out = tmp_path / "lw"
        res = run_cli("estimate", "--input", str(data_csv), "--kernel", "ID",
                      "--method", "lagwindow", "--bandwidth", "0.25",
                      "--frequencies", "0,0.5,1.0,2.0", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.summary.json") as fh:
            summary = json.load(fh)
        assert summary["method"] == "lag-window"
        assert summary["bandwidth"] == 0.25
        assert summary["frequencies"] == [0.0, 0.5, 1.0, 2.0]

    def test_json_centered_key_is_ignored(self, tmp_path):
        # a "centered": true key does not stop the estimator from removing
        # the mean of 5
        values = np.random.default_rng(3).standard_normal((64, 4)) + 5.0
        outputs = []
        for extra in ({}, {"centered": True}):
            path = tmp_path / f"s{len(extra)}.json"
            obj = {"d": 4, "T": 64, "values": values.tolist(), **extra}
            path.write_text(json.dumps(obj))
            out = tmp_path / f"e{len(extra)}"
            res = run_cli("estimate", "--input", str(path), "--frequencies", "0.1",
                          "--out", str(out))
            assert res.returncode == 0, res.stderr
            outputs.append((tmp_path / f"e{len(extra)}.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_auto_bandwidth(self, data_csv, tmp_path):
        out = tmp_path / "auto"
        res = run_cli("estimate", "--input", str(data_csv), "--kernel", "TR",
                      "--bandwidth", "auto", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.summary.json") as fh:
            summary = json.load(fh)
        assert 0.0 < summary["bandwidth"] <= 1.0


class TestBandwidthCommand:
    def test_report_parseable(self, data_csv, tmp_path):
        out = tmp_path / "bw.json"
        res = run_cli("bandwidth", "--input", str(data_csv), "--kernel", "TR",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out) as fh:
            report = json.load(fh)
        assert report["q_hat"] >= 0
        assert np.asarray(report["q_grid"]).shape == (10, 10)


class TestExitCodes:
    def test_invalid_kernel_is_config_error(self, data_csv, tmp_path):
        res = run_cli("estimate", "--input", str(data_csv),
                      "--kernel", "GAUSS", "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        err = json.loads(res.stderr)
        assert err["error"]["code"] == 1

    def test_invalid_bandwidth_is_config_error(self, data_csv, tmp_path):
        res = run_cli("estimate", "--input", str(data_csv),
                      "--bandwidth", "1.7", "--out", str(tmp_path / "x"))
        assert res.returncode == 1

    def test_unit_bandwidth_accepted(self, data_csv, tmp_path):
        out = tmp_path / "unit"
        res = run_cli("estimate", "--input", str(data_csv),
                      "--bandwidth", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.summary.json") as fh:
            assert json.load(fh)["bandwidth"] == 1.0

    def test_malformed_csv_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("tau_0,tau_1\n0.1,oops\n0.2,0.3\n")
        res = run_cli("estimate", "--input", str(bad), "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        err = json.loads(res.stderr)
        assert err["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("command", ["estimate", "bandwidth"])
    def test_missing_json_input_is_parse_error(self, tmp_path, command):
        res = run_cli(command, "--input", str(tmp_path / "missing.json"),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["code"] == 2

    @pytest.mark.parametrize("name", ["bin.csv", "bin.json"])
    def test_undecodable_input_is_parse_error(self, tmp_path, name):
        (tmp_path / name).write_bytes(b"tau_0,tau_1\n\xff\xfe,1\n")
        res = run_cli("estimate", "--input", str(tmp_path / name),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["code"] == 2

    def test_directory_json_input_is_parse_error(self, tmp_path):
        (tmp_path / "x.json").mkdir()
        res = run_cli("estimate", "--input", str(tmp_path / "x.json"),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["code"] == 2

    @pytest.mark.parametrize("args", [
        ["simulate", "--T", "1", "--out", "{tmp}/x.csv"],
        ["bench", "--T-list", "16", "--bandwidth", "2rate", "--kernels", "TR",
         "--replications", "2", "--d", "8", "--out-dir", "{tmp}/b"],
        ["bench", "--parallel", "0", "--T-list", "16", "--kernels", "TR",
         "--replications", "2", "--d", "8", "--out-dir", "{tmp}/b"],
        ["bench", "--seed", "-1", "--T-list", "16", "--kernels", "TR",
         "--replications", "2", "--d", "8", "--out-dir", "{tmp}/b"],
        ["estimate", "--kernel", '{{"family":"TR","c":null}}'],
        ["estimate", "--kernel", '{{"family":"PR","c":1e400}}'],
        ["estimate", "--kernel", '{{"family":"PR","c":NaN}}'],
        ["estimate", "--kernel", '{{"family":"ID","b":NaN}}'],
        ["estimate", "--kernel", '{{"family":"ID","b":1e400}}'],
        ["estimate", "--kernel", '{{"family":"PR","c":true}}'],
        ["estimate", "--kernel", '{{"family":"TR","c":"0.4"}}'],
        ["estimate", "--psd", "definite", "--eps", "nan"],
        ["estimate", "--psd", "definite", "--eps", "inf"],
        ["estimate", "--psd", "none", "--eps", "-1"],
        ["estimate", "--psd", "semidefinite", "--eps", "nan"],
        ["bandwidth", "--C0", "nan"],
        ["bandwidth", "--C0", "inf"],
        ["estimate", "--kernel", "EPA", "--frequencies", "0.1,inf"],
        ["estimate", "--kernel", "EPA", "--frequencies", "nan"],
        ["estimate", "--kernel", "TR", "--frequencies", "inf"],
        ["estimate", "--bandwidth", "5e-324"],
        ["bench", "--bandwidth", "1e-310", "--T-list", "16", "--kernels", "TR",
         "--replications", "2", "--d", "8", "--out-dir", "{tmp}/b"],
    ], ids=["simulate-T1", "bench-2rate-above-1", "bench-parallel-0", "bench-seed-negative",
            "kernel-c-null",
            "kernel-c-overflow", "kernel-c-nan", "kernel-b-nan", "kernel-b-overflow",
            "kernel-c-bool", "kernel-c-string",
            "eps-nan", "eps-inf", "eps-negative-psd-none", "eps-nan-semidefinite",
            "C0-nan", "C0-inf", "EPA-frequency-inf", "EPA-frequency-nan",
            "TR-frequency-inf", "bandwidth-subnormal", "bench-bandwidth-subnormal"])
    def test_out_of_range_parameter_is_config_error(self, tmp_path, data_csv, args):
        if args[0] in ("estimate", "bandwidth"):
            args = args + ["--input", str(data_csv), "--out", "{tmp}/x"]
        res = run_cli(*(a.format(tmp=tmp_path) for a in args))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("args", [
        ["simulate", "--T", "16", "--out", "{tmp}/x.csv"],
        ["bench", "--T-list", "16", "--kernels", "TR", "--replications", "2", "--d", "8",
         "--out-dir", "{tmp}/b"],
    ], ids=["simulate", "bench"])
    @pytest.mark.parametrize("seed, message", [
        ("-1", "seed must be nonnegative, got -1"),
        ("2.5", "argument --seed: invalid int value: '2.5'"),
    ], ids=["negative", "fraction"])
    def test_every_command_refuses_a_seed_alike(self, tmp_path, capsys, args, seed, message):
        # simulate once reported numpy's ValueError for a negative seed
        code = cli.main([a.format(tmp=tmp_path) for a in args] + ["--seed", seed])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == \
            {"code": 1, "type": "DomainError", "message": message}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["estimate", "--kernel", "EPA", "--bandwidth", "auto", "--input", "{data}",
         "--out", "{tmp}/x"],
        ["bench", "--kernels", "EPA", "--bandwidth", "auto", "--T-list", "16",
         "--replications", "2", "--d", "8", "--out-dir", "{tmp}/b"],
    ], ids=["estimate", "bench"])
    def test_auto_bandwidth_for_baseline_is_config_error(self, tmp_path, data_csv, args):
        res = run_cli(*(a.format(tmp=tmp_path, data=data_csv) for a in args))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.count("\n") == 1
        error = json.loads(res.stderr)["error"]
        assert (error["code"], error["type"]) == (1, "UnsupportedKernelError")
        assert "Epanechnikov" in error["message"]

    def test_out_of_memory_is_numeric_error(self, tmp_path, capsys, monkeypatch):
        # simulate --T 1000000000000 would get here for real
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.3 TiB")
        monkeypatch.setattr(cli, "generate_fma1", out_of_memory)
        code = cli.main(["simulate", "--T", "16", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        line, = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == \
            {"code": 3, "type": "MemoryError", "message": "Unable to allocate 7.3 TiB"}

    @pytest.mark.parametrize("args", [
        ["estimate", "--input", "{tmp}/in.csv", "--psd", "bogus", "--out", "{tmp}/x"],
        ["estimate", "--input", "{tmp}/in.csv"],
        ["simulate", "--T", "abc", "--out", "{tmp}/x.csv"],
        ["bench", "--full", "--out-dir", "{tmp}/b"],
    ], ids=["bad-choice", "missing-required", "bad-int", "bench-full-is-gone"])
    def test_bad_flag_is_config_error(self, tmp_path, args):
        res = run_cli(*(a.format(tmp=tmp_path) for a in args))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["code"] == 1

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["bench", "--help"]])
    def test_help_and_version_exit_zero(self, args):
        res = run_cli(*args)
        assert res.returncode == 0 and res.stdout

    @pytest.mark.parametrize("name, content", [
        ("one.json", '{"d": 2, "values": [[1.0, 2.0]]}'),
        ("d.json", '{"d": 3, "values": [[1.0, 2.0], [3.0, 4.0]]}'),
        ("t.json", '{"d": 2, "T": "abc", "values": [[1.0, 2.0], [3.0, 4.0]]}'),
        ("f.json", '{"d": 2.7, "values": [[1.0, 2.0], [3.0, 4.0]]}'),
        ("wide.csv", "tau_0,tau_1\n1.0," + "9" * 140000 + "\n2.0,3.0\n"),
    ], ids=["one-row-json", "d-mismatch-json", "T-not-int-json", "d-float-json",
            "huge-field-csv"])
    def test_unformable_series_is_parse_error(self, tmp_path, name, content):
        (tmp_path / name).write_text(content)
        res = run_cli("estimate", "--input", str(tmp_path / name),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["type"] == "ParseError"

    def test_nonfinite_values_are_numeric_error(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("tau_0,tau_1\nnan,1.0\n0.2,0.3\n")
        res = run_cli("estimate", "--input", str(bad), "--out", str(tmp_path / "x"))
        assert res.returncode == 3

    @pytest.mark.parametrize("args", [
        ["bandwidth", "--input", "{huge}"],
        ["estimate", "--input", "{huge}", "--kernel", "TR"],
        ["estimate", "--input", "{huge}", "--kernel", "EPA"],
        ["estimate", "--input", "{huge}", "--bandwidth", "auto"],
        ["estimate", "--input", "{data}", "--psd", "definite", "--eps", "1e308"],
    ], ids=["bandwidth", "estimate-TR", "estimate-EPA", "estimate-auto", "estimate-eps"])
    def test_overflow_is_one_numeric_error_line(self, tmp_path, data_csv, overflowing_csv,
                                                args):
        # an overflow once let bandwidth exit 0 on NaN correlations, and put
        # numpy's warnings on stderr ahead of the JSON error line
        res = run_cli(*(a.format(huge=overflowing_csv, data=data_csv) for a in args),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 3
        line, = res.stderr.splitlines()
        assert json.loads(line)["error"]["code"] == 3

    def test_success_is_zero(self, data_csv, tmp_path):
        res = run_cli("bandwidth", "--input", str(data_csv),
                      "--out", str(tmp_path / "r.json"))
        assert res.returncode == 0

    @settings(deadline=None, max_examples=30)
    @example(value=5e-324)
    @example(value=1e-310)
    @given(value=FLAG_FLOATS)
    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--input", "{data}", "--out", "{tmp}/x"], "--bandwidth"),
        (["estimate", "--psd", "definite", "--input", "{data}", "--out", "{tmp}/x"],
         "--eps"),
        (["estimate", "--input", "{data}", "--out", "{tmp}/x"], "--frequencies"),
        (["bandwidth", "--input", "{data}", "--out", "{tmp}/x"], "--C0"),
        (["bench", "--T-list", "16", "--replications", "2", "--d", "4",
          "--out-dir", "{tmp}/b"], "--bandwidth"),
    ], ids=["estimate-bandwidth", "estimate-eps", "estimate-frequencies", "bandwidth-C0",
            "bench-bandwidth"])
    def test_float_flags_end_in_a_mapped_exit_code(self, small_csv, argv, flag, value):
        # no float a flag reads escapes main as an exception; a failure is
        # one JSON error line whose code is the exit code
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(stderr):
            code = cli.main([a.format(data=small_csv, tmp=tmp) for a in argv]
                            + [f"{flag}={value!r}"])
        assert code in (0, 1, 2, 3)
        if code:
            line, = stderr.getvalue().splitlines()
            assert json.loads(line)["error"]["code"] == code


class TestConfigFile:
    def test_flags_take_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 64, "seed": 1, "d": 20}))
        out = tmp_path / "sim.csv"
        res = run_cli("simulate", "--config", str(cfg), "--T", "32",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        series = series_from_csv(out)
        assert series.n_curves == 32   # flag wins
        assert series.d == 20          # config fills the rest

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        res = run_cli("simulate", "--config", str(cfg), "--T", "16",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 1


    @pytest.mark.parametrize("flag", [["--rep", "2"], ["--rep=2"]],
                             ids=["abbreviated", "abbreviated-equals"])
    def test_abbreviated_flag_takes_precedence(self, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replications": 3}))
        out = tmp_path / "bench"
        res = run_cli("bench", *flag, "--config", str(cfg), "--T-list", "64",
                      "--kernels", "TR", "--d", "8", "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        with open(out / "bench.json") as fh:
            assert [r["n_runs"] for r in json.load(fh)] == [2]

    def test_command_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "bench"}))
        res = run_cli("simulate", "--config", str(cfg), "--T", "16",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["type"] == "DomainError"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("entry", [
        {"replications": 2.5},
        {"fixed_operators": "no"},
    ], ids=["float-for-int", "string-for-switch"])
    def test_wrongly_typed_entry_is_config_error(self, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**entry, "T_list": "32", "kernels": "TR", "d": 8}))
        res = run_cli("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "b"))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["type"] == "DomainError"

    def test_help_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"help": True}))
        res = run_cli("simulate", "--config", str(cfg), "--T", "16",
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 1
        assert json.loads(res.stderr)["error"]["type"] == "DomainError"

    def test_bad_choice_is_config_error(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "bogus"}))
        res = run_cli("estimate", "--config", str(cfg), "--input", str(data_csv),
                      "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        assert not (tmp_path / "x.json").exists()

    def test_null_and_true_entries(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"parallel": None, "fixed_operators": True,
                                   "replications": 2, "T_list": "32",
                                   "kernels": "TR", "d": 8}))
        res = run_cli("bench", "--config", str(cfg), "--out-dir", str(tmp_path / "b"))
        assert res.returncode == 0, res.stderr
        with open(tmp_path / "b" / "bench.json") as fh:
            assert [r["n_runs"] for r in json.load(fh)] == [2]

    def test_kernel_object_entry(self, data_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kernel": {"family": "ID", "c": 0.1}}))
        out = tmp_path / "est"
        res = run_cli("estimate", "--config", str(cfg), "--input", str(data_csv),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(f"{out}.summary.json") as fh:
            assert json.load(fh)["kernel"] == "ID(b=0.25,c=0.1)"

    def test_required_options_from_config(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 16, "d": 4, "out": str(out)}))
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 0, res.stderr
        assert series_from_csv(out).n_curves == 16


class TestBench:
    def test_outputs_and_reparse(self, tmp_path):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "64", "--replications", "3",
                      "--kernels", "TR,EPA", "--seed", "3", "--d", "16",
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        csv_text = (out / "bench.csv").read_text().splitlines()
        assert csv_text[0] == "kernel,T,bandwidth_mode,mean_log2_imse,stderr"
        assert len(csv_text) == 3
        with open(out / "bench.json") as fh:
            rows = json.load(fh)
        assert {r["kernel"] for r in rows} == {"TR(c=0.5)", "EPA"}
        # trace files exist and parse as CSV with an omega column
        trace = (out / "trace_tr.csv").read_text().splitlines()
        assert trace[0].startswith("omega,")
        assert (out / "trace_truth.csv").exists()

    def test_json_kernel_objects_and_trace_line_endings(self, tmp_path):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "32", "--replications", "2", "--d", "8",
                      "--kernels", '{"family":"TR","c":0.4},PR', "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        with open(out / "bench.json") as fh:
            assert [r["kernel"] for r in json.load(fh)] == ["TR(c=0.4)", "PR(c=0.75)"]
        lines = (out / "trace_tr.csv").read_bytes().split(b"\n")
        assert lines[-1] == b"" and all(line.endswith(b"\r") for line in lines[:-1])

    def test_repeated_family_gets_one_trace_per_spec(self, tmp_path):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "64", "--replications", "2", "--d", "10",
                      "--kernels", '{"family":"TR","c":0.4},TR,PR', "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        assert sorted(p.name for p in out.glob("trace_*.csv")) == [
            "trace_pr.csv", "trace_tr.csv", "trace_tr_2.csv", "trace_truth.csv"]
        # trace_tr.csv holds TR(c=0.4), the first TR spec, and trace_tr_2.csv TR(c=0.5)
        assert (out / "trace_tr.csv").read_bytes() != (out / "trace_tr_2.csv").read_bytes()

    def test_repeated_identical_spec_is_config_error(self, tmp_path):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "64", "--replications", "2", "--d", "10",
                      "--kernels", "TR,TR", "--out-dir", str(out))
        assert res.returncode == 1
        err = json.loads(res.stderr)["error"]
        assert err["type"] == "DomainError" and "TR(c=0.5)" in err["message"]
        assert not out.exists()

    def test_repeated_T_is_config_error(self, tmp_path):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "64,64", "--replications", "2",
                      "--kernels", "TR", "--out-dir", str(out))
        assert res.returncode == 1
        err = json.loads(res.stderr)["error"]
        assert err["type"] == "DomainError" and "T = 64" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("mode, kernels", [("rate", "EPA,TR,PR,ID"),
                                               ("auto", "TR,PR,ID")])
    def test_trace_rows_are_the_library_estimates(self, tmp_path, mode, kernels):
        out = tmp_path / "bench"
        res = run_cli("bench", "--T-list", "32,64", "--replications", "2", "--d", "12",
                      "--seed", "5", "--kernels", kernels, "--bandwidth", mode,
                      "--out-dir", str(out))
        assert res.returncode == 0, res.stderr
        model = make_fma1_model(5, d=12)
        series = generate_fma1(model, 64)
        freqs = np.linspace(0.0, np.pi, 65)
        expected = {"truth": true_spectrum(model, freqs)}
        for text in kernels.split(","):
            spec = parse_kernel(text)
            bandwidth = 64 ** -0.2 if mode == "rate" else select_bandwidth(series, spec).B_T
            expected[text.lower()] = estimate_smoothed(series, spec, bandwidth, freqs)
        assert sorted(p.name for p in out.glob("trace_*.csv")) == sorted(
            f"trace_{name}.csv" for name in expected)
        idx = gamma_grid_indices(12)
        for name, est in expected.items():
            rows = read_csv(out / f"trace_{name}.csv", header=True)[1]
            want = [[w, *np.abs(np.diagonal(k.matrix))[idx]]
                    for w, k in zip(freqs, est.kernels)]
            assert np.array_equal(rows, np.array(want)), name


class TestReadme:
    """The README's examples run as written."""

    blocks = re.findall(r"```(\w*)\n(.*?)```", README.read_text(), re.DOTALL)

    def test_every_command_parses(self):
        commands = [line for _, block in self.blocks
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("ftspectra ")]
        parsed = [cli.build_parser().parse_args(shlex.split(line)[1:]) for line in commands]
        assert {args.command for args in parsed} == {"simulate", "estimate", "bandwidth",
                                                     "bench"}

    def test_python_quick_start_runs(self):
        code, = [block for lang, block in self.blocks if lang == "python"]
        namespace = {}
        exec(code, namespace)
        assert len(namespace["est"].kernels) == 10
