"""Command-line checks that the goldens do not pin: rejected input, in process,
and the entry point, in one subprocess test.

What each command prints and writes is pinned byte for byte by
``tests/test_cli_goldens.py``.
"""

import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rffcap
from rffcap.cli import main
from rffcap.fingerprint import DatasetMeta, FingerprintDataset, save_dataset
from rffcap.harness import SweepResult, SweepRow, sweep_to_csv, sweep_to_json


def test_version_and_usage(tmp_path):
    """What only a real ``python -m rffcap`` process shows: --version, bare
    usage exiting 2, and an unexpected error exiting 1 with its traceback."""
    # the child runs in a temp directory, where a relative PYTHONPATH (such as
    # ``src``) would not resolve, so the imported package's absolute root goes first
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(rffcap.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)

    def run_cli(*args):
        return subprocess.run([sys.executable, "-m", "rffcap", *args],
                              capture_output=True, text=True, cwd=tmp_path, env=env)

    ok = run_cli("--version")
    assert (ok.returncode, ok.stdout) == (0, "0.1.0\n")
    assert run_cli().returncode == 2
    for argv in (["emi", "--data", "missing.rfds"], ["classify", "--config", "missing.yaml"]):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "FileNotFoundError" in proc.stderr


def test_validate_never_passes_a_nan_emi(tmp_path, monkeypatch, capsys):
    # the row printed "pass ... bound=0.0000" and the command exited 0
    monkeypatch.chdir(tmp_path)
    nan_row = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=1.0,
                       emi_bits_clamped=1.0, nc_1pct=3, nc_10pct=3, saturated=False,
                       below_min=False, n_classes_tested=8, pe_empirical=0.0,
                       emi_bits_classifier=float("nan"))
    rows = tmp_path / "nan.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[nan_row]), rows)
    assert ",nan," in rows.read_text()
    assert main(["validate", "--rows", str(rows), "--out", "checks.csv"]) == 2
    assert capsys.readouterr() == (
        "", f"rffcap: error: {rows}: rows[0] (value=1.0): emi_bits must be finite: nan\n")
    assert not (tmp_path / "checks.csv").exists()


def test_validate_rejects_a_malformed_or_classifier_less_file_in_one_line(
        tmp_path, monkeypatch, capsys):
    # both ended in a traceback and exit 1
    monkeypatch.chdir(tmp_path)
    cells = tmp_path / "cells.csv"
    cells.write_text("axis,value\nsnr_db,1.0,2\n")
    no_classifier = tmp_path / "sweep.json"
    sweep_to_json(SweepResult(spec_axis="snr_db", rows=[SweepRow(
        axis="snr_db", value=1.0, seed=0, emi_bits=1.0, emi_bits_clamped=1.0, nc_1pct=3,
        nc_10pct=3, saturated=False, below_min=False)]), no_classifier)
    for rows, message in [
            (cells, f"{cells}: line 2 has 3 cells, the header has 2"),
            (no_classifier, f"{no_classifier}: no rows carry an empirical error rate to validate")]:
        assert main(["validate", "--rows", str(rows), "--out", "checks.csv"]) == 2
        assert capsys.readouterr() == ("", f"rffcap: error: {message}\n")
        assert not (tmp_path / "checks.csv").exists()


def test_validate_names_a_rows_file_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    # the error line quoted the codec error and did not name the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bin.csv").write_bytes(b"\xff\xfe\x00axis,value\n")
    assert main(["validate", "--rows", "bin.csv", "--out", "checks.csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rffcap: error: bin.csv: "), lines
    assert not (tmp_path / "checks.csv").exists()


def test_explicit_zero_override_is_not_replaced_by_the_config(tmp_path, capsys):
    # 0 is not taken for "unset", and every count below 3 is a usage error
    config = tmp_path / "scenario.yaml"
    config.write_text("n_devices: 4\n")
    for value in ["0", "2", "-1"]:
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "--n-classes", value, "--config", str(config)])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"rffcap classify: error: argument --n-classes: "
            f"n_classes must be >= 3 and an integer: {value}")


# each subcommand's options: inputs, outputs and analysis settings that have no
# scenario field; every scenario value comes from --config alone
OPTIONS = {
    "simulate": {"--config", "--data", "--out", "--format"},
    "mi": {"--config", "--data", "--out", "--format"},
    "emi": {"--config", "--data", "--out", "--format"},
    "capacity": {"--config", "--emi", "--thresholds", "--out", "--format"},
    "classify": {"--config", "--n-classes", "--shuffle-labels", "--out", "--format"},
    "sweep": {"--config", "--with-classifier", "--threads", "--out", "--format"},
    "validate": {"--rows", "--slack", "--out", "--format"},
}

# options that repeated a scenario field or that their command never read
REMOVED = [("simulate", "--seed"), ("mi", "--seed"), ("emi", "--seed"),
           ("classify", "--seed"), ("sweep", "--seed"), ("capacity", "--seed"),
           ("validate", "--seed"), ("validate", "--config"), ("mi", "--bins"),
           ("emi", "--dim"), ("capacity", "--n-max")] + [
    (command, "--threads") for command in OPTIONS if command != "sweep"]


def test_each_subcommand_has_only_its_own_options(capsys):
    for command, options in OPTIONS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == options, command
    assert sum(map(len, OPTIONS.values())) == 31
    assert len(REMOVED) == 17
    required = {"capacity": ["--emi", "1"], "validate": ["--rows", "rows.csv"]}
    for command, option in REMOVED:
        with pytest.raises(SystemExit) as exit_info:
            main([command, *required.get(command, []), option, "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"rffcap: error: unrecognized arguments: {option} 2\n"), command


@pytest.mark.parametrize("argv, message", [
    (["capacity", "--emi", "nan"], "argument --emi: emi_bits must be finite: nan"),
    (["capacity", "--emi", "inf"], "argument --emi: emi_bits must be finite: inf"),
    (["capacity", "--emi", "3", "--thresholds", "abc"],
     "argument --thresholds: could not convert string to float: 'abc'"),
    (["capacity", "--emi", "3", "--thresholds", "0"],
     "argument --thresholds: threshold must be > 0.0, < 0.5 and finite: 0.0"),
    (["capacity", "--emi", "3", "--thresholds", "0.01,,0.1"],
     "argument --thresholds: could not convert string to float: ''"),
    (["sweep", "--threads", "0"], "argument --threads: threads must be >= 1 and an integer: 0"),
    (["validate", "--rows", "rows.csv", "--slack", "nan"],
     "argument --slack: slack must be finite: nan"),
    (["validate", "--rows", "rows.csv", "--slack", "inf"],
     "argument --slack: slack must be finite: inf"),
    (["validate", "--rows", "rows.csv", "--slack", "abc"],
     "argument --slack: could not convert string to float: 'abc'"),
])
def test_bad_option_value_is_a_usage_error(capsys, argv, message):
    """A value the library would reject stops argument parsing: exit 2, no output."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"rffcap {argv[0]}: error: {message}"


# (scenario, argv, message): a scenario rejected at load, or later by a sweep
# point, an estimator, the capacity scan or the classifier
REJECTED_SCENARIOS = [
    ("pipeline: {n_fft: 96}", "simulate --config scenario.yaml --out bad.rfds",
     "pipeline: n_fft must be a power of two in [64, 4096]: 96"),
    ("estimator: {projected_dim: 0}", "emi --config scenario.yaml",
     "estimator: projected_dim must be >= 1, <= 20 and an integer: 0"),
    # a sweep value is checked against the scenario it makes, before any point runs
    ("sweep: {axis: n_train_devices, values: [1, 4]}",
     "sweep --config scenario.yaml --out bad.csv",
     "sweep: n_train_devices = 1: n_devices must be >= 2 and an integer: 1"),
    # an estimator's rejection of the scenario's dataset (a 15-line traceback before)
    ("per_class: 10", "emi --config scenario.yaml --out emi.json",
     "every class needs >= 10*projected_dim = 100 samples (smallest has 10); "
     "reduce projected_dim"),
    # an n_max past the scan's limit (a MemoryError traceback before)
    ("capacity: {n_max: 1000000000000000}", "capacity --emi 3 --config scenario.yaml",
     "capacity: n_max must be >= 3, <= 1000000 and an integer: 1000000000000000"),
    # the classifier's rejection of the scenario's training set (a traceback before)
    ("n_devices: 4\npipeline: {n_fft: 1024}\nclassifier: "
     "{ridge: 0, train_per_class: 2, test_per_class: 2, max_devices: 4}",
     "classify --config scenario.yaml --out cls.csv",
     "within-class scatter is singular; rerun with a positive ridge"),
]


def assert_one_error_line(tmp_path, capsys, scenario, argv, message):
    """Exit 2, the one error line, nothing on stdout and no file written."""
    (tmp_path / "scenario.yaml").write_text(scenario + "\n")
    assert main(argv) == 2, argv
    assert capsys.readouterr() == ("", f"rffcap: error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


def test_rejected_scenario_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for scenario, argv, message in REJECTED_SCENARIOS:
        assert_one_error_line(tmp_path, capsys, scenario, argv.split(), message)


def test_non_finite_population_value_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a NaN std passed construction and failed in the build with a traceback
    monkeypatch.chdir(tmp_path)
    assert_one_error_line(tmp_path, capsys, "population: {cfo_hz: {std: .nan}}",
                          ["simulate", "--config", "scenario.yaml", "--out", "nan.rfds"],
                          "population.cfo_hz: std must be >= 0.0 and finite: nan")


@pytest.mark.parametrize("scenario, command, message", [
    # an int field takes only an integer: 4.0 is rejected, not truncated
    pytest.param("n_devices: 4.0", "simulate", "n_devices: expected int, got 4.0",
                 id="integral_float"),
    # rejected at load, not by NumPy during the build
    pytest.param("seed: -1", "simulate", "top level: seed must be >= 0 and an integer: -1",
                 id="negative_seed"),
    pytest.param("sweep: {values: []}", "simulate", "sweep: values must be non-empty",
                 id="empty_sweep"),
    pytest.param(f"sweep: {{values: [10, {10**400}]}}", "simulate",
                 f"sweep: values must be finite: {10**400}", id="sweep_value_past_float_range"),
    # the ADC's full scale is fixed at +/-1
    pytest.param("pipeline: {full_scale_vpp: 2.0}", "simulate",
                 "pipeline: unknown keys ['full_scale_vpp']", id="full_scale_vpp"),
    # before per_feature_mi sizes its counts by bins
    pytest.param("estimator: {bins: 4097}", "mi",
                 "estimator: bins must be >= 2, <= 4096 and an integer: 4097", id="bins"),
    pytest.param("population: {cfo_hz: {std: -1.0}}", "simulate",
                 "population.cfo_hz: std must be >= 0.0 and finite: -1.0", id="negative_std"),
    # it loaded, and simulate ended in an OverflowError traceback, exit 1
    pytest.param("pipeline: {fs_hz: 1.0e308}", "simulate",
                 "pipeline: capture samples must be <= 1048576 and finite: inf",
                 id="capture_past_its_limit"),
])
def test_scenario_rejected_at_load_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                     scenario, command, message):
    monkeypatch.chdir(tmp_path)
    assert_one_error_line(tmp_path, capsys, scenario,
                          [command, "--config", "scenario.yaml", "--out", "out"], message)


# one row of two features, the second NaN, under a valid meta block
META = json.dumps({"fs_hz": 4e6, "n_fft": 2, "snr_db": 24.0, "q_bits": 14,
                   "class_ids": [0]}).encode()
NAN_FEATURE = (b"RFPD" + struct.pack("<QQI", 1, 2, len(META)) + META
               + struct.pack("<2fi", 0.0, float("nan"), 0))


@pytest.mark.parametrize("command", ["simulate", "mi", "emi"])
@pytest.mark.parametrize("payload, message", [
    (b"RFPDgarbage", "truncated dataset header in {}"),
    (NAN_FEATURE, "dataset features in {} are not all finite"),
], ids=["garbage", "nan_feature"])
def test_malformed_data_file_is_one_error_line(tmp_path, capsys, command, payload, message):
    # the garbage file ended in an 18-line traceback, exit 1; the NaN one loaded
    bad = tmp_path / "bad.rfds"
    bad.write_bytes(payload)
    out = tmp_path / "out.csv"
    assert main([command, "--data", str(bad), "--out", str(out), "--format", "csv"]) == 2
    assert capsys.readouterr() == ("", f"rffcap: error: {message.format(bad)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["mi", "emi"])
def test_an_estimator_rejecting_the_data_file_is_one_error_line(tmp_path, capsys, command):
    # a valid file of one class ended in an 18-line traceback, exit 1
    bad = tmp_path / "one_class.rfds"
    save_dataset(FingerprintDataset(
        np.random.default_rng(0).normal(size=(20, 4)), np.zeros(20, dtype=int),
        DatasetMeta(fs_hz=4e6, n_fft=4, snr_db=24.0, q_bits=14, class_ids=[0])), bad)
    out = tmp_path / "out.csv"
    assert main([command, "--data", str(bad), "--out", str(out), "--format", "csv"]) == 2
    assert capsys.readouterr() == ("", f"rffcap: error: {bad}: need at least 2 distinct labels\n")
    assert not out.exists()
