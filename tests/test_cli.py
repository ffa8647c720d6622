"""End-to-end command-line checks, via subprocess and in process."""

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
from rffcap.fingerprint import DatasetMeta, FingerprintDataset, load_dataset, save_dataset
from rffcap.harness import SweepResult, SweepRow, sweep_to_csv, sweep_to_json

CONFIG_YAML = """\
population:
  cfo_hz: {mean: 0.0, std: 40000.0}
  iq_gain_db: {mean: 0.0, std: 0.8}
pipeline:
  n_fft: 64
  snr_db: 24.0
n_devices: 4
per_class: 24
estimator:
  bins: 16
  projected_dim: 2
classifier:
  train_per_class: 24
  test_per_class: 24
  max_devices: 6
sweep:
  axis: snr_db
  values: [12.0, 24.0]
seed: 9
"""


# The directory that holds the imported rffcap package. The child runs in a
# temp directory, where a relative PYTHONPATH (such as ``src``) would not
# resolve, so it is given this absolute root instead.
PACKAGE_ROOT = str(Path(rffcap.__file__).resolve().parent.parent)


def run_cli(args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "rffcap", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(CONFIG_YAML)
    return path


def test_version_and_usage(tmp_path):
    ok = run_cli(["--version"], tmp_path)
    assert ok.returncode == 0
    assert ok.stdout.strip() == "0.1.0"
    bare = run_cli([], tmp_path)
    assert bare.returncode == 2


def test_simulate_binary_and_csv(tmp_path, config_file):
    out = tmp_path / "ds.rfds"
    res = run_cli(["simulate", "--config", str(config_file), "--format", "bin",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert f"wrote 96 samples x 64 bins (4 devices) to {out}" in res.stdout
    ds = load_dataset(out)
    assert ds.features.shape == (96, 64)
    assert ds.meta.class_ids == [0, 1, 2, 3]

    res = run_cli(["simulate", "--config", str(config_file), "--format", "csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    assert lines[0].startswith("bin_0,") and lines[0].endswith(",label")
    assert len(lines) == 97


def test_mi_command(tmp_path, config_file):
    ds_path = tmp_path / "ds.rfds"
    res = run_cli(["simulate", "--config", str(config_file), "--format", "bin",
                   "--out", str(ds_path)], tmp_path)
    assert res.returncode == 0, res.stderr
    out = tmp_path / "mi.csv"
    res = run_cli(["mi", "--data", str(ds_path), "--config", str(config_file),
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_index,freq_hz,mi_bits"
    assert len(lines) == 65
    assert all(float(ln.split(",")[2]) >= 0.0 for ln in lines[1:])


def test_emi_command_json_stdout(tmp_path, config_file):
    ds_path = tmp_path / "ds.rfds"
    res = run_cli(["simulate", "--config", str(config_file), "--format", "bin",
                   "--out", str(ds_path)], tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli(["emi", "--data", str(ds_path), "--config", str(config_file)], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["projected_dim"] == 2
    assert payload["n_samples"] == 96
    assert payload["n_classes"] == 4
    assert 0.0 <= payload["emi_bits_clamped"] <= 2.0
    assert len(payload["bandwidths"]) == 2


def test_capacity_command(tmp_path):
    res = run_cli(["capacity", "--emi", "3.5"], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["capacity"]["0.01"]["n_c"] == 12
    assert payload["capacity"]["0.1"]["n_c"] > 12
    assert not payload["capacity"]["0.01"]["saturated"]

    out = tmp_path / "cap.csv"
    res = run_cli(["capacity", "--emi", "3.5", "--format", "csv",
                   "--out", str(out), "--thresholds", "0.01,0.10"], tmp_path)
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter,emi_bits,nc_at_1pct,nc_at_10pct,saturated,below_min"
    assert lines[1].split(",")[2] == "12"


def test_classify_command(tmp_path, config_file):
    res = run_cli(["classify", "--config", str(config_file)], tmp_path)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["n_classes"] == 4
    assert payload["n_test"] == 96
    assert 0.0 <= payload["pe"] <= 1.0
    assert len(payload["per_class_errors"]) == 4
    assert payload["unseen_labels"] == []


def test_sweep_command(tmp_path, config_file):
    res = run_cli(["sweep", "--config", str(config_file)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "wrote 2 rows (0 aborted) to sweep_snr_db.csv" in res.stdout
    lines = (tmp_path / "sweep_snr_db.csv").read_text().splitlines()
    assert lines[0].startswith("# timestamp:")
    assert lines[1].startswith("axis,value,seed,emi_bits")
    assert len(lines) == 4


def test_validate_command(tmp_path):
    def row(value, pe, emi):
        return SweepRow(axis="snr_db", value=value, seed=0, emi_bits=emi,
                        emi_bits_clamped=emi, nc_1pct=3, nc_10pct=3,
                        saturated=False, below_min=False, n_classes_tested=8,
                        pe_empirical=pe, emi_bits_classifier=emi)

    good = tmp_path / "good.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db",
                             rows=[row(1.0, 0.875, 0.0), row(2.0, 0.01, 3.0)]),
                 good)
    res = run_cli(["validate", "--rows", str(good)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "2/2 bound checks passed" in res.stdout
    assert res.stdout.count("pass ") == 2

    bad = tmp_path / "bad.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[row(1.0, 0.0, 0.0)]), bad)
    res = run_cli(["validate", "--rows", str(bad)], tmp_path)
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "0/1 bound checks passed" in res.stdout


def test_validate_never_passes_a_nan_emi(tmp_path):
    # the row printed "pass ... bound=0.0000" and the command exited 0
    nan_row = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=1.0,
                       emi_bits_clamped=1.0, nc_1pct=3, nc_10pct=3, saturated=False,
                       below_min=False, n_classes_tested=8, pe_empirical=0.0,
                       emi_bits_classifier=float("nan"))
    rows = tmp_path / "nan.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[nan_row]), rows)
    assert ",nan," in rows.read_text()
    res = run_cli(["validate", "--rows", str(rows), "--out", "checks.csv"], tmp_path)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [
        f"rffcap: error: {rows}: rows[0] (value=1.0): emi_bits must be finite: nan"]
    assert not (tmp_path / "checks.csv").exists()


def test_validate_rejects_a_malformed_or_classifier_less_file_in_one_line(tmp_path):
    # both ended in a traceback and exit 1
    cells = tmp_path / "cells.csv"
    cells.write_text("axis,value\nsnr_db,1.0,2\n")
    no_classifier = tmp_path / "sweep.json"
    sweep_to_json(SweepResult(spec_axis="snr_db", rows=[SweepRow(
        axis="snr_db", value=1.0, seed=0, emi_bits=1.0, emi_bits_clamped=1.0, nc_1pct=3,
        nc_10pct=3, saturated=False, below_min=False)]), no_classifier)
    for rows, message in [
            (cells, f"{cells}: line 2 has 3 cells, the header has 2"),
            (no_classifier, f"{no_classifier}: no rows carry an empirical error rate to validate")]:
        res = run_cli(["validate", "--rows", str(rows), "--out", "checks.csv"], tmp_path)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr.splitlines() == [f"rffcap: error: {message}"]
        assert not (tmp_path / "checks.csv").exists()


def test_validate_names_a_rows_file_that_is_not_utf8(tmp_path):
    # the error line quoted the codec error and did not name the file
    (tmp_path / "bin.csv").write_bytes(b"\xff\xfe\x00axis,value\n")
    res = run_cli(["validate", "--rows", "bin.csv", "--out", "checks.csv"], tmp_path)
    assert (res.returncode, res.stdout) == (2, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rffcap: error: bin.csv: "), lines
    assert not (tmp_path / "checks.csv").exists()


def test_explicit_zero_override_is_not_replaced_by_the_config(config_file, capsys):
    # 0 is not taken for "unset", and every count below 3 is a usage error
    for value in ["0", "2", "-1"]:
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", "--n-classes", value, "--config", str(config_file)])
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


def test_rejected_scenario_is_one_error_line(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("pipeline: {n_fft: 96}\n")
    proc = run_cli(["simulate", "--config", str(bad), "--out", "bad.rfds"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "rffcap: error: pipeline: n_fft must be a power of two in [64, 4096]: 96"]
    assert not (tmp_path / "bad.rfds").exists()
    bad.write_text("estimator: {projected_dim: 0}\n")
    proc = run_cli(["emi", "--config", str(bad)], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "rffcap: error: estimator: projected_dim must be >= 1, <= 20 and an integer: 0\n")
    # a sweep value is checked against the scenario it makes, before any point runs
    bad.write_text("sweep: {axis: n_train_devices, values: [1, 4]}\n")
    proc = run_cli(["sweep", "--config", str(bad), "--out", "bad.csv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "rffcap: error: sweep: n_train_devices = 1: "
           "n_devices must be >= 2 and an integer: 1\n")
    assert not (tmp_path / "bad.csv").exists()
    # an estimator's rejection of the scenario's dataset (a 15-line traceback before)
    bad.write_text("per_class: 10\n")
    proc = run_cli(["emi", "--config", str(bad), "--out", "emi.json"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "rffcap: error: every class needs >= 10*projected_dim = 100 samples "
           "(smallest has 10); reduce projected_dim\n")
    assert not (tmp_path / "emi.json").exists()
    # an n_max past the scan's limit (a MemoryError traceback before)
    bad.write_text("capacity: {n_max: 1000000000000000}\n")
    proc = run_cli(["capacity", "--emi", "3", "--config", str(bad)], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "rffcap: error: capacity: n_max must be >= 3, <= 1000000 and an integer: "
           "1000000000000000\n")
    # the classifier's rejection of the scenario's training set (a traceback before)
    bad.write_text("n_devices: 4\npipeline: {n_fft: 1024}\nclassifier: "
                   "{ridge: 0, train_per_class: 2, test_per_class: 2, max_devices: 4}\n")
    proc = run_cli(["classify", "--config", str(bad), "--out", "cls.csv"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "rffcap: error: within-class scatter is singular; rerun with a positive ridge\n")
    assert not (tmp_path / "cls.csv").exists()
    # any other failure keeps its traceback
    for argv in (["emi", "--data", "missing.rfds"], ["classify", "--config", "missing.yaml"]):
        proc = run_cli(argv, tmp_path)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr and "FileNotFoundError" in proc.stderr


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


def test_non_finite_population_value_is_one_error_line(tmp_path):
    # a NaN std passed construction and failed in the build with a traceback
    bad = tmp_path / "nan.yaml"
    bad.write_text("population: {cfo_hz: {std: .nan}}\n")
    proc = run_cli(["simulate", "--config", str(bad), "--out", "nan.rfds"], tmp_path)
    assert (proc.returncode, proc.stderr) == (
        2, "rffcap: error: population.cfo_hz: std must be >= 0.0 and finite: nan\n")
    assert not (tmp_path / "nan.rfds").exists()
