"""Every CLI command in every format, byte for byte against frozen outputs.

The commands run in process, in order, in one temporary directory: later
commands read the dataset and the sweep rows that earlier ones wrote. Each
written file and each command's stdout is compared with its golden under
``tests/data/cli_golden``; only the sweep timestamp is masked. After a
deliberate output change, regenerate the goldens with
``PYTHONPATH=src python tests/test_cli_goldens.py`` and review the diff. It
rewrites only the goldens whose masked bytes changed and deletes only the
ones no case produces any more.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from rffcap.cli import main
from rffcap.config import ScenarioConfig, save_config, scenario_from_dict

GOLDEN_DIR = Path(__file__).parent / "data" / "cli_golden"

SCENARIO_YAML = """\
population:
  cfo_hz: {mean: 0.0, std: 40000.0}
  iq_gain_db: {mean: 0.0, std: 0.8}
pipeline:
  n_fft: 64
  snr_db: 24.0
n_devices: 3
per_class: 10
estimator:
  bins: 8
  projected_dim: 1
classifier:
  train_per_class: 10
  test_per_class: 10
  max_devices: 5
sweep:
  axis: snr_db
  values: [12.0, 24.0]
seed: 9
"""

# a scenario that sets a field of every section, for the save_config golden
NON_DEFAULT = {
    "population": {"cfo_hz": {"mean": 1000.0, "std": 25000.0},
                   "pa_alpha3": {"std": 0.02}},
    "pipeline": {"fs_hz": 8.0e6, "snr_db": "noiseless", "snr_ref_fs_hz": 4.0e6,
                 "n_fft": 256, "lead_pad": [8, 40], "tail_pad": 0},
    "n_devices": 6,
    "per_class": 30,
    "estimator": {"bins": 32, "projected_dim": 5},
    "classifier": {"kappa": 9, "ridge": 0.125, "max_devices": 12},
    "capacity": {"n_max": 500},
    "sweep": {"axis": "q_bits", "values": [6, 10, 14]},
    "seed": 77,
}

# (case, argv, expected exit status, files the command writes)
CASES = [
    ("simulate_bin", "simulate --config scenario.yaml --format bin --out ds.rfds", 0,
     ["ds.rfds"]),
    ("simulate_csv", "simulate --config scenario.yaml --format csv", 0, ["dataset.csv"]),
    ("simulate_json", "simulate --config scenario.yaml --format json --out ds.json", 0,
     ["ds.json"]),
    ("simulate_data_csv", "simulate --data ds.rfds --format csv --out data.csv", 0,
     ["data.csv"]),
    ("simulate_data_json", "simulate --data ds.rfds --format json --out data.json", 0,
     ["data.json"]),
    ("simulate_data_bin", "simulate --data ds.rfds --format bin --out again.rfds", 0,
     ["again.rfds"]),
    ("mi_csv", "mi --data ds.rfds", 0, ["mi_report.csv"]),
    ("mi_json", "mi --config bins6.yaml --format json --out mi.json", 0, ["mi.json"]),
    ("emi_json_stdout", "emi --data ds.rfds --config scenario.yaml", 0, []),
    ("emi_json_out", "emi --config scenario.yaml --out emi.json", 0, ["emi.json"]),
    ("emi_csv_out", "emi --data ds.rfds --config scenario.yaml --format csv --out emi.csv",
     0, ["emi.csv"]),
    ("emi_csv_stdout", "emi --data ds.rfds --config scenario.yaml --format csv", 0, []),
    ("capacity_json_stdout", "capacity --emi 3.5", 0, []),
    ("capacity_json_out",
     "capacity --emi 3.5 --thresholds 0.05,0.01,0.2 --config non_default_config.yaml "
     "--format json --out cap.json", 0, ["cap.json"]),
    ("capacity_csv_out",
     "capacity --emi 3.5 --thresholds 0.05,0.01,0.2 --config non_default_config.yaml "
     "--format csv --out cap.csv", 0, ["cap.csv"]),
    ("capacity_csv_saturated", "capacity --emi 9.0 --config n_max40.yaml --format csv "
     "--out cap_saturated.csv", 0, ["cap_saturated.csv"]),
    ("capacity_csv_below_min", "capacity --emi 0.25 --format csv "
     "--out cap_below_min.csv", 0, ["cap_below_min.csv"]),
    ("capacity_csv_stdout", "capacity --emi 3.5 --thresholds 0.05,0.01,0.2 "
     "--config non_default_config.yaml --format csv", 0, []),
    ("classify_stdout", "classify --config scenario.yaml", 0, []),
    ("classify_csv", "classify --config scenario.yaml --format csv --out cls.csv", 0,
     ["cls.csv"]),
    ("classify_json", "classify --config scenario.yaml --n-classes 3 --format json "
     "--out cls.json", 0, ["cls.json"]),
    ("sweep_csv", "sweep --config scenario.yaml --with-classifier", 0,
     ["sweep_snr_db.csv"]),
    ("sweep_json", "sweep --config scenario.yaml --with-classifier --format json "
     "--out sweep.json", 0, ["sweep.json"]),
    ("validate_stdout", "validate --rows sweep_snr_db.csv", 1, []),
    ("validate_csv", "validate --rows sweep.json --slack 0.5 --format csv "
     "--out checks.csv", 1, ["checks.csv"]),
    ("validate_json", "validate --rows sweep_snr_db.csv --slack 2 --format json "
     "--out checks.json", 0, ["checks.json"]),
]

CONFIG_FILES = ["default_config.yaml", "non_default_config.yaml"]

TIMESTAMP = re.compile(r'(# timestamp: |"timestamp": ")[^"\n]*')


def masked(name: str, data: bytes) -> bytes:
    """data with a sweep file's timestamp blanked, the one part of an output that
    changes from run to run."""
    if not name.startswith("sweep_"):
        return data
    return TIMESTAMP.sub(r"\1", data.decode()).encode()


def produce(workdir: Path) -> dict[str, bytes]:
    """Run every case in workdir; map each golden name to the bytes produced."""
    outputs = {}
    (workdir / "scenario.yaml").write_text(SCENARIO_YAML)
    (workdir / "bins6.yaml").write_text(SCENARIO_YAML.replace("bins: 8", "bins: 6"))
    (workdir / "n_max40.yaml").write_text("capacity: {n_max: 40}\n")
    save_config(ScenarioConfig(), workdir / CONFIG_FILES[0])
    save_config(scenario_from_dict(NON_DEFAULT), workdir / CONFIG_FILES[1])
    for name in CONFIG_FILES:
        outputs[name] = (workdir / name).read_bytes()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for case, argv, status, files in CASES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv.split()) == status, case
            outputs[f"{case}.stdout"] = stdout.getvalue().encode()
            for name in files:
                outputs[f"{case}.{name}"] = (workdir / name).read_bytes()
    finally:
        os.chdir(cwd)
    return outputs


def golden_names() -> list[str]:
    names = list(CONFIG_FILES)
    for case, _, _, files in CASES:
        names += [f"{case}.stdout"] + [f"{case}.{name}" for name in files]
    return names


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("cli_golden"))


def test_every_golden_is_produced_and_present(produced):
    assert sorted(produced) == sorted(golden_names())
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(golden_names())


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_golden(produced, name):
    assert masked(name, produced[name]) == masked(name, (GOLDEN_DIR / name).read_bytes())


def test_a_loaded_dataset_is_written_back_unchanged(produced):
    # a loaded dataset holds the file's float32 features
    assert produced["simulate_data_bin.again.rfds"] == produced["simulate_bin.ds.rfds"]
    assert ((GOLDEN_DIR / "simulate_data_bin.again.rfds").read_bytes()
            == (GOLDEN_DIR / "simulate_bin.ds.rfds").read_bytes())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        produced_now = produce(Path(tmp))
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.iterdir():
        if stale.name not in produced_now:
            stale.unlink()
    changed = [golden for golden, data in produced_now.items()
               if not (GOLDEN_DIR / golden).exists()
               or masked(golden, (GOLDEN_DIR / golden).read_bytes()) != masked(golden, data)]
    for golden in changed:
        (GOLDEN_DIR / golden).write_bytes(produced_now[golden])
    print(f"wrote {len(changed)} of {len(produced_now)} goldens to {GOLDEN_DIR}",
          file=sys.stderr)
