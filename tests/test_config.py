"""Scenario configuration parsing, validation, and YAML roundtrips."""

from dataclasses import asdict

import pytest

from rffcap.config import (
    ConfigError,
    ScenarioConfig,
    load_config,
    save_config,
    scenario_from_dict,
)


def test_defaults():
    cfg = scenario_from_dict({})
    assert cfg.n_devices == 12
    assert cfg.per_class == 150
    assert cfg.seed == 1234
    assert cfg.pipeline.fs_hz == 4e6
    assert cfg.pipeline.n_fft == 512
    assert cfg.estimator.projected_dim == 10
    assert cfg.classifier.kappa == 150
    assert cfg.sweep.axis == "snr_db"
    assert scenario_from_dict(None) == ScenarioConfig()


def test_dict_roundtrip():
    cfg = scenario_from_dict({
        "population": {"cfo_hz": {"mean": 1e3, "std": 20e3}},
        "pipeline": {"n_fft": 256, "snr_db": 18.0, "lead_pad": [8, 40]},
        "n_devices": 6,
        "per_class": 30,
        "estimator": {"projected_dim": 5},
        "classifier": {"kappa": 9, "train_per_class": 50},
        "capacity": {"n_max": 500},
        "sweep": {"axis": "q_bits", "values": [6, 10, 14]},
        "seed": 77,
    })
    assert cfg.population.cfo_hz.mean == 1e3
    assert cfg.population.cfo_hz.std == 20e3
    assert cfg.pipeline.n_fft == 256
    assert cfg.pipeline.lead_pad == (8, 40)
    assert cfg.classifier.kappa == 9
    assert cfg.classifier.test_per_class == 200  # untouched default
    assert cfg.sweep.values == [6, 10, 14]
    assert scenario_from_dict(asdict(cfg)) == cfg


def test_yaml_roundtrip(tmp_path):
    cfg = scenario_from_dict({
        "pipeline": {"snr_db": "noiseless"},
        "n_devices": 4,
        "sweep": {"axis": "n_fft", "values": [64, 128]},
    })
    path = tmp_path / "scenario.yaml"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert back.pipeline.snr_db == "noiseless"


def test_unknown_keys_rejected_at_each_level():
    with pytest.raises(ConfigError):
        scenario_from_dict({"devices": 4})
    with pytest.raises(ConfigError):
        scenario_from_dict({"population": {"color": {"mean": 0, "std": 1}}})
    with pytest.raises(ConfigError):
        scenario_from_dict({"pipeline": {"sample_rate": 4e6}})
    with pytest.raises(ConfigError):
        scenario_from_dict({"classifier": {"gamma": 1.0}})
    with pytest.raises(ConfigError):
        scenario_from_dict({"sweep": {"step": 2}})


def test_value_validation(tmp_path):
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("pipeline: {n_fft: 64\n")
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_config(bad_yaml)
    bad_yaml.write_text("pipeline: {snr_db: true}\n")
    with pytest.raises(ConfigError, match=r"pipeline.snr_db: expected float \| str, got True"):
        load_config(bad_yaml)
    for data, message in [
        ({"pipeline": [1, 2]}, "pipeline: expected a mapping"),
        ({"pipeline": None}, "pipeline: expected a mapping"),
        ({"sweep": {"values": 5}}, "sweep.values: expected a list"),
        ({"population": {"cfo_hz": {"mean": "x"}}}, "population.cfo_hz.mean: expected float"),
        ({"population": {"cfo_hz": {"std": -1.0}}}, "population.cfo_hz: std must be"),
        ({"population": {"pa_alpha3": {"mean": float("inf")}}},
         "population.pa_alpha3: mean must be finite: inf"),
        ({"n_devices": [4]}, "n_devices: expected int"),
        ({"pipeline": {"lead_pad": ["a", 2]}}, "pipeline.lead_pad: expected int"),
        ({"estimator": {"bins": {}}}, "estimator.bins: expected int"),
        ({"classifier": {"ridge": "abc"}}, r"classifier.ridge: expected float \| None"),
        ({"n_devices": 1}, "n_devices must be >= 2"),
        ({"per_class": 1}, "per_class must be >= 2"),
        ({"sweep": {"axis": "bandwidth"}}, "sweep: axis must be one of"),
        ({"pipeline": {"lead_pad": [1, 2, 3]}}, r"pipeline.lead_pad: expected \[low, high\]"),
        ({"population": {"cfo_hz": 5.0}}, "population.cfo_hz: expected a mapping"),
        ("not a mapping", "top level: expected a mapping"),
        # each section's own construction check, named by the section
        ({"pipeline": {"n_fft": 96}}, "pipeline: n_fft must be a power of two"),
        ({"pipeline": {"fs_hz": float("inf")}}, "pipeline: fs_hz must be finite"),
        ({"pipeline": {"snr_ref_fs_hz": 0}},
         "pipeline: snr_ref_fs_hz must be None or finite and > 0"),
        ({"pipeline": {"threshold_factor": float("nan")}},
         "pipeline: threshold_factor must be finite and > 0"),
        ({"pipeline": {"tail_pad": -40}}, "pipeline: tail_pad must be >= 0"),
        ({"pipeline": {"lead_pad": [10, 5]}}, "pipeline: lead_pad high must be >= 10"),
        ({"pipeline": {"adc_backoff_db": -1e6}}, r"pipeline: adc_backoff_db must be in \[-1000"),
        ({"n_devices": 4, "per_class": 1}, "top level: per_class must be >= 2"),
        # an int field takes only an integer: no fraction, no infinity, not 4.0
        ({"n_devices": 4.0}, "n_devices: expected int, got 4.0"),
        ({"pipeline": {"q_bits": 10.5}}, "pipeline.q_bits: expected int, got 10.5"),
        ({"n_devices": 2.5}, "n_devices: expected int, got 2.5"),
        ({"n_devices": float("inf")}, "n_devices: expected int, got inf"),
        # the estimator, classifier and capacity limits, met before any run
        ({"estimator": {"bins": 1}}, "estimator: bins must be >= 2"),
        ({"estimator": {"projected_dim": 0}}, "estimator: projected_dim must be >= 1"),
        ({"estimator": {"projected_dim": 21}}, "estimator: projected_dim must be <= 20"),
        ({"classifier": {"kappa": 0}}, "classifier: kappa must be >= 1"),
        ({"classifier": {"ridge": -1e-3}}, "classifier: ridge must be None or finite and >= 0"),
        ({"classifier": {"ridge": float("nan")}}, "classifier: ridge must be None or finite"),
        ({"classifier": {"ridge": float("inf")}}, "classifier: ridge must be None or finite"),
        ({"classifier": {"train_per_class": 1}}, "classifier: train_per_class must be >= 2"),
        ({"classifier": {"test_per_class": 1}}, "classifier: test_per_class must be >= 2"),
        ({"classifier": {"max_devices": 3}}, "classifier: max_devices must be >= 4"),
        ({"capacity": {"n_max": 2}}, "capacity: n_max must be >= 3"),
        ({"seed": -1}, "top level: seed must be >= 0"),
        # a YAML boolean is no number, though int() and float() would take it
        ({"seed": True}, "seed: expected int, got True"),
        ({"pipeline": {"fs_hz": False}}, "pipeline.fs_hz: expected float, got False"),
        ({"classifier": {"ridge": True}}, r"classifier.ridge: expected float \| None, got True"),
        ({"pipeline": {"lead_pad": [True, 8]}}, "pipeline.lead_pad: expected int, got True"),
        ({"pipeline": {"snr_db": True}}, r"pipeline.snr_db: expected float \| str, got True"),
        ({"pipeline": {"snr_db": False, "snr_ref_fs_hz": 2e6}},
         r"pipeline.snr_db: expected float \| str, got False"),
    ]:
        with pytest.raises(ConfigError, match=message):
            scenario_from_dict(data)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_scenario_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
        ScenarioConfig(seed=seed)


def test_yaml_exponent_without_a_dot_or_sign_is_a_float(tmp_path):
    """YAML 1.1 reads 4.0e6 and 1e7 as strings; a float field reads them as floats."""
    path = tmp_path / "scenario.yaml"
    path.write_text("pipeline: {fs_hz: 1e7, snr_db: 2.4e1, snr_ref_fs_hz: 4.0e6}\n")
    pipeline = load_config(path).pipeline
    assert (pipeline.fs_hz, pipeline.snr_db, pipeline.snr_ref_fs_hz) == (1e7, 24.0, 4e6)


def test_section_limits_accept_their_bounds():
    cfg = scenario_from_dict({
        "estimator": {"bins": 2, "projected_dim": 20},
        "classifier": {"kappa": 1, "ridge": 0, "train_per_class": 2, "test_per_class": 2,
                       "max_devices": 4},
        "capacity": {"n_max": 3}})
    assert (cfg.estimator.bins, cfg.classifier.ridge, cfg.capacity.n_max) == (2, 0.0, 3)
    assert scenario_from_dict({"estimator": {"projected_dim": 1}}).estimator.projected_dim == 1
    assert ScenarioConfig(seed=0).seed == 0


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)
