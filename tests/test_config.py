"""Scenario configuration parsing, validation, and YAML roundtrips."""

import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest

from rffcap.capacity import (
    check_fano_consistency,
    fano_lower_bound,
    fano_upper_bound,
    user_capacity,
)
from rffcap.classifier import error_rate_experiment, fit_lda
from rffcap.config import (
    CapacityConfig,
    ClassifierConfig,
    ConfigError,
    EstimatorConfig,
    ScenarioConfig,
    SweepConfig,
    load_config,
    save_config,
    scenario_from_dict,
)
from rffcap.fingerprint import (
    DatasetMeta,
    FingerprintDataset,
    PipelineConfig,
    acquire,
    build_dataset,
    extract_spectral_feature,
)
from rffcap.harness import validate_bounds
from rffcap.infotheory import MAX_BINS, binary_entropy, emi_kde, per_feature_mi
from rffcap.signal_model import (
    DeviceProfile,
    ParamDist,
    PopulationSpec,
    adc_sample,
    apply_awgn,
    generate_preamble,
    preamble_length,
    quantization_error_bound,
    sample_profiles,
)

from helpers import NON_FINITE


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
    # the ADC's full scale is fixed at +/-1; adc_backoff_db sets the headroom
    with pytest.raises(ConfigError, match=r"pipeline: unknown keys \['full_scale_vpp'\]"):
        scenario_from_dict({"pipeline": {"full_scale_vpp": 2.0}})
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
        # the value list is checked at load, not first when a sweep is built
        ({"sweep": {"values": []}}, "sweep: values must be non-empty"),
        ({"sweep": {"values": [10.0, True]}}, "sweep: values must be finite: True"),
        ({"sweep": {"values": ["10"]}}, "sweep: values must be finite: '10'"),
        # a 400-digit integer loaded, and then ended rffcap sweep in an OverflowError
        ({"sweep": {"values": [10, 10 ** 400]}}, "sweep: values must be finite: 1000"),
        ({"sweep": {"values": [-(10 ** 400), 0]}}, "sweep: values must be finite: -1000"),
        ({"sweep": {"values": [float("nan")]}}, "sweep: values must be finite: nan"),
        ({"sweep": {"values": [0.0, float("inf")]}}, "sweep: values must be finite: inf"),
        ({"sweep": {"values": [10.0, 20.0, 20.0]}}, "sweep: values must be strictly ordered"),
        ({"pipeline": {"lead_pad": [1, 2, 3]}}, r"pipeline.lead_pad: expected \[low, high\]"),
        ({"population": {"cfo_hz": 5.0}}, "population.cfo_hz: expected a mapping"),
        ("not a mapping", "top level: expected a mapping"),
        # each section's own construction check, named by the section
        ({"pipeline": {"n_fft": 96}}, "pipeline: n_fft must be a power of two"),
        ({"pipeline": {"fs_hz": float("inf")}}, "pipeline: fs_hz must be >= 2000000.0 and finite"),
        ({"pipeline": {"snr_ref_fs_hz": 0}},
         "pipeline: snr_ref_fs_hz must be > 0.0 and finite: 0.0"),
        ({"pipeline": {"threshold_factor": float("nan")}},
         "pipeline: threshold_factor must be > 0.0 and finite: nan"),
        ({"pipeline": {"tail_pad": -40}}, "pipeline: tail_pad must be >= 0"),
        ({"pipeline": {"lead_pad": [10, 5]}}, "pipeline: lead_pad high must be >= 10"),
        ({"pipeline": {"adc_backoff_db": -1e6}},
         "pipeline: adc_backoff_db must be >= -1000.0, <= 1000.0 and finite"),
        # a capture of lead_pad high + preamble + tail_pad samples sizes build_dataset's
        # buffers: fs_hz 1e308 loaded and ended simulate in an OverflowError, and
        # this lead_pad asked for 64 GB
        ({"pipeline": {"fs_hz": 1e308}},
         "pipeline: capture samples must be <= 1048576 and finite: inf"),
        ({"pipeline": {"lead_pad": [16, 2000000000]}},
         r"pipeline: capture samples must be <= 1048576 and finite: 2000000544\.0"),
        ({"pipeline": {"tail_pad": 2**20}},
         r"pipeline: capture samples must be <= 1048576 and finite: 1049232\.0"),
        ({"pipeline": {"n_symbols": 10**400}},
         "pipeline: capture samples must be <= 1048576 and finite: inf"),
        ({"n_devices": 4, "per_class": 1}, "top level: per_class must be >= 2"),
        # an int field takes only an integer: no fraction, no infinity, not 4.0
        ({"n_devices": 4.0}, "n_devices: expected int, got 4.0"),
        ({"pipeline": {"q_bits": 10.5}}, "pipeline.q_bits: expected int, got 10.5"),
        ({"n_devices": 2.5}, "n_devices: expected int, got 2.5"),
        ({"n_devices": float("inf")}, "n_devices: expected int, got inf"),
        # the estimator, classifier and capacity limits, met before any run
        ({"estimator": {"bins": 1}}, "estimator: bins must be >= 2"),
        # per_feature_mi's counts grow with bins; a billion bins asked for ~3 TB
        ({"estimator": {"bins": MAX_BINS + 1}},
         f"estimator: bins must be >= 2, <= {MAX_BINS} and an integer: {MAX_BINS + 1}"),
        ({"estimator": {"projected_dim": 0}}, "estimator: projected_dim must be >= 1"),
        ({"estimator": {"projected_dim": 21}}, "estimator: projected_dim must be >= 1, <= 20"),
        ({"classifier": {"kappa": 0}}, "classifier: kappa must be >= 1"),
        ({"classifier": {"ridge": -1e-3}}, "classifier: ridge must be >= 0.0 and finite: -0.001"),
        ({"classifier": {"ridge": float("nan")}}, "classifier: ridge must be >= 0.0 and finite"),
        ({"classifier": {"ridge": float("inf")}}, "classifier: ridge must be >= 0.0 and finite"),
        ({"classifier": {"train_per_class": 1}}, "classifier: train_per_class must be >= 2"),
        ({"classifier": {"test_per_class": 1}}, "classifier: test_per_class must be >= 2"),
        ({"classifier": {"max_devices": 3}}, "classifier: max_devices must be >= 4"),
        ({"capacity": {"n_max": 2}}, "capacity: n_max must be >= 3"),
        # the scan holds arrays of n_max values; 10**15 of them once died in a
        # MemoryError when the capacity command ran
        ({"capacity": {"n_max": 10**15}},
         "capacity: n_max must be >= 3, <= 1000000 and an integer: 1000000000000000"),
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


# three classes of 30 rows: enough for every estimator and for fit_lda, so each
# library call below fails on its limit and nothing else
DATASET = FingerprintDataset(
    np.random.default_rng(0).normal(size=(90, 4)), np.repeat(np.arange(3), 30),
    DatasetMeta(fs_hz=4e6, n_fft=4, snr_db=24.0, q_bits=14, class_ids=[0, 1, 2]))
PROFILES = sample_profiles(PopulationSpec(), 2, seed=1)
SAMPLES = np.ones(64, dtype=complex)

# each limit that a config section and library functions enforce: the section
# built with a value, the functions called with it, and bad values (a bool, a
# string, a fraction or non-finite values, below the low limit, above the
# high one)
SHARED_LIMITS = {
    "bins": (lambda v: EstimatorConfig(bins=v),
             [lambda v: per_feature_mi(DATASET, bins=v)], [True, "64", 2.5, 1, MAX_BINS + 1]),
    "projected_dim": (lambda v: EstimatorConfig(projected_dim=v),
                      [lambda v: emi_kde(DATASET, projected_dim=v)], [True, "10", 2.5, 0, 21]),
    "kappa": (lambda v: ClassifierConfig(kappa=v),
              [lambda v: fit_lda(DATASET, kappa=v)], [True, "150", 2.5, 0]),
    "ridge": (lambda v: ClassifierConfig(ridge=v),
              [lambda v: fit_lda(DATASET, ridge=v)], [True, "1", *NON_FINITE, -1.0]),
    # 100.5 once scanned N up to 101 and returned n_c 101, unsaturated
    "n_max": (lambda v: CapacityConfig(n_max=v),
              [lambda v: user_capacity(3.0, 0.01, n_max=v)],
              [True, "100", 2.5, 100.5, 100.0, 2, 1_000_001]),
    "per_class": (lambda v: ScenarioConfig(per_class=v),
                  [lambda v: build_dataset(PROFILES, v, PipelineConfig())],
                  [True, "150", 2.5, 1]),
    "n_symbols": (lambda v: PipelineConfig(n_symbols=v),
                  [lambda v: generate_preamble(DeviceProfile(device_id=0), 4e6, v),
                   lambda v: preamble_length(4e6, v)],
                  [True, "8", 2.5, 0]),
    "fs_hz": (lambda v: PipelineConfig(fs_hz=v),
              [lambda v: generate_preamble(DeviceProfile(device_id=0), v),
               lambda v: preamble_length(v, 8)],
              [True, "4e6", *NON_FINITE, -1.0, 1e6, -4e6]),
    # with no padding a capture is the preamble: 8 symbols at 8.192 GHz fill the limit
    "capture samples": (lambda v: PipelineConfig(fs_hz=v, lead_pad=(0, 0), tail_pad=0),
                        [lambda v: generate_preamble(DeviceProfile(device_id=0), v),
                         lambda v: preamble_length(v, 8)],
                        [8.2e9, 1e308]),
    "threshold_factor": (lambda v: PipelineConfig(threshold_factor=v),
                         [lambda v: acquire(SAMPLES, 32, v)],
                         [True, "6", *NON_FINITE, -1.0, 0.0]),
    "snr_db": (lambda v: PipelineConfig(snr_db=v),
               [lambda v: apply_awgn(SAMPLES, v)],
               [True, "24", "quiet", *NON_FINITE, -5000.0]),
    "q_bits": (lambda v: PipelineConfig(q_bits=v),
               [lambda v: adc_sample(SAMPLES, v), quantization_error_bound],
               [True, "14", 2.5, 3, 25]),
    "n_fft": (lambda v: PipelineConfig(n_fft=v),
              [lambda v: extract_spectral_feature(SAMPLES, v)],
              [True, "512", 2.5, 32, 100, 8192]),
}


@pytest.mark.parametrize("name, bad", [(name, bad) for name, (_, _, values) in SHARED_LIMITS.items()
                                       for bad in values])
def test_config_and_library_reject_a_bad_value_with_one_message(name, bad):
    section, libraries, _ = SHARED_LIMITS[name]
    with pytest.raises(ValueError, match=f"^{name} must be ") as from_section:
        section(bad)
    for library in libraries:
        with pytest.raises(ValueError) as from_library:
            library(bad)
        assert str(from_library.value) == str(from_section.value)


# each library default that a config section also states, and the section's
# field that it reads
SECTION_DEFAULTS = [
    (per_feature_mi, "bins", EstimatorConfig, "bins"),
    (emi_kde, "projected_dim", EstimatorConfig, "projected_dim"),
    (fit_lda, "kappa", ClassifierConfig, "kappa"),
    (fit_lda, "ridge", ClassifierConfig, "ridge"),
    (user_capacity, "n_max", CapacityConfig, "n_max"),
    (acquire, "threshold_factor", PipelineConfig, "threshold_factor"),
]


@pytest.mark.parametrize("function, parameter, section, field", SECTION_DEFAULTS,
                         ids=[f"{f.__name__}-{p}" for f, p, _, _ in SECTION_DEFAULTS])
def test_library_default_is_its_sections_field_default(function, parameter, section, field):
    default = inspect.signature(function).parameters[parameter].default
    assert default == {f.name: f.default for f in fields(section)}[field]


@pytest.mark.parametrize("name, text", [("snr_ref_fs_hz", "4e6"), ("adc_backoff_db", "3")])
def test_pipeline_rejects_a_string_limit_with_its_message(name, text):
    # a string ended in a TypeError from comparing it with the limit
    with pytest.raises(ValueError, match=f"^{name} must be .*: '{text}'$"):
        PipelineConfig(**{name: text})


# every real-valued limit: its name and each call that checks it. One rule
# rejects a string, a bool and a non-finite value, with one message shape
REAL_LIMITS = [
    ("emi_bits", lambda v: user_capacity(v, 0.01)),
    ("emi_bits", lambda v: fano_lower_bound(v, 4, 0.1)),
    ("emi_bits", lambda v: fano_upper_bound(v, 4)),
    ("emi_bits", lambda v: check_fano_consistency(v, 4, 0.1)),
    ("threshold", lambda v: user_capacity(3.0, v)),
    ("pe", lambda v: fano_lower_bound(1.0, 4, v)),
    ("pe", lambda v: check_fano_consistency(1.0, 4, v)),
    ("slack", lambda v: validate_bounds([], slack=v)),
    ("p", binary_entropy),
    *[(name, lambda v, name=name: DeviceProfile(0, **{name: v}))
      for name in ("cfo_hz", "iq_gain_db", "iq_phase_deg", "clock_jitter_ppm", "pa_alpha3")],
    ("mean", lambda v: ParamDist(mean=v)),
    ("std", lambda v: ParamDist(std=v)),
    ("signal_power", lambda v: apply_awgn(SAMPLES, 20.0, signal_power=v)),
    ("fs_hz", lambda v: generate_preamble(DeviceProfile(0), v)),
    ("snr_ref_fs_hz", lambda v: PipelineConfig(snr_ref_fs_hz=v)),
    ("adc_backoff_db", lambda v: PipelineConfig(adc_backoff_db=v)),
    ("threshold_factor", lambda v: acquire(SAMPLES, 32, v)),
    ("ridge", lambda v: fit_lda(DATASET, ridge=v)),
    ("values", lambda v: SweepConfig(values=[v])),
]


@pytest.mark.parametrize("bad", ["1", True, *NON_FINITE, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize("name, call", REAL_LIMITS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(REAL_LIMITS)])
def test_every_real_limit_rejects_a_bad_value_with_one_message(name, call, bad):
    # a string ended in a TypeError, and a bool or a NaN passed some of them;
    # an integer past float range is no finite number either
    with pytest.raises(ValueError, match=f"^{name} must be (.* and )?finite: "):
        call(bad)


def test_real_limits_keep_their_ranges():
    """Each range's ends are accepted or rejected as before."""
    assert DeviceProfile(0, cfo_hz=-200e3, iq_gain_db=3.0, pa_alpha3=-0.999, dc_offset=0.5)
    assert ParamDist(-1.0, 0.0).std == 0.0
    assert user_capacity(3.0, 0.4999).threshold == 0.4999
    assert binary_entropy(0) == binary_entropy(1.0) == 0.0
    assert fano_lower_bound(1.0, 4, 1).raw < 1.0
    assert PipelineConfig(fs_hz=2e6, adc_backoff_db=-1000, snr_ref_fs_hz=1e-9).fs_hz == 2e6
    for bad in [lambda: DeviceProfile(0, cfo_hz=200001.0), lambda: DeviceProfile(0, pa_alpha3=1),
                lambda: DeviceProfile(0, iq_gain_db=3.5), lambda: ParamDist(0.0, -1e-300),
                lambda: binary_entropy(-0.01), lambda: binary_entropy(1.01),
                lambda: user_capacity(3.0, 0.5),
                lambda: user_capacity(3.0, 0), lambda: fano_lower_bound(1.0, 4, 1.0001),
                lambda: PipelineConfig(adc_backoff_db=1000.5),
                lambda: PipelineConfig(snr_ref_fs_hz=0),
                lambda: apply_awgn(SAMPLES, 20.0, signal_power=0.0),
                lambda: apply_awgn(np.zeros(8, dtype=complex), 20.0)]:
        with pytest.raises(ValueError, match=r"must be [<>]"):
            bad()


@pytest.mark.parametrize("device_id", [1.5, True, "0"])
def test_device_id_must_be_a_non_negative_integer(device_id):
    # 1.5 and True were accepted, and 1.5 ended build_dataset in a TypeError
    with pytest.raises(ValueError, match="^device_id must be >= 0 and an integer: "):
        DeviceProfile(device_id)


@pytest.mark.parametrize("dc_offset", [True, "0", *[complex(v, 0.0) for v in NON_FINITE],
                                       *[complex(0.0, v) for v in NON_FINITE],
                                       pytest.param(10**400, id="10**400")])
def test_dc_offset_must_be_a_finite_complex_number(dc_offset):
    # a bool was taken as 1 and a string ended in a TypeError; an integer past
    # float range is a complex number that cmath cannot convert
    with pytest.raises(ValueError, match="^dc_offset must be a finite complex number: "):
        DeviceProfile(0, dc_offset=dc_offset)


def test_error_rate_experiment_rejects_a_fractional_class_count():
    # a fraction ended in a TypeError from slicing the profiles
    with pytest.raises(ValueError, match=r"^n_classes must be >= 3 and an integer: 3\.5$"):
        error_rate_experiment(sample_profiles(PopulationSpec(), 4, seed=1), 3.5,
                              PipelineConfig(n_fft=64))
