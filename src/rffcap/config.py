"""Structured configuration for scenarios, populations, and sweeps.

A scenario YAML file is a nested key-value document; every key is optional
and falls back to the default of its section, which the module it configures
defines. Unknown keys are rejected so typos fail loudly. Each section checks
its limits when it is constructed and is frozen (use dataclasses.replace).
See the README for the full schema.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from ._records import _check_count, _check_real, read_record
from .capacity import CapacityConfig
from .classifier import ClassifierConfig
from .fingerprint import PipelineConfig
from .infotheory import EstimatorConfig
from .signal_model import PopulationSpec

SWEEP_AXES = ("n_train_devices", "snr_db", "q_bits", "n_fft", "fs_hz")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SweepConfig:
    axis: str = "snr_db"
    values: list = field(default_factory=lambda: [10.0, 20.0, 30.0])

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}: {self.axis}")
        if not self.values:
            raise ValueError("values must be non-empty")
        for v in self.values:
            _check_real("values", v)
        pairs = list(zip(self.values, self.values[1:]))
        if not (all(a < b for a, b in pairs) or all(a > b for a, b in pairs)):
            raise ValueError(f"values must be strictly ordered: {self.values}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one synthetic identification scenario."""

    population: PopulationSpec = field(default_factory=PopulationSpec)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    n_devices: int = 12
    per_class: int = 150
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seed: int = 1234

    def __post_init__(self):
        _check_count("n_devices", self.n_devices, 2)
        _check_count("per_class", self.per_class, 2)
        _check_count("seed", self.seed, 0)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig; missing sections use defaults."""
    try:
        return read_record(ScenarioConfig, {} if data is None else data, None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# PyYAML follows YAML 1.1, where a float needs a dot and a signed exponent;
# this loader also reads 4.0e6 and 1e6 as floats, as YAML 1.2 does
_Loader = type("_Loader", (yaml.SafeLoader,), {})
_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    return scenario_from_dict(data)


def save_config(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(asdict(cfg), sort_keys=False))
