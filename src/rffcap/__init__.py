"""RF-fingerprint simulation, identity-information estimation, and user capacity."""

__version__ = "0.1.0"

from .capacity import (
    BoundValue,
    CapacityResult,
    check_fano_consistency,
    fano_lower_bound,
    fano_upper_bound,
    user_capacity,
)
from .classifier import (
    ClassificationReport,
    LdaModel,
    classify,
    error_rate_experiment,
    fit_lda,
)
from .config import ScenarioConfig, load_config, save_config, scenario_from_dict
from .fingerprint import (
    FingerprintDataset,
    PipelineConfig,
    acquire,
    build_dataset,
    extract_spectral_feature,
    load_dataset,
    save_dataset,
)
from .harness import (
    SweepResult,
    SweepRow,
    SweepSpec,
    read_sweep_rows,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
    validate_bounds,
    write_table,
)
from .infotheory import (
    EmiEstimate,
    MiReport,
    binary_entropy,
    emi_kde,
    per_feature_mi,
)
from .signal_model import (
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

__all__ = [
    # capacity
    "BoundValue", "CapacityResult", "check_fano_consistency", "fano_lower_bound",
    "fano_upper_bound", "user_capacity",
    # classifier
    "ClassificationReport", "LdaModel", "classify", "error_rate_experiment", "fit_lda",
    # config
    "ScenarioConfig", "load_config", "save_config", "scenario_from_dict",
    # fingerprint
    "FingerprintDataset", "PipelineConfig", "acquire", "build_dataset",
    "extract_spectral_feature", "load_dataset", "save_dataset",
    # harness
    "SweepResult", "SweepRow", "SweepSpec", "read_sweep_rows", "run_sweep",
    "sweep_to_csv", "sweep_to_json", "validate_bounds", "write_table",
    # infotheory
    "EmiEstimate", "MiReport", "binary_entropy", "emi_kde", "per_feature_mi",
    # signal_model
    "DeviceProfile", "ParamDist", "PopulationSpec", "adc_sample", "apply_awgn",
    "generate_preamble", "preamble_length", "quantization_error_bound", "sample_profiles",
]
