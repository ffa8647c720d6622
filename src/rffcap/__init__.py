"""RF-fingerprint simulation, identity-information estimation, and user capacity."""

__version__ = "0.1.0"

from .capacity import (
    BoundValue,
    CapacityResult,
    capacity_curve,
    capacity_table_to_csv,
    check_fano_consistency,
    fano_lower_bound,
    fano_upper_bound,
    user_capacity,
)
from .classifier import (
    ClassificationReport,
    LdaModel,
    classification_report_to_csv,
    classify,
    error_rate_experiment,
    fit_lda,
)
from .config import ScenarioConfig, load_config, save_config, scenario_from_dict
from .fingerprint import (
    FeatureVector,
    FingerprintDataset,
    PipelineConfig,
    acquire,
    build_dataset,
    dataset_to_csv,
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
)
from .infotheory import (
    EmiEstimate,
    MiReport,
    binary_entropy,
    emi_kde,
    entropy_discrete,
    mi_report_to_csv,
    per_feature_mi,
)
from .signal_model import (
    AdcConfig,
    ChannelConfig,
    DeviceProfile,
    IqCapture,
    ParamDist,
    PopulationSpec,
    adc_sample,
    apply_awgn,
    generate_preamble,
    load_capture,
    preamble_length,
    quantization_error_bound,
    sample_profiles,
    save_capture,
)

__all__ = [
    # capacity
    "BoundValue", "CapacityResult", "capacity_curve", "capacity_table_to_csv",
    "check_fano_consistency", "fano_lower_bound", "fano_upper_bound", "user_capacity",
    # classifier
    "ClassificationReport", "LdaModel", "classification_report_to_csv", "classify",
    "error_rate_experiment", "fit_lda",
    # config
    "ScenarioConfig", "load_config", "save_config", "scenario_from_dict",
    # fingerprint
    "FeatureVector", "FingerprintDataset", "PipelineConfig", "acquire", "build_dataset",
    "dataset_to_csv", "extract_spectral_feature", "load_dataset", "save_dataset",
    # harness
    "SweepResult", "SweepRow", "SweepSpec", "read_sweep_rows", "run_sweep",
    "sweep_to_csv", "sweep_to_json", "validate_bounds",
    # infotheory
    "EmiEstimate", "MiReport", "binary_entropy", "emi_kde", "entropy_discrete",
    "mi_report_to_csv", "per_feature_mi",
    # signal_model
    "AdcConfig", "ChannelConfig", "DeviceProfile", "IqCapture", "ParamDist",
    "PopulationSpec", "adc_sample", "apply_awgn", "generate_preamble", "load_capture",
    "preamble_length", "quantization_error_bound", "sample_profiles", "save_capture",
]
