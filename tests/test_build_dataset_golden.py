"""build_dataset against features frozen from the per-capture reference loop.

`tests/data/build_dataset_golden.npz` holds float64 features and labels that
the original implementation (one capture at a time through apply_awgn,
adc_sample, acquire and scipy.signal.welch) produced for the scenarios below.
The batched pipeline must reproduce the labels exactly and every feature
within GOLDEN_TOL_DB; the remaining differences are FFT rounding in
low-power bins.
"""

from pathlib import Path

import numpy as np
import pytest

from rffcap.fingerprint import PipelineConfig, build_dataset
from rffcap.signal_model import PopulationSpec, sample_profiles

GOLDEN_PATH = Path(__file__).parent / "data" / "build_dataset_golden.npz"
GOLDEN_TOL_DB = 1e-9

# name -> (n_devices, per_class, profile seed, master seed, pipeline)
SCENARIOS = {
    # clean acquisition, smallest FFT, reduced ADC resolution
    "snr24_nfft64": (3, 8, 11, 5, PipelineConfig(n_fft=64, snr_db=24.0, q_bits=10)),
    # burst-to-noise ratio below threshold_factor: most captures take the
    # max-energy fallback and many samples clip
    "snr0_fallback": (3, 8, 12, 6, PipelineConfig(n_fft=128, snr_db=0.0)),
    # no noise, chip-rate sampling, burst starts at sample 0
    "noiseless_2mhz": (4, 8, 13, 7, PipelineConfig(n_fft=256, snr_db="noiseless",
                                                   fs_hz=2e6, lead_pad=(0, 0))),
    # acquired window (64 samples) shorter than n_fft: zero-padded Welch
    "one_symbol_zero_pad": (3, 8, 14, 8, PipelineConfig(n_fft=128, n_symbols=1,
                                                        snr_db=18.0)),
}


def build_scenario(name):
    n_devices, per_class, profile_seed, master_seed, pipeline = SCENARIOS[name]
    profiles = sample_profiles(PopulationSpec(), n_devices, seed=profile_seed)
    return build_dataset(profiles, per_class, pipeline, master_seed=master_seed)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_build_dataset_matches_golden(golden, name):
    ds = build_scenario(name)
    assert np.array_equal(ds.labels, golden[f"{name}.labels"])
    want = golden[f"{name}.features"]
    assert want.dtype == np.float64
    assert ds.features.shape == want.shape
    assert np.max(np.abs(ds.features - want)) <= GOLDEN_TOL_DB
