"""build_dataset against the one-row receive chain, capture by capture.

Capture k of a device is rebuilt from the public one-row functions, in the
order of the receive chain: generate_preamble, the lead-in and tail padding,
apply_awgn with the capture's own noise seed and unit signal power, the
front-end backoff, adc_sample, acquire and extract_spectral_feature. The
batched build must give the same feature row bit for bit, and its meta
fractions must equal the means of the one-row clip fractions and fallback
flags. This keeps one implementation per stage checked without the frozen
golden file.

The batched build runs its rows in blocks that may span devices; the block
size must not change any bit of the features or the meta, and neither must
splitting the rows between two processes.
"""

import numpy as np
import pytest

from rffcap import fingerprint
from rffcap.fingerprint import (
    PipelineConfig,
    acquire,
    build_dataset,
    extract_spectral_feature,
)
from rffcap.signal_model import (
    PopulationSpec,
    adc_sample,
    apply_awgn,
    generate_preamble,
    sample_profiles,
)

# name -> (n_devices, per_class, profile seed, master seed, pipeline)
SCENARIOS = {
    "snr24": (3, 8, 11, 5, PipelineConfig(n_fft=64, snr_db=24.0, q_bits=10)),
    # most captures take the max-energy fallback and many samples clip
    "snr0_fallback": (3, 8, 12, 6, PipelineConfig(n_fft=128, snr_db=0.0)),
    # no noise, burst at sample 0
    "noiseless_lead0": (3, 6, 13, 7, PipelineConfig(n_fft=256, snr_db="noiseless",
                                                    lead_pad=(0, 0))),
    # more rows than one default block: blocks of 71, 71 and 8 rows that
    # start and end inside devices
    "snr20_default_blocks": (3, 50, 14, 9, PipelineConfig(n_fft=64, snr_db=20.0)),
}


def one_row_chain(profile, k, pipeline, master_seed):
    """Feature row, clip fraction and fallback flag of capture k of profile."""
    pad_seq, noise_seq = (np.random.SeedSequence(master_seed,
                                                 spawn_key=(profile.device_id, k, child))
                          for child in (0, 1))
    lead_lo, lead_hi = pipeline.lead_pad
    lead = np.random.default_rng(pad_seq).integers(lead_lo, lead_hi + 1)
    burst = generate_preamble(profile, pipeline.fs_hz, pipeline.n_symbols)
    padded = np.concatenate([np.zeros(lead, dtype=complex), burst,
                             np.zeros(pipeline.tail_pad, dtype=complex)])
    noise_seed = int(noise_seq.generate_state(1, np.uint64)[0])
    noisy = apply_awgn(padded, pipeline.effective_snr_db(), seed=noise_seed, signal_power=1.0)
    backoff = 10.0 ** (-pipeline.adc_backoff_db / 20.0)
    digitized, clip_fraction = adc_sample(noisy * backoff, pipeline.q_bits)
    burst, _, flagged = acquire(digitized, pipeline.window(), pipeline.threshold_factor)
    return extract_spectral_feature(burst, pipeline.n_fft), clip_fraction, flagged


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_build_dataset_equals_one_row_chain(name):
    n_devices, per_class, profile_seed, master_seed, pipeline = SCENARIOS[name]
    profiles = sample_profiles(PopulationSpec(), n_devices, seed=profile_seed)
    ds = build_dataset(profiles, per_class, pipeline, master_seed=master_seed)

    clips, flags = [], []
    for ci, profile in enumerate(sorted(profiles, key=lambda p: p.device_id)):
        for k in range(per_class):
            row = ci * per_class + k
            feature, clip, flagged = one_row_chain(profile, k, pipeline, master_seed)
            assert np.array_equal(ds.features[row], feature), (profile.device_id, k)
            assert ds.labels[row] == ci
            clips.append(clip)
            flags.append(flagged)
    assert ds.meta.clip_frac == float(np.mean(clips))
    assert ds.meta.onset_flagged_frac == float(np.mean(flags))
    if name == "snr0_fallback":
        assert np.mean(flags) > 0.5 and np.mean(clips) > 0.0


def build_in_blocks(monkeypatch, name, block_rows):
    """build_dataset of a scenario with blocks of block_rows rows: an int,
    "all" or "more" than the dataset's rows, or None for the default."""
    n_devices, per_class, profile_seed, master_seed, pipeline = SCENARIOS[name]
    if block_rows is not None:
        n_rows = n_devices * per_class
        rows = {"all": n_rows, "more": n_rows + 5}.get(block_rows, block_rows)
        width = pipeline.lead_pad[1] + pipeline.window() + pipeline.tail_pad
        monkeypatch.setattr(fingerprint, "_SYNTH_BLOCK_BYTES", rows * width * 16)
    profiles = sample_profiles(PopulationSpec(), n_devices, seed=profile_seed)
    return build_dataset(profiles, per_class, pipeline, master_seed=master_seed)


@pytest.mark.parametrize("block_rows", [7, None, "all", "more"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_block_size_changes_no_bit(monkeypatch, name, block_rows):
    # one-row blocks are the reference: every row goes through the chain alone
    with monkeypatch.context() as patch:
        want = build_in_blocks(patch, name, 1)
    got = build_in_blocks(monkeypatch, name, block_rows)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert got.meta.to_dict() == want.meta.to_dict()


@pytest.mark.parametrize("block_rows", [7, None])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_forked_build_equals_one_process(monkeypatch, forks, name, block_rows):
    # forking from two blocks up, 7-row blocks put the split at row 14 of
    # 24, 7 of 18 and 77 of 150, inside the second device each time; default
    # blocks fork only the 150-row scenario, at row 71, inside the second
    # device too
    monkeypatch.setattr(fingerprint, "_FORK_MIN_BLOCKS", 2)
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: False)
    with monkeypatch.context() as patch:
        want = build_in_blocks(patch, name, block_rows)
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: True)
    got = build_in_blocks(monkeypatch, name, block_rows)
    n_devices, per_class, _, _, pipeline = SCENARIOS[name]
    width = pipeline.lead_pad[1] + pipeline.window() + pipeline.tail_pad
    default_block = fingerprint._SYNTH_BLOCK_BYTES // (width * 16)
    assert len(forks) == (block_rows == 7 or n_devices * per_class >= 2 * default_block)
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(got.labels, want.labels)
    assert got.meta.to_dict() == want.meta.to_dict()
