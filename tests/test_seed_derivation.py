"""build_dataset's batched seed derivation against NumPy's SeedSequence.

The reference is the per-capture loop build_dataset used to run: for capture
k of a device, SeedSequence(master_seed, spawn_key=(device_id, k, child)) for
child 0 (the lead-in draw) and child 1 (whose first generate_state(1,
np.uint64) word seeds the noise generator). The batched derivation must give
the same generator states, and so the same draws, bit for bit.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from rffcap.fingerprint import (
    PipelineConfig,
    _PresetState,
    _seeded_states,
    _spawned_states,
    build_dataset,
)
from rffcap.signal_model import DeviceProfile, PopulationSpec, _unit_noise, sample_profiles

MASTER_SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 9, 2**160 - 1,
                np.int64(7), True]
DEVICE_IDS = [0, 39, 2**32 - 1, 2**32 + 5]
PER_CLASS = 300


@pytest.fixture(autouse=True)
def warnings_as_errors():
    # uint32 overflow of a NumPy scalar warns; array arithmetic wraps silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def reference_states(master_seed, device_ids, per_class):
    """Per-capture SeedSequence states: (children, noise seeds, noise states)."""
    children = np.empty((len(device_ids), per_class, 2, 4), dtype=np.uint64)
    seeds = np.empty((len(device_ids), per_class), dtype=np.uint64)
    noise = np.empty((len(device_ids), per_class, 4), dtype=np.uint64)
    for d, dev in enumerate(device_ids):
        for k in range(per_class):
            for child in (0, 1):
                seq = np.random.SeedSequence(master_seed, spawn_key=(dev, k, child))
                children[d, k, child] = seq.generate_state(4, np.uint64)
            noise_seq = np.random.SeedSequence(master_seed, spawn_key=(dev, k, 1))
            noise_seed = int(noise_seq.generate_state(1, np.uint64)[0])
            seeds[d, k] = noise_seed
            noise[d, k] = np.random.SeedSequence(noise_seed).generate_state(4, np.uint64)
    return children, seeds, noise


@pytest.mark.parametrize("master_seed", MASTER_SEEDS, ids=repr)
def test_states_match_seed_sequence(master_seed):
    want_children, want_seeds, want_noise = reference_states(master_seed, DEVICE_IDS,
                                                             PER_CLASS)
    children = _spawned_states(master_seed, DEVICE_IDS, PER_CLASS)
    assert children.dtype == np.uint64 and children.flags.c_contiguous
    assert np.array_equal(children, want_children)
    assert np.array_equal(children[:, :, 1, 0], want_seeds)
    noise = _seeded_states(children[:, :, 1, 0])
    assert noise.flags.c_contiguous
    assert np.array_equal(noise, want_noise)


def test_sequence_master_seed_matches_seed_sequence():
    # SeedSequence also takes a sequence of ints as entropy
    for master_seed in ([3, 2**40], []):
        want, _, _ = reference_states(master_seed, [2, 5], 4)
        assert np.array_equal(_spawned_states(master_seed, [2, 5], 4), want)


def test_seeded_states_cover_one_and_two_word_seeds():
    seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1], dtype=np.uint64)
    want = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds]
    assert np.array_equal(_seeded_states(seeds), np.array(want))


def test_draws_match_seed_sequence():
    lead_lo, lead_hi, n = 16, 144, 37
    children = _spawned_states(1234, [0, 39], 20)
    noise = _seeded_states(children[:, :, 1, 0])
    for d, dev in enumerate([0, 39]):
        for k in range(20):
            pad_seq, noise_seq = (np.random.SeedSequence(1234, spawn_key=(dev, k, child))
                                  for child in (0, 1))
            want_lead = np.random.default_rng(pad_seq).integers(lead_lo, lead_hi + 1)
            noise_seed = int(noise_seq.generate_state(1, np.uint64)[0])
            want_noise = np.random.default_rng(noise_seed).standard_normal((2, n))
            rng = np.random.Generator(np.random.PCG64(_PresetState(children[d, k, 0])))
            assert rng.integers(lead_lo, lead_hi + 1) == want_lead
            got_noise = _unit_noise(_PresetState(noise[d, k]), np.empty((2, n)))
            assert np.array_equal(got_noise, want_noise)


def test_preset_state_reads_strided_rows_correctly():
    # PCG64 reads the state buffer directly: a row of a transposed array must
    # still hand it the row's words, not its neighbours in memory
    children = _spawned_states(5, [1, 2], 3)
    strided = np.ascontiguousarray(children.T).T
    assert not strided[0, 0, 0].flags.c_contiguous
    for d, dev in enumerate([1, 2]):
        for k in range(3):
            want = np.random.default_rng(
                np.random.SeedSequence(5, spawn_key=(dev, k, 0))).standard_normal(8)
            rng = np.random.Generator(np.random.PCG64(_PresetState(strided[d, k, 0])))
            assert np.array_equal(rng.standard_normal(8), want)


def test_preset_state_rejects_other_requests():
    state = _PresetState(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError):
        state.generate_state(2, np.uint64)
    with pytest.raises(ValueError):
        state.generate_state(4, np.uint32)


def small_build(master_seed=3, device_ids=(0, 1)):
    profiles = sample_profiles(PopulationSpec(), len(device_ids), seed=4)
    profiles = [replace(p, device_id=dev) for p, dev in zip(profiles, device_ids)]
    return build_dataset(profiles, 2, PipelineConfig(n_fft=64), master_seed=master_seed)


def test_negative_master_seed_raises_numpys_error():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        small_build(master_seed=-1)


def test_negative_device_id_rejected_at_construction():
    with pytest.raises(ValueError, match="device_id must be >= 0 and an integer: -3"):
        DeviceProfile(device_id=-3)
    with pytest.raises(ValueError, match="device_id must be >= 0 and an integer: -3"):
        small_build(device_ids=(0, -3))


def test_float_master_seed_raises_type_error():
    with pytest.raises(TypeError, match="expects int"):
        small_build(master_seed=1.5)
