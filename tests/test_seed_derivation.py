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

from rffcap.classifier import ClassifierConfig, error_rate_experiment
from rffcap.fingerprint import (
    PipelineConfig,
    _PresetState,
    _lead_ins,
    _seeded_states,
    _spawned_states,
    build_dataset,
)
from rffcap.signal_model import (
    MAX_CAPTURE_SAMPLES,
    DeviceProfile,
    PopulationSpec,
    _unit_noise,
    apply_awgn,
    sample_profiles,
)

MASTER_SEEDS = [0, 1, 1234, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 9, 2**160 - 1,
                np.int64(7)]
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


def numpy_leads(states, low, high):
    """The per-capture lead-in draw _lead_ins replaces."""
    return [np.random.default_rng(_PresetState(s)).integers(low, high + 1) for s in states]


# (3, MAX_CAPTURE_SAMPLES) is about lead_pad's widest range: a limit of 2**32
# or more would pass _lead_ins a range it cannot draw
@pytest.mark.parametrize("low, high", [(0, 0), (0, 1), (16, 144), (3, MAX_CAPTURE_SAMPLES)])
def test_lead_ins_match_generator_integers(low, high):
    states = np.random.default_rng(low + high).integers(0, 2**64, (10_000, 4),
                                                        dtype=np.uint64, endpoint=False)
    leads = _lead_ins(states, low, high)
    assert leads.dtype == np.int64
    assert leads.tolist() == numpy_leads(states, low, high)


# PCG64's 128-bit LCG multiplier
PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def state_drawing(first_output, inc_words):
    """The (4,) seed state whose generator's first 64-bit output is first_output,
    found by running PCG64's seeding backwards from the state that yields it."""
    mask64, mask128 = 2**64 - 1, 2**128 - 1
    rot = 37  # any rotation: the state's top six bits
    hi = rot << 58 | 0x1234567
    rotl = (first_output << rot | first_output >> (64 - rot)) & mask64
    state = hi << 64 | (hi ^ rotl)  # XSL-RR: rotr(hi ^ lo, hi >> 58) = first_output
    inc = (inc_words[0] << 64 | inc_words[1]) << 1 & mask128 | 1
    inverse = pow(PCG_MULT, -1, 2**128)
    for _ in range(2):  # the draw's step and the last seeding step
        state = (state - inc) * inverse & mask128
    seed = (state - inc) & mask128  # the first step from 0 gives inc
    return np.array([seed >> 64, seed & mask64, *inc_words], dtype=np.uint64)


@pytest.mark.parametrize("low, high", [(16, 144), (3, 2**20)])
def test_lead_ins_match_generator_integers_in_the_rejection_zone(low, high):
    """First draws whose low product word falls below the range; NumPy redraws
    those below its threshold, and _lead_ins must hand every one to NumPy."""
    span = high - low + 1
    threshold = (2**32 - span) % span
    # x * span - j * 2**32 lies in [0, span) for x = ceil(j * 2**32 / span)
    draws = [-(-j * 2**32 // span) for j in range(40)]
    leftovers = [x * span % 2**32 for x in draws]
    assert all(left < span for left in leftovers)
    assert any(left < threshold for left in leftovers)  # NumPy redraws these
    states = np.array([state_drawing(0xABCD0000_00000000 | x, (j, 2**64 - 1 - j))
                       for j, x in enumerate(draws)])
    for state, x in zip(states, draws):
        generator = np.random.Generator(np.random.PCG64(_PresetState(state)))
        assert int(generator.bit_generator.random_raw()) & 0xFFFFFFFF == x
    assert _lead_ins(states, low, high).tolist() == numpy_leads(states, low, high)


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


def test_negative_device_id_rejected_at_construction():
    with pytest.raises(ValueError, match="device_id must be >= 0 and an integer: -3"):
        DeviceProfile(device_id=-3)
    with pytest.raises(ValueError, match="device_id must be >= 0 and an integer: -3"):
        small_build(device_ids=(0, -3))


# each seed the library takes, by name, and a call that takes it
SEEDED_CALLS = {
    "sample_profiles": ("seed", lambda s: sample_profiles(PopulationSpec(), 2, seed=s)),
    "apply_awgn": ("seed", lambda s: apply_awgn(np.ones(8, dtype=complex), 20.0, seed=s)),
    "build_dataset": ("master_seed", lambda s: small_build(master_seed=s)),
    "error_rate_experiment": ("master_seed", lambda s: error_rate_experiment(
        sample_profiles(PopulationSpec(), 3, seed=4), 3, PipelineConfig(n_fft=64),
        ClassifierConfig(train_per_class=2, test_per_class=2), master_seed=s)),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "7"], ids=repr)
@pytest.mark.parametrize("call", SEEDED_CALLS)
def test_every_seed_must_be_a_non_negative_integer(call, seed):
    # None drew OS entropy in the first two and ended build_dataset in a
    # TypeError, 1.5 raised NumPy's TypeError, and True was taken as 1
    name, run = SEEDED_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be >= 0 and an integer: {seed!r}$"):
        run(seed)
