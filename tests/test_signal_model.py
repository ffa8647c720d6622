"""Waveform synthesis, impairment chain, channel and ADC."""

import math

import numpy as np
import pytest

from rffcap.fingerprint import acquire, extract_spectral_feature
from rffcap.signal_model import (
    CHIP_RATE_HZ,
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

SYMBOL0 = "11011001110000110101001000101110"


def oracle_oqpsk(fs_hz, n_symbols):
    """Scalar reference synthesis of the ideal sync waveform.

    Deliberately structured differently from the library (explicit pulse
    search per sample instead of vectorized index arithmetic).
    """
    chips = [1.0 if c == "1" else -1.0 for c in SYMBOL0] * n_symbols
    tc = 1.0 / CHIP_RATE_HZ
    n = int(round(len(chips) * fs_hz / CHIP_RATE_HZ))
    out = np.zeros(n, dtype=complex)
    for idx in range(n):
        t = (idx + 0.5) / fs_hz
        i_val = 0.0
        q_val = 0.0
        # even chips drive I; chip k's half-sine occupies [k*tc, (k+2)*tc)
        for k in range(0, len(chips), 2):
            if k * tc <= t < (k + 2) * tc:
                i_val = chips[k] * math.sin(math.pi * (t - k * tc) / (2 * tc))
                break
        # odd chips drive Q, delayed by one chip interval
        for k in range(1, len(chips), 2):
            if k * tc <= t < (k + 2) * tc:
                q_val = chips[k] * math.sin(math.pi * (t - k * tc) / (2 * tc))
                break
        out[idx] = i_val + 1j * q_val
    return out / np.sqrt(np.mean(np.abs(out) ** 2))


def test_preamble_length_examples():
    assert preamble_length(4e6, 8) == 512
    assert preamble_length(2e6, 1) == 32
    assert preamble_length(10e6, 8) == 1280


def test_ideal_waveform_matches_scalar_oracle():
    for fs, n_sym in ((2e6, 1), (4e6, 2), (5e6, 1)):
        cap = generate_preamble(DeviceProfile(device_id=0), fs, n_sym)
        ref = oracle_oqpsk(fs, n_sym)
        assert cap.shape == ref.shape
        assert np.max(np.abs(cap - ref)) < 1e-9


def test_ideal_waveform_unit_power_and_energetic_start():
    cap = generate_preamble(DeviceProfile(device_id=3), 4e6, 8)
    assert abs(np.mean(np.abs(cap) ** 2) - 1.0) < 1e-12
    assert abs(cap[0]) > 0.1  # onset detection relies on this
    # a new writable array, not the cached ideal waveform
    assert type(cap) is np.ndarray and cap.dtype == np.complex128 and cap.flags.writeable
    assert cap.shape == (preamble_length(4e6, 8),)


def test_q_rail_silent_before_first_odd_chip():
    # Q is delayed one chip interval; samples earlier than tc carry no Q power
    cap = generate_preamble(DeviceProfile(device_id=0), 4e6, 1)
    assert np.all(cap.imag[:2] == 0.0)
    assert np.any(cap.imag[2:] != 0.0)


def test_generation_is_deterministic():
    p = DeviceProfile(device_id=1, cfo_hz=12e3, pa_alpha3=-0.1,
                      clock_jitter_ppm=30.0)
    a = generate_preamble(p, 4e6, 4)
    b = generate_preamble(p, 4e6, 4)
    assert np.array_equal(a, b)


def test_dc_offset_stage_is_exact_addition():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    shifted = generate_preamble(
        DeviceProfile(device_id=0, dc_offset=0.03 - 0.01j), 4e6, 2)
    assert np.allclose(shifted, clean + (0.03 - 0.01j),
                       rtol=0, atol=1e-15)


def test_gain_imbalance_scales_only_q_rail():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    g_db = 1.2
    out = generate_preamble(DeviceProfile(device_id=0, iq_gain_db=g_db), 4e6, 2)
    g = 10.0 ** (g_db / 20.0)
    assert np.allclose(out.real, clean.real, rtol=0, atol=1e-12)
    assert np.allclose(out.imag, g * clean.imag, rtol=0, atol=1e-12)


def test_pa_stage_matches_memoryless_cubic():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    a3 = -0.15
    out = generate_preamble(DeviceProfile(device_id=0, pa_alpha3=a3), 4e6, 2)
    expect = clean * (1.0 + a3 * np.abs(clean) ** 2)
    assert np.allclose(out, expect, rtol=0, atol=1e-15)


def test_cfo_stage_is_exact_rotation():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    f = 50e3
    out = generate_preamble(DeviceProfile(device_id=0, cfo_hz=f), 4e6, 2)
    n = np.arange(clean.size)
    expect = clean * np.exp(2j * np.pi * f * n / 4e6)
    assert np.allclose(out, expect, rtol=0, atol=1e-12)


def test_clock_skew_stage_matches_interp():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    ppm = 80.0
    out = generate_preamble(DeviceProfile(device_id=0, clock_jitter_ppm=ppm),
                            4e6, 2)
    n = clean.size
    idx = np.arange(n) * (1.0 + ppm * 1e-6)
    grid = np.arange(n, dtype=float)
    expect = (np.interp(idx, grid, clean.real)
              + 1j * np.interp(idx, grid, clean.imag))
    assert np.allclose(out, expect, rtol=0, atol=1e-15)
    assert not np.array_equal(out, clean)


def test_awgn_power_tracks_snr():
    """1e6-sample unit-power input at 20 dB: noise lands within +-0.2 dB."""
    n = 1_000_000
    t = np.arange(n)
    sig = np.exp(2j * np.pi * 0.01 * t)  # exactly unit power
    out = apply_awgn(sig, 20.0, seed=7)
    noise_power = np.mean(np.abs(out - sig) ** 2)
    assert 10 ** (-0.02) <= noise_power / 1e-2 <= 10 ** 0.02


def test_awgn_determinism_and_seed_sensitivity():
    x = np.ones(256, dtype=complex)
    a = apply_awgn(x, 10.0, seed=5)
    b = apply_awgn(x, 10.0, seed=5)
    c = apply_awgn(x, 10.0, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_awgn_noiseless_sentinel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    out = apply_awgn(x, "noiseless")
    assert np.array_equal(out, x)
    assert out is not x


def test_awgn_signal_power_override_decouples_noise_from_amplitude():
    """Noise level must follow the stated reference, not the capture power."""
    rng = np.random.default_rng(2)
    base = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    loud = 10.0 * base
    out = apply_awgn(loud, 20.0, seed=3, signal_power=1.0)
    noise_power = np.mean(np.abs(out - loud) ** 2)
    assert 0.8e-2 < noise_power < 1.25e-2


def test_quantizer_explicit_small_case():
    # 4 bits over the +/-1 full scale: step 0.125
    out, clip_fraction = adc_sample(np.array([0.1 + 0.3j, -0.26 + 0.9999j]), 4)
    assert np.allclose(out.real, [0.125, -0.25], rtol=0, atol=1e-15)
    assert np.allclose(out.imag, [0.25, 1.0], rtol=0, atol=1e-15)
    assert clip_fraction == 0.0


@pytest.mark.parametrize("q_bits", [8, 14])
def test_quantizer_error_within_half_step(q_bits):
    rng = np.random.default_rng(100 + q_bits)
    x = rng.uniform(-1.0, 1.0, size=20_000) + 1j * rng.uniform(-1.0, 1.0, size=20_000)
    out, clip_fraction = adc_sample(x, q_bits)
    err = np.maximum(np.abs(out.real - x.real),
                     np.abs(out.imag - x.imag))
    half_step = 2.0 / 2 ** q_bits / 2.0
    assert err.max() <= half_step + 1e-15
    assert err.max() <= quantization_error_bound(q_bits)
    assert clip_fraction == 0.0


def test_quantizer_idempotent_and_clipping():
    rng = np.random.default_rng(11)
    x = rng.normal(scale=1.2, size=2000) + 1j * rng.normal(scale=1.2, size=2000)
    once, once_clipped = adc_sample(x, 6)
    twice, _ = adc_sample(once, 6)
    assert np.array_equal(once, twice)
    assert once_clipped > 0.0
    assert np.abs(once.real).max() <= 1.0
    assert np.abs(once.imag).max() <= 1.0
    # rails land exactly on the clip level
    hot, hot_clipped = adc_sample(np.array([5.0 - 5.0j]), 6)
    assert hot[0] == 1.0 - 1.0j
    assert hot_clipped == 1.0
    # a sample clips when either rail passes full scale; one on it does not
    _, one_rail_clipped = adc_sample(np.array([5.0 + 0.2j, 0.2 - 5.0j, 1.0 - 1.0j, 0.5j]), 6)
    assert one_rail_clipped == 0.5


def test_quantization_error_bound_values():
    assert quantization_error_bound(8) == 2.0 ** -7
    assert quantization_error_bound(14) == 2.0 ** -13


def test_capture_validation():
    """Every one-row function rejects empty, 2-D and non-finite samples."""
    for samples in (np.array([]), np.zeros((2, 2)), np.array([np.nan + 0j]),
                    np.array([1 + 1j, complex(0.0, np.inf)])):
        for call in (lambda: apply_awgn(samples, 20.0), lambda: apply_awgn(samples, "noiseless"),
                     lambda: adc_sample(samples, 8), lambda: acquire(samples, 1),
                     lambda: extract_spectral_feature(samples, 64)):
            with pytest.raises(ValueError, match="^samples must be a non-empty, finite 1-D array$"):
                call()


def test_generate_preamble_validation():
    # the ideal waveform cached for (4e6, 1) is the cache's entry for (4e6,
    # True) too; the checks run before the cache is read
    generate_preamble(DeviceProfile(device_id=0), 4e6, 1)
    for n_symbols in (2.5, True):
        with pytest.raises(ValueError, match=rf"^n_symbols must be >= 1 and an integer: {n_symbols}$"):
            generate_preamble(DeviceProfile(device_id=0), 4e6, n_symbols)


def test_sample_profiles_deterministic_and_in_range():
    spec = PopulationSpec(cfo_hz=ParamDist(0.0, 500e3))  # huge spread forces clipping
    a = sample_profiles(spec, 8, seed=5)
    b = sample_profiles(spec, 8, seed=5)
    assert [p.cfo_hz for p in a] == [p.cfo_hz for p in b]
    assert [p.device_id for p in a] == list(range(8))
    assert all(abs(p.cfo_hz) <= 200e3 for p in a)
    with pytest.raises(ValueError, match="^n_devices must be >= 1 and an integer: 0$"):
        sample_profiles(spec, 0)
    # True drew one profile; a fraction raised NumPy's TypeError
    for n_devices in (2.5, True):
        with pytest.raises(ValueError, match=rf"^n_devices must be >= 1 and an integer: {n_devices}$"):
            sample_profiles(spec, n_devices)
