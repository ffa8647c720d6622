"""Waveform synthesis, impairment chain, channel, ADC, and capture IO."""

import math
import struct

import numpy as np
import pytest

from rffcap.signal_model import (
    CHIP_RATE_HZ,
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
        assert cap.samples.shape == ref.shape
        assert np.max(np.abs(cap.samples - ref)) < 1e-9


def test_ideal_waveform_unit_power_and_energetic_start():
    cap = generate_preamble(DeviceProfile(device_id=3), 4e6, 8)
    assert abs(np.mean(np.abs(cap.samples) ** 2) - 1.0) < 1e-12
    assert abs(cap.samples[0]) > 0.1  # onset detection relies on this
    assert cap.true_id == 3
    assert cap.fs_hz == 4e6


def test_q_rail_silent_before_first_odd_chip():
    # Q is delayed one chip interval; samples earlier than tc carry no Q power
    cap = generate_preamble(DeviceProfile(device_id=0), 4e6, 1)
    assert np.all(cap.samples.imag[:2] == 0.0)
    assert np.any(cap.samples.imag[2:] != 0.0)


def test_generation_is_deterministic():
    p = DeviceProfile(device_id=1, cfo_hz=12e3, pa_alpha3=-0.1,
                      clock_jitter_ppm=30.0)
    a = generate_preamble(p, 4e6, 4)
    b = generate_preamble(p, 4e6, 4)
    assert np.array_equal(a.samples, b.samples)


def test_dc_offset_stage_is_exact_addition():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    shifted = generate_preamble(
        DeviceProfile(device_id=0, dc_offset=0.03 - 0.01j), 4e6, 2)
    assert np.allclose(shifted.samples, clean.samples + (0.03 - 0.01j),
                       rtol=0, atol=1e-15)


def test_gain_imbalance_scales_only_q_rail():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    g_db = 1.2
    out = generate_preamble(DeviceProfile(device_id=0, iq_gain_db=g_db), 4e6, 2)
    g = 10.0 ** (g_db / 20.0)
    assert np.allclose(out.samples.real, clean.samples.real, rtol=0, atol=1e-12)
    assert np.allclose(out.samples.imag, g * clean.samples.imag, rtol=0, atol=1e-12)


def test_pa_stage_matches_memoryless_cubic():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    a3 = -0.15
    out = generate_preamble(DeviceProfile(device_id=0, pa_alpha3=a3), 4e6, 2)
    expect = clean.samples * (1.0 + a3 * np.abs(clean.samples) ** 2)
    assert np.allclose(out.samples, expect, rtol=0, atol=1e-15)


def test_cfo_stage_is_exact_rotation():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    f = 50e3
    out = generate_preamble(DeviceProfile(device_id=0, cfo_hz=f), 4e6, 2)
    n = np.arange(clean.samples.size)
    expect = clean.samples * np.exp(2j * np.pi * f * n / 4e6)
    assert np.allclose(out.samples, expect, rtol=0, atol=1e-12)


def test_clock_skew_stage_matches_interp():
    clean = generate_preamble(DeviceProfile(device_id=0), 4e6, 2)
    ppm = 80.0
    out = generate_preamble(DeviceProfile(device_id=0, clock_jitter_ppm=ppm),
                            4e6, 2)
    n = clean.samples.size
    idx = np.arange(n) * (1.0 + ppm * 1e-6)
    grid = np.arange(n, dtype=float)
    expect = (np.interp(idx, grid, clean.samples.real)
              + 1j * np.interp(idx, grid, clean.samples.imag))
    assert np.allclose(out.samples, expect, rtol=0, atol=1e-15)
    assert not np.array_equal(out.samples, clean.samples)


def test_awgn_power_tracks_snr():
    """1e6-sample unit-power input at 20 dB: noise lands within +-0.2 dB."""
    n = 1_000_000
    t = np.arange(n)
    sig = np.exp(2j * np.pi * 0.01 * t)  # exactly unit power
    cap = IqCapture(sig, 4e6)
    out = apply_awgn(cap, ChannelConfig(snr_db=20.0, rng_seed=7))
    noise_power = np.mean(np.abs(out.samples - sig) ** 2)
    assert 10 ** (-0.02) <= noise_power / 1e-2 <= 10 ** 0.02


def test_awgn_determinism_and_seed_sensitivity():
    cap = IqCapture(np.ones(256, dtype=complex), 4e6)
    a = apply_awgn(cap, ChannelConfig(snr_db=10.0, rng_seed=5))
    b = apply_awgn(cap, ChannelConfig(snr_db=10.0, rng_seed=5))
    c = apply_awgn(cap, ChannelConfig(snr_db=10.0, rng_seed=6))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_awgn_noiseless_sentinel_is_identity():
    rng = np.random.default_rng(0)
    cap = IqCapture(rng.normal(size=128) + 1j * rng.normal(size=128), 4e6, true_id=9)
    out = apply_awgn(cap, ChannelConfig(snr_db="noiseless"))
    assert np.array_equal(out.samples, cap.samples)
    assert out.samples is not cap.samples
    assert out.true_id == 9


def test_awgn_signal_power_override_decouples_noise_from_amplitude():
    """Noise level must follow the stated reference, not the capture power."""
    rng = np.random.default_rng(2)
    base = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    loud = IqCapture(10.0 * base, 4e6)
    out = apply_awgn(loud, ChannelConfig(snr_db=20.0, rng_seed=3), signal_power=1.0)
    noise_power = np.mean(np.abs(out.samples - loud.samples) ** 2)
    assert 0.8e-2 < noise_power < 1.25e-2


def test_quantizer_explicit_small_case():
    # 4 bits over 2 Vpp: step 0.125
    adc = AdcConfig(q_bits=4, full_scale_vpp=2.0)
    cap = IqCapture(np.array([0.1 + 0.3j, -0.26 + 0.9999j]), 4e6)
    out = adc_sample(cap, adc)
    assert np.allclose(out.samples.real, [0.125, -0.25], rtol=0, atol=1e-15)
    assert np.allclose(out.samples.imag, [0.25, 1.0], rtol=0, atol=1e-15)
    assert out.diagnostics["clip_fraction"] == 0.0


@pytest.mark.parametrize("q_bits", [8, 14])
def test_quantizer_error_within_half_step(q_bits):
    rng = np.random.default_rng(100 + q_bits)
    adc = AdcConfig(q_bits=q_bits, full_scale_vpp=2.0)
    x = rng.uniform(-1.0, 1.0, size=20_000) + 1j * rng.uniform(-1.0, 1.0, size=20_000)
    out = adc_sample(IqCapture(x, 4e6), adc)
    err = np.maximum(np.abs(out.samples.real - x.real),
                     np.abs(out.samples.imag - x.imag))
    half_step = 2.0 / 2 ** q_bits / 2.0
    assert err.max() <= half_step + 1e-15
    assert err.max() <= quantization_error_bound(adc)
    assert out.diagnostics["clip_fraction"] == 0.0


def test_quantizer_idempotent_and_clipping():
    adc = AdcConfig(q_bits=6, full_scale_vpp=2.0)
    rng = np.random.default_rng(11)
    x = rng.normal(scale=1.2, size=2000) + 1j * rng.normal(scale=1.2, size=2000)
    once = adc_sample(IqCapture(x, 4e6), adc)
    twice = adc_sample(once, adc)
    assert np.array_equal(once.samples, twice.samples)
    assert once.diagnostics["clip_fraction"] > 0.0
    assert np.abs(once.samples.real).max() <= 1.0
    assert np.abs(once.samples.imag).max() <= 1.0
    # rails land exactly on the clip level
    hot = adc_sample(IqCapture(np.array([5.0 - 5.0j]), 4e6), adc)
    assert hot.samples[0] == 1.0 - 1.0j
    assert hot.diagnostics["clip_fraction"] == 1.0


def test_quantization_error_bound_values():
    assert quantization_error_bound(AdcConfig(q_bits=8, full_scale_vpp=2.0)) == 2.0 ** -7
    assert quantization_error_bound(AdcConfig(q_bits=14, full_scale_vpp=2.0)) == 2.0 ** -13


def test_capture_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    s = rng.normal(size=300) + 1j * rng.normal(size=300)
    cap = IqCapture(s, fs_hz=5e6, true_id=17)
    path = tmp_path / "one.rfiq"
    save_capture(cap, path)
    back = load_capture(path)
    assert back.fs_hz == 5e6
    assert back.true_id == 17
    # storage is float32 interleaved
    assert np.array_equal(back.samples.real, s.real.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.samples.imag, s.imag.astype(np.float32).astype(np.float64))


def test_capture_roundtrip_anonymous(tmp_path):
    cap = IqCapture(np.array([1 + 1j, 2 - 2j]), 2e6)
    path = tmp_path / "anon.rfiq"
    save_capture(cap, path)
    assert load_capture(path).true_id is None


def test_capture_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.rfiq"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_capture(bad)
    short = tmp_path / "short.rfiq"
    short.write_bytes(b"RF")
    with pytest.raises(ValueError):
        load_capture(short)


def test_capture_load_rejects_partial_iq_pair(tmp_path):
    path = tmp_path / "odd.rfiq"
    save_capture(IqCapture(np.array([1 + 1j, 2 - 2j]), 2e6), path)
    raw = path.read_bytes()
    # 3 extra bytes: not a whole float32; 4: a lone I value without its Q
    for extra in (b"\x00" * 3, b"\x00" * 4):
        path.write_bytes(raw + extra)
        with pytest.raises(ValueError, match="odd.rfiq"):
            load_capture(path)


def test_capture_load_rejects_non_finite_rate(tmp_path):
    path = tmp_path / "nan_rate.rfiq"
    save_capture(IqCapture(np.array([1 + 1j, 2 - 2j]), 2e6), path)
    raw = bytearray(path.read_bytes())
    raw[4:12] = struct.pack("<d", float("nan"))  # fs_hz follows the magic
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="fs_hz"):
        load_capture(path)


def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(device_id=0, cfo_hz=250e3)
    with pytest.raises(ValueError):
        DeviceProfile(device_id=0, iq_gain_db=3.5)
    with pytest.raises(ValueError):
        DeviceProfile(device_id=0, pa_alpha3=1.0)


def test_adc_and_channel_validation():
    with pytest.raises(ValueError):
        AdcConfig(q_bits=3)
    with pytest.raises(ValueError):
        AdcConfig(q_bits=25)
    with pytest.raises(ValueError):
        AdcConfig(q_bits=8, full_scale_vpp=0.0)
    with pytest.raises(ValueError):
        AdcConfig(q_bits=8, fs_hz=1e6)
    with pytest.raises(ValueError):
        ChannelConfig(snr_db="quiet")
    with pytest.raises(ValueError):
        ChannelConfig(snr_db=float("inf"))


def test_capture_validation():
    with pytest.raises(ValueError):
        IqCapture(np.array([]), 4e6)
    with pytest.raises(ValueError):
        IqCapture(np.zeros((2, 2)), 4e6)
    with pytest.raises(ValueError):
        IqCapture(np.array([np.nan + 0j]), 4e6)
    with pytest.raises(ValueError):
        IqCapture(np.array([1 + 1j]), 0.0)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="fs_hz"):
            IqCapture(np.array([1 + 1j]), rate)


def test_generate_preamble_validation():
    with pytest.raises(ValueError):
        generate_preamble(DeviceProfile(device_id=0), 1e6)
    with pytest.raises(ValueError):
        generate_preamble(DeviceProfile(device_id=0), 4e6, 0)


def test_sample_profiles_deterministic_and_in_range():
    spec = PopulationSpec(cfo_hz=ParamDist(0.0, 500e3))  # huge spread forces clipping
    a = sample_profiles(spec, 8, seed=5)
    b = sample_profiles(spec, 8, seed=5)
    assert [p.cfo_hz for p in a] == [p.cfo_hz for p in b]
    assert [p.device_id for p in a] == list(range(8))
    assert all(abs(p.cfo_hz) <= 200e3 for p in a)
    with pytest.raises(ValueError):
        sample_profiles(spec, 0)
    with pytest.raises(ValueError):
        ParamDist(0.0, -1.0)
