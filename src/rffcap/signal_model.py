"""Transmitter hardware modeling and receiver front-end simulation.

Synthesizes 802.15.4-style half-sine O-QPSK preamble waveforms, imprints a
per-device chain of hardware impairments (DC offset, I/Q imbalance, odd-order
PA nonlinearity, carrier frequency offset, sampling-clock skew), and models
the receive side as an AWGN channel followed by a clipping mid-tread ADC.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

CHIP_RATE_HZ = 2.0e6
CHIPS_PER_SYMBOL = 32

# 32-chip spreading sequence of the all-zero data symbol; the sync header is
# this sequence repeated once per symbol.
_SYMBOL0_CHIPS = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0], dtype=np.int8)

_CAPTURE_MAGIC = b"RFIQ"


@dataclass(frozen=True)
class DeviceProfile:
    """Impairment parameter set that defines one transmitter identity.

    Parameters
    ----------
    device_id : int
        Integer identity label carried through captures and datasets.
    cfo_hz : float
        Carrier frequency offset, |cfo_hz| <= 200 kHz.
    iq_gain_db : float
        I/Q amplitude imbalance in dB, within [-3, 3].
    iq_phase_deg : float
        I/Q phase imbalance in degrees.
    clock_jitter_ppm : float
        Sampling-clock rate deviation in parts per million. Modeled as a
        deterministic skew; the cumulative timing offset is realized by
        linear-interpolation resampling.
    pa_alpha3 : float
        Third-order memoryless amplifier coefficient, |pa_alpha3| < 1
        (weakly nonlinear regime). Output is s * (1 + pa_alpha3 * |s|^2).
    dc_offset : complex
        Additive complex DC offset at the transmitter.
    """

    device_id: int
    cfo_hz: float = 0.0
    iq_gain_db: float = 0.0
    iq_phase_deg: float = 0.0
    clock_jitter_ppm: float = 0.0
    pa_alpha3: float = 0.0
    dc_offset: complex = 0j

    def __post_init__(self):
        if abs(self.cfo_hz) > 200e3:
            raise ValueError(f"cfo_hz out of range [-200e3, 200e3]: {self.cfo_hz}")
        if not -3.0 <= self.iq_gain_db <= 3.0:
            raise ValueError(f"iq_gain_db out of range [-3, 3]: {self.iq_gain_db}")
        if abs(self.pa_alpha3) >= 1.0:
            raise ValueError(f"pa_alpha3 must satisfy |a3| < 1: {self.pa_alpha3}")


@dataclass(frozen=True)
class AdcConfig:
    """Uniform clipping quantizer settings.

    q_bits resolution over a full-scale span of full_scale_vpp volts
    (each rail clips to +/- full_scale_vpp / 2); fs_hz is the configured
    acquisition rate.
    """

    q_bits: int
    full_scale_vpp: float = 2.0
    fs_hz: float = 4.0e6

    def __post_init__(self):
        if not (isinstance(self.q_bits, (int, np.integer)) and 4 <= self.q_bits <= 24):
            raise ValueError(f"q_bits must be an integer in [4, 24]: {self.q_bits}")
        if self.full_scale_vpp <= 0:
            raise ValueError("full_scale_vpp must be positive")
        if self.fs_hz < 2.0e6:
            raise ValueError(f"fs_hz must be >= 2e6: {self.fs_hz}")


NOISELESS = "noiseless"


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel: either a finite snr_db or the sentinel "noiseless"."""

    snr_db: float | str = 20.0
    rng_seed: int = 0

    def __post_init__(self):
        if isinstance(self.snr_db, str):
            if self.snr_db != NOISELESS:
                raise ValueError(f"snr_db must be a finite float or '{NOISELESS}'")
        elif not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite: {self.snr_db}")

    @property
    def is_noiseless(self) -> bool:
        return isinstance(self.snr_db, str)


@dataclass
class IqCapture:
    """A complex baseband record with its sampling rate and optional identity."""

    samples: np.ndarray
    fs_hz: float
    true_id: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples.real)) or not np.all(np.isfinite(self.samples.imag)):
            raise ValueError("samples must be finite")
        if not np.isfinite(self.fs_hz) or self.fs_hz <= 0:
            raise ValueError(f"fs_hz must be positive and finite: {self.fs_hz}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ParamDist:
    """Normal distribution (mean, std) for one impairment parameter."""

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be non-negative")


@dataclass(frozen=True)
class PopulationSpec:
    """Per-parameter normal distributions from which device profiles are drawn.

    Draws are clipped into each parameter's valid range so that every sampled
    profile passes DeviceProfile validation.
    """

    cfo_hz: ParamDist = ParamDist(0.0, 20e3)
    iq_gain_db: ParamDist = ParamDist(0.0, 0.4)
    iq_phase_deg: ParamDist = ParamDist(0.0, 3.0)
    clock_jitter_ppm: ParamDist = ParamDist(0.0, 20.0)
    pa_alpha3: ParamDist = ParamDist(-0.08, 0.05)
    dc_offset_re: ParamDist = ParamDist(0.0, 0.02)
    dc_offset_im: ParamDist = ParamDist(0.0, 0.02)


def sample_profiles(spec: PopulationSpec, n_devices: int, seed=0) -> list[DeviceProfile]:
    """Draw n_devices profiles from the population, deterministically per seed."""
    if n_devices < 1:
        raise ValueError("n_devices must be >= 1")
    rng = np.random.default_rng(seed)

    def draw(dist: ParamDist, lo, hi):
        return np.clip(rng.normal(dist.mean, dist.std, size=n_devices), lo, hi)

    cfo = draw(spec.cfo_hz, -200e3, 200e3)
    gain = draw(spec.iq_gain_db, -3.0, 3.0)
    phase = draw(spec.iq_phase_deg, -45.0, 45.0)
    jitter = draw(spec.clock_jitter_ppm, -1000.0, 1000.0)
    alpha3 = draw(spec.pa_alpha3, -0.9, 0.9)
    dc_re = draw(spec.dc_offset_re, -0.5, 0.5)
    dc_im = draw(spec.dc_offset_im, -0.5, 0.5)
    return [
        DeviceProfile(
            device_id=i,
            cfo_hz=float(cfo[i]),
            iq_gain_db=float(gain[i]),
            iq_phase_deg=float(phase[i]),
            clock_jitter_ppm=float(jitter[i]),
            pa_alpha3=float(alpha3[i]),
            dc_offset=complex(dc_re[i], dc_im[i]),
        )
        for i in range(n_devices)
    ]


def preamble_length(fs_hz: float, n_symbols: int) -> int:
    """Number of samples produced for an n_symbols preamble at fs_hz."""
    n_chips = n_symbols * CHIPS_PER_SYMBOL
    return int(round(n_chips * fs_hz / CHIP_RATE_HZ))


def _oqpsk_baseband(fs_hz: float, n_symbols: int) -> np.ndarray:
    """Ideal unit-power half-sine O-QPSK sync waveform.

    Even-indexed chips shape the I rail, odd-indexed chips the Q rail; each
    chip is a half-sine pulse spanning two chip intervals, so the Q rail is
    offset by one chip interval. Samples are taken at interval midpoints,
    t_n = (n + 1/2) / fs.
    """
    n_chips = n_symbols * CHIPS_PER_SYMBOL
    chips = np.where(np.tile(_SYMBOL0_CHIPS, n_symbols) > 0, 1.0, -1.0)
    tc = 1.0 / CHIP_RATE_HZ
    n = preamble_length(fs_hz, n_symbols)
    t = (np.arange(n) + 0.5) / fs_hz

    ki = 2 * np.floor(t / (2.0 * tc)).astype(np.intp)
    i_arm = chips[np.clip(ki, 0, n_chips - 1)] * np.sin(np.pi * ((t / (2.0 * tc)) % 1.0))

    tq = t - tc
    kq = 2 * np.floor(tq / (2.0 * tc)).astype(np.intp) + 1
    q_arm = np.where(
        tq >= 0,
        chips[np.clip(kq, 0, n_chips - 1)] * np.sin(np.pi * ((tq / (2.0 * tc)) % 1.0)),
        0.0,
    )

    s = i_arm + 1j * q_arm
    return s / np.sqrt(np.mean(np.abs(s) ** 2))


def generate_preamble(profile: DeviceProfile, fs_hz: float, n_symbols: int = 8) -> IqCapture:
    """Synthesize the device's impaired sync preamble.

    The ideal waveform has unit mean power; impairments are then applied in
    transmit-chain order: DC offset, I/Q imbalance, PA nonlinearity, CFO
    rotation, clock-skew resampling. An all-zero profile returns the ideal
    waveform unchanged.

    Parameters
    ----------
    profile : DeviceProfile
    fs_hz : float
        Sampling rate; must be at least the chip rate (2 MHz) so the chip
        stream is represented without dropping chips.
    n_symbols : int
        Number of 32-chip sync symbols, >= 1.
    """
    if fs_hz < CHIP_RATE_HZ:
        raise ValueError(f"fs_hz below chip-rate minimum {CHIP_RATE_HZ:g}: {fs_hz}")
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")

    s = _oqpsk_baseband(fs_hz, n_symbols)
    n = s.size

    if profile.dc_offset != 0:
        s = s + profile.dc_offset

    if profile.iq_gain_db != 0.0 or profile.iq_phase_deg != 0.0:
        # image-leakage form: out = mu*s + nu*conj(s); identity at g=1, phi=0
        g = 10.0 ** (profile.iq_gain_db / 20.0)
        phi = np.deg2rad(profile.iq_phase_deg)
        rot = g * np.exp(1j * phi)
        s = 0.5 * (1.0 + rot) * s + 0.5 * (1.0 - rot) * np.conj(s)

    if profile.pa_alpha3 != 0.0:
        s = s * (1.0 + profile.pa_alpha3 * np.abs(s) ** 2)

    if profile.cfo_hz != 0.0:
        s = s * np.exp(2j * np.pi * profile.cfo_hz * np.arange(n) / fs_hz)

    if profile.clock_jitter_ppm != 0.0:
        # deterministic clock skew: the k-th sample is taken at index
        # k*(1+ppm*1e-6) on the nominal grid; tail values hold the last sample
        idx = np.arange(n) * (1.0 + profile.clock_jitter_ppm * 1e-6)
        grid = np.arange(n, dtype=float)
        s = np.interp(idx, grid, s.real) + 1j * np.interp(idx, grid, s.imag)

    return IqCapture(samples=s, fs_hz=fs_hz, true_id=profile.device_id)


def apply_awgn(capture: IqCapture, channel: ChannelConfig,
               signal_power: float | None = None) -> IqCapture:
    """Add complex white Gaussian noise at the configured SNR.

    Noise power is set relative to signal_power when given, otherwise to the
    mean power measured from the capture, so the realized in-band SNR equals
    snr_db in expectation. Deterministic for a fixed channel.rng_seed; a
    noiseless channel returns the samples unchanged.
    """
    if channel.is_noiseless:
        return IqCapture(capture.samples.copy(), capture.fs_hz, capture.true_id,
                         dict(capture.diagnostics))
    p_sig = float(np.mean(np.abs(capture.samples) ** 2)) if signal_power is None else float(signal_power)
    noise = _unit_noise(channel.rng_seed, capture.samples.size)
    s = _add_noise(capture.samples, noise, _noise_std(channel.snr_db, p_sig))
    return IqCapture(s, capture.fs_hz, capture.true_id, dict(capture.diagnostics))


def _noise_std(snr_db: float, signal_power: float) -> float:
    """Per-rail standard deviation of complex AWGN at snr_db below signal_power."""
    if signal_power <= 0:
        raise ValueError("signal power must be positive to set an SNR")
    sigma2 = signal_power * 10.0 ** (-float(snr_db) / 10.0)
    return float(np.sqrt(sigma2 / 2.0))


def _unit_noise(seed, n: int) -> np.ndarray:
    """The (2, n) standard-normal I and Q draws of one capture's noise seed.

    seed is an int or an ISeedSequence holding a precomputed state.
    """
    return np.random.default_rng(seed).standard_normal((2, n))


def _add_noise(samples: np.ndarray, noise: np.ndarray, std: float) -> np.ndarray:
    """samples (..., n) plus std times the complex noise whose rails are noise[..., 0, :]
    and noise[..., 1, :]."""
    return samples + std * (noise[..., 0, :] + 1j * noise[..., 1, :])


def adc_sample(capture: IqCapture, adc: AdcConfig) -> IqCapture:
    """Clip each rail to the full-scale range and quantize mid-tread.

    Step size is full_scale_vpp / 2**q_bits, so any in-range input is
    reproduced within half a step. The fraction of samples that hit the
    clip rails on either branch is reported in diagnostics["clip_fraction"].
    Re-quantizing an already quantized capture is an exact no-op.
    """
    s, clipped = _quantise(capture.samples, adc)
    diags = dict(capture.diagnostics)
    diags["clip_fraction"] = float(np.mean(clipped))
    return IqCapture(s, capture.fs_hz, capture.true_id, diags)


def _quantise(samples: np.ndarray, adc: AdcConfig) -> tuple[np.ndarray, np.ndarray]:
    """Clip and quantize complex samples of any shape elementwise.

    Returns the quantized samples and a boolean mask of the samples whose I or
    Q rail hit the clip rails. Zero samples stay zero and never clip, so
    zero-padding a batch does not change any row's clip count.
    """
    half = adc.full_scale_vpp / 2.0
    step = adc.full_scale_vpp / 2.0 ** adc.q_bits
    rails = np.stack([samples.real, samples.imag], axis=-1)
    over = np.abs(rails) > half
    np.clip(rails, -half, half, out=rails)
    rails /= step
    np.round(rails, out=rails)
    rails *= step
    return rails.view(np.complex128)[..., 0], over[..., 0] | over[..., 1]


def quantization_error_bound(adc: AdcConfig) -> float:
    """Documented ceiling on per-rail quantization error: 2**-q_bits * full scale."""
    return 2.0 ** (-adc.q_bits) * adc.full_scale_vpp


def save_capture(capture: IqCapture, path) -> None:
    """Write a capture as little-endian interleaved float32 I/Q.

    Header layout: magic "RFIQ", fs_hz float64, sample count uint64,
    true_id int64 (-1 when absent).
    """
    tid = -1 if capture.true_id is None else int(capture.true_id)
    header = struct.pack("<4sdQq", _CAPTURE_MAGIC, float(capture.fs_hz),
                         capture.samples.size, tid)
    inter = np.empty(2 * capture.samples.size, dtype="<f4")
    inter[0::2] = capture.samples.real
    inter[1::2] = capture.samples.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes())


def load_capture(path) -> IqCapture:
    """Read a capture written by save_capture; a malformed file raises ValueError."""
    raw = Path(path).read_bytes()
    head_len = struct.calcsize("<4sdQq")
    if len(raw) < head_len:
        raise ValueError(f"truncated capture file: {path}")
    magic, fs_hz, count, tid = struct.unpack("<4sdQq", raw[:head_len])
    if magic != _CAPTURE_MAGIC:
        raise ValueError(f"not a capture file (bad magic): {path}")
    if len(raw) - head_len != 8 * count:  # count float32 I/Q pairs
        raise ValueError(f"capture payload size mismatch in {path}")
    inter = np.frombuffer(raw, dtype="<f4", offset=head_len)
    s = inter[0::2].astype(np.float64) + 1j * inter[1::2].astype(np.float64)
    return IqCapture(s, fs_hz, None if tid < 0 else int(tid))
