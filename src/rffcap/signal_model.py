"""Transmitter hardware modeling and receiver front-end simulation.

Synthesizes 802.15.4-style half-sine O-QPSK preamble waveforms, imprints a
per-device chain of hardware impairments (DC offset, I/Q imbalance, odd-order
PA nonlinearity, carrier frequency offset, sampling-clock skew), and models
the receive side as an AWGN channel followed by a clipping mid-tread ADC.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Complex

import numpy as np

from ._records import _check_count, _check_real, _is_real

CHIP_RATE_HZ = 2.0e6
CHIPS_PER_SYMBOL = 32
# the most samples one capture holds: its lead-in, preamble and tail. build_dataset
# holds a block of I/Q rails and one of unit noise draws, each of at least one
# whole capture, so a capture at this limit takes ~32 MiB of them per process
MAX_CAPTURE_SAMPLES = 2**20

# 32-chip spreading sequence of the all-zero data symbol; the sync header is
# this sequence repeated once per symbol.
_SYMBOL0_CHIPS = np.array(
    [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1,
     0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0], dtype=np.int8)


def _check_fs_hz(fs_hz: float) -> None:
    _check_real("fs_hz", fs_hz, CHIP_RATE_HZ)


def _check_q_bits(q_bits: int) -> None:
    _check_count("q_bits", q_bits, 4, 24)


def _check_capture(fs_hz: float, n_symbols: int, pad: int = 0) -> None:
    """The one check of a capture's length: pad samples plus the n_symbols preamble
    at fs_hz, counted as a float so that a length past float range is inf, at most
    MAX_CAPTURE_SAMPLES. fs_hz and n_symbols come checked."""
    try:
        n_samples = pad + n_symbols * CHIPS_PER_SYMBOL * fs_hz / CHIP_RATE_HZ
    except OverflowError:  # an integer past float range
        n_samples = math.inf
    _check_real("capture samples", n_samples, high=MAX_CAPTURE_SAMPLES)


@dataclass(frozen=True)
class DeviceProfile:
    """Impairment parameter set that defines one transmitter identity.

    Every parameter must be finite; construction raises ValueError otherwise.

    Parameters
    ----------
    device_id : int
        Non-negative integer identity label carried through captures and
        datasets.
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
        _check_count("device_id", self.device_id, 0)
        _check_real("cfo_hz", self.cfo_hz, -200e3, 200e3)
        _check_real("iq_gain_db", self.iq_gain_db, -3.0, 3.0)
        _check_real("iq_phase_deg", self.iq_phase_deg)
        _check_real("clock_jitter_ppm", self.clock_jitter_ppm)
        _check_real("pa_alpha3", self.pa_alpha3, -1.0, 1.0, strict=True)
        try:
            finite = (isinstance(self.dc_offset, Complex) and not isinstance(self.dc_offset, bool)
                      and cmath.isfinite(self.dc_offset))
        except OverflowError:  # an integer past float range
            finite = False
        if not finite:
            raise ValueError(f"dc_offset must be a finite complex number: {self.dc_offset!r}")


NOISELESS = "noiseless"


def _check_snr_db(snr_db: float | str) -> None:
    """The one check of an SNR: the sentinel "noiseless", or finite and >= -1000."""
    if not (snr_db == NOISELESS if isinstance(snr_db, str)
            else _is_real(snr_db) and -1000.0 <= snr_db < np.inf):
        raise ValueError(f"snr_db must be {NOISELESS!r}, or finite and >= -1000: {snr_db!r}")


def _check_samples(samples) -> np.ndarray:
    """samples as a complex128 array; ValueError unless non-empty, 1-D and finite."""
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.ndim != 1 or samples.size == 0 or not np.isfinite(samples).all():
        raise ValueError("samples must be a non-empty, finite 1-D array")
    return samples


@dataclass(frozen=True)
class ParamDist:
    """Normal distribution (mean, std) for one impairment parameter; both
    must be finite, and std non-negative."""

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self):
        _check_real("mean", self.mean)
        _check_real("std", self.std, 0.0)


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
    """Draw n_devices profiles from the population, deterministically per seed,
    a non-negative integer."""
    _check_count("n_devices", n_devices, 1)
    _check_count("seed", seed, 0)
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


@lru_cache(maxsize=8)
def _oqpsk_baseband(fs_hz: float, n_symbols: int) -> np.ndarray:
    """Ideal unit-power half-sine O-QPSK sync waveform, read-only.

    Even-indexed chips shape the I rail, odd-indexed chips the Q rail; each
    chip is a half-sine pulse spanning two chip intervals, so the Q rail is
    offset by one chip interval. Samples are taken at interval midpoints,
    t_n = (n + 1/2) / fs. It depends on fs_hz and n_symbols only, so it is
    computed once per pair of them and shared by every device.
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
    s /= np.sqrt(np.mean(np.abs(s) ** 2))
    s.flags.writeable = False
    return s


def generate_preamble(profile: DeviceProfile, fs_hz: float, n_symbols: int = 8) -> np.ndarray:
    """Synthesize the device's impaired sync preamble, as a new complex128 array
    of preamble_length(fs_hz, n_symbols) samples.

    The ideal waveform has unit mean power; impairments are then applied in
    transmit-chain order: DC offset, I/Q imbalance, PA nonlinearity, CFO
    rotation, clock-skew resampling. An all-zero profile returns the ideal
    waveform unchanged.

    Parameters
    ----------
    profile : DeviceProfile
    fs_hz : float
        Sampling rate; must be finite and at least the chip rate (2 MHz) so
        the chip stream is represented without dropping chips.
    n_symbols : int
        Number of 32-chip sync symbols, >= 1, with the preamble at most
        MAX_CAPTURE_SAMPLES samples long.
    """
    _check_fs_hz(fs_hz)
    _check_count("n_symbols", n_symbols, 1)
    _check_capture(fs_hz, n_symbols)

    s = _oqpsk_baseband(fs_hz, n_symbols).copy()
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

    return s


def apply_awgn(samples, snr_db: float | str, seed=0,
               signal_power: float | None = None) -> np.ndarray:
    """samples plus complex white Gaussian noise at snr_db, as a new array.

    Noise power is set relative to signal_power when given, otherwise to the
    mean power measured from the samples, so the realized in-band SNR equals
    snr_db in expectation. The noise is the standard-normal I then Q draws of
    np.random.default_rng(seed), seed a non-negative integer, as build_dataset
    draws each capture's; a "noiseless" snr_db returns a copy of the samples.
    """
    samples = _check_samples(samples)
    _check_snr_db(snr_db)
    _check_count("seed", seed, 0)
    if isinstance(snr_db, str):
        return samples.copy()
    p_sig = float(np.mean(np.abs(samples) ** 2)) if signal_power is None else signal_power
    n = samples.size
    rails = _scale_noise(_unit_noise(seed, np.empty((2, n))),
                         _noise_std(snr_db, p_sig), out=np.empty((n, 2)))
    s = _as_complex(rails)
    s += samples
    return s


def _noise_std(snr_db: float, signal_power: float) -> float:
    """Per-rail standard deviation of complex AWGN at snr_db below signal_power."""
    _check_real("signal_power", signal_power, 0.0, strict=True)
    sigma2 = float(signal_power) * 10.0 ** (-float(snr_db) / 10.0)
    return float(np.sqrt(sigma2 / 2.0))


def _unit_noise(seed, out: np.ndarray) -> np.ndarray:
    """Fill the (2, n) out with the standard-normal I and Q draws of one
    capture's noise seed, the I rail then the Q rail, and return out.

    seed is an int or an ISeedSequence holding a precomputed state. Each rail
    of out must be contiguous; out as a whole need not be.
    """
    rng = np.random.default_rng(seed)
    rng.standard_normal(out=out[0])
    rng.standard_normal(out=out[1])
    return out


def _scale_noise(noise: np.ndarray, std: float, out: np.ndarray) -> np.ndarray:
    """Write std times the unit draws noise (..., 2, n), I rail then Q rail, into
    the (..., n, 2) I/Q rails out and return out.

    Adding a signal to the complex view of out then gives, bit for bit, the
    signal plus std * (I + 1j * Q): the cross terms of that complex product
    are signed zeros.
    """
    np.multiply(noise[..., 0, :], std, out=out[..., 0])
    np.multiply(noise[..., 1, :], std, out=out[..., 1])
    return out


def _as_complex(rails: np.ndarray) -> np.ndarray:
    """The complex samples (...) of C-contiguous float64 I/Q rails (..., 2), as a view."""
    return rails.view(np.complex128)[..., 0]


def _as_rails(samples: np.ndarray) -> np.ndarray:
    """A new (..., 2) float64 array holding the I and Q rails of complex samples."""
    rails = np.empty(samples.shape + (2,))
    _as_complex(rails)[...] = samples
    return rails


def adc_sample(samples, q_bits: int) -> tuple[np.ndarray, float]:
    """Clip each rail to the full scale +/-1 and quantize mid-tread at q_bits.

    Returns the quantized samples, as a new array, and the fraction of them
    that hit the clip rails on either branch. Step size is 2**(1 - q_bits),
    so any in-range input is reproduced within half a step. Re-quantizing
    already quantized samples is an exact no-op.
    """
    _check_q_bits(q_bits)
    rails = _as_rails(_check_samples(samples))
    clipped = _quantise(rails, q_bits)
    return _as_complex(rails), float(np.mean(clipped))


def _quantise(rails: np.ndarray, q_bits: int) -> np.ndarray:
    """Clip C-contiguous float64 I/Q rails (..., 2) to +/-1 and quantize them
    in place at q_bits.

    Returns a boolean mask (...) of the samples whose I or Q rail hit the clip
    rails. Zero samples stay zero and never clip, so zero-padding a batch does
    not change any row's clip count.
    """
    step = 2.0 ** (1 - q_bits)
    over = rails > 1.0
    over |= rails < -1.0
    np.clip(rails, -1.0, 1.0, out=rails)
    rails /= step
    np.round(rails, out=rails)
    rails *= step
    # read each sample's (I, Q) pair of flags as one 16-bit word
    return over.view(np.uint16)[..., 0] != 0


def quantization_error_bound(q_bits: int) -> float:
    """Documented ceiling on per-rail quantization error: one step, 2**(1 - q_bits)."""
    _check_q_bits(q_bits)
    return 2.0 ** (1 - q_bits)
