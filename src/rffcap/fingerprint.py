"""Burst acquisition and spectral fingerprint extraction.

Turns raw I/Q captures into fixed-length log-spectrum feature vectors and
assembles labeled datasets by running the full transmit/receive pipeline for
a population of device profiles.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import sys
import threading
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random.bit_generator import ISeedSequence

from ._records import _check_count, _check_real, _is_real, read_record
from .signal_model import (
    DeviceProfile,
    _as_complex,
    _check_capture,
    _check_fs_hz,
    _check_q_bits,
    _check_samples,
    _check_snr_db,
    _noise_std,
    _quantise,
    _scale_noise,
    _unit_noise,
    generate_preamble,
    preamble_length,
)

_DATASET_MAGIC = b"RFPD"
_DATASET_HEADER = struct.Struct("<QQI")  # n_rows, n_bins, meta JSON length
_POWER_FLOOR = 1e-30  # keeps dB features finite for identically-zero bins
# rows processed at a time: float64 feature rows converted when a dataset is
# written, and the float64 blocks _float64_blocks reads for the estimators
# and the classifier. Sized by measurement (README "Estimator notes"): the
# Gram matrix of 1,024-row blocks is as fast as one product over all rows;
# 256-row blocks were slower.
_ROW_BLOCK = 1024
# bytes of I/Q rails build_dataset runs through its receive chain at a time;
# a block holds max(1, _SYNTH_BLOCK_BYTES // (width * 16)) rows: 71 at 4 MHz,
# 33 at 10 MHz with the default padding. Sized by measurement (README
# "Estimator notes"): 0.5-1 MiB blocks built within 5% of whole-device
# batches, 256 KiB ones up to 17% slower, and 1 MiB ones raised snr_sweep's
# peak RSS by ~1.4 MB over this size.
_SYNTH_BLOCK_BYTES = 3 << 18
# the fewest blocks of rows build_dataset forks for. Measured (README "Dataset
# synthesis"): a fork, its pipe and its exit cost about what 2-3 blocks take
# to build, and 8 blocks was the smallest build that two processes made
# faster by 20% or more at both 4 and 10 MHz (6 blocks: 7-19%)
_FORK_MIN_BLOCKS = 8

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx); NumPy's
# stream-compatibility policy keeps its output fixed across releases
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) as high and
# low words, and the uint64 operands of its word-pair arithmetic: NumPy
# scalars, so that NumPy 1.x's value-based casting keeps every result uint64
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_U1, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


@dataclass
class DatasetMeta:
    fs_hz: float
    n_fft: int
    snr_db: float | str
    q_bits: int
    class_ids: list
    # acquisition and ADC statistics of a built dataset; None when unknown
    # (datasets assembled by hand or files written before they were recorded)
    onset_flagged_frac: float | None = None
    clip_frac: float | None = None

    def __post_init__(self):  # what the annotations cannot say
        # fs_hz 0 means no sample rate is known
        _check_real("fs_hz", self.fs_hz, 0.0)
        _check_snr_db(self.snr_db)
        _check_q_bits(self.q_bits)
        for c in self.class_ids:
            _check_count("class_ids", c, 0)
        for name in ("onset_flagged_frac", "clip_frac"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name), 0.0, 1.0)

    def to_dict(self) -> dict:
        """JSON-ready fields, as stored in the .rfds meta block."""
        return {**asdict(self), "class_ids": [int(c) for c in self.class_ids]}


@dataclass
class FingerprintDataset:
    """Feature matrix (n_samples x n_bins) with integer labels and pipeline meta.

    Labels are contiguous class indices 0..C-1; meta.class_ids maps each index
    back to the originating device_id.

    A float32 feature array is kept as it is, without a copy: load_dataset
    returns the float32 values the file stores, at half the memory of their
    float64 form. Features of any other dtype become float64, so every
    dataset build_dataset makes is float64. The estimators and the
    classifier compute in float64 either way, and give the same bits on
    float32 features as on their float64 upcast.
    """

    features: np.ndarray
    labels: np.ndarray
    meta: DatasetMeta

    def __post_init__(self):
        features = np.asarray(self.features)
        self.features = (features if features.dtype == np.float32
                         else features.astype(np.float64, copy=False))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D (n_samples x n_bins)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_bins(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return np.unique(self.labels).size


def _float64_blocks(x: np.ndarray, means=0.0, labels=None):
    """Yield (first row, x[rows] - means), or (first row, x[rows] -
    means[labels[rows]]) given labels, for successive blocks of _ROW_BLOCK
    rows of x, each written over the previous one in one buffer.

    Every block is C-ordered float64 whatever x's dtype and layout (x - 0.0
    is float64(x) exactly), so a product or sum over the blocks gives float32
    rows the bits of their float64 upcast, and F-ordered rows those of their
    C-ordered copy (BLAS rounds a product with a transposed operand
    differently).
    """
    n = x.shape[0]
    buf = np.empty((min(_ROW_BLOCK, n), x.shape[1]))
    for lo in range(0, n, _ROW_BLOCK):
        block = buf[:min(_ROW_BLOCK, n - lo)]
        subtrahend = means
        if labels is not None:
            # mode="clip" has take write into block directly (mode="raise"
            # buffers its out array); labels index means, so it clips nothing
            subtrahend = np.take(means, labels[lo:lo + len(block)], axis=0, out=block,
                                 mode="clip")
        yield lo, np.subtract(x[lo:lo + len(block)], subtrahend, out=block)


def _column_means(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=0) of x's C-ordered float64 form, whatever x's layout.

    NumPy sums a C-ordered matrix's columns row after row, but an F-ordered
    one's pairwise. Each block here carries the sum so far in its first row,
    so the rows are added one after another across blocks as well. A single
    column, which NumPy sums pairwise at either layout, is summed pairwise
    only within each block here, so its mean can differ in the last bits
    once it spans more than one block.
    """
    total = np.full(x.shape[1], -0.0)  # -0.0 + v is v, for v = -0.0 too
    for _, rows in _float64_blocks(x):
        rows[0] += total
        np.add.reduce(rows, axis=0, out=total)
    return total / x.shape[0]


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end capture pipeline settings shared by dataset builders.

    lead_pad is an inclusive range of noise-only samples prepended before the
    burst (drawn per capture); with the most lead-in, the preamble and
    tail_pad, a capture holds at most MAX_CAPTURE_SAMPLES samples. The ADC
    clips each rail at a fixed full scale of +/-1, where the half-sine rails
    of the ideal unit-power preamble peak, and quantizes at q_bits;
    adc_backoff_db, a front-end gain backoff applied before it, is the one
    setting of the signal's level against that full scale.
    Construction checks every limit, and the config is frozen so it stays valid.
    """

    fs_hz: float = 4.0e6
    n_symbols: int = 8
    snr_db: float | str = 24.0
    snr_ref_fs_hz: float | None = None
    q_bits: int = 14
    n_fft: int = 512
    threshold_factor: float = 6.0
    lead_pad: tuple = (16, 144)
    tail_pad: int = 32
    adc_backoff_db: float = 3.0

    def __post_init__(self):
        _validate_n_fft(self.n_fft)
        _check_q_bits(self.q_bits)
        _check_fs_hz(self.fs_hz)
        if self.snr_ref_fs_hz is not None:
            _check_real("snr_ref_fs_hz", self.snr_ref_fs_hz, 0.0, strict=True)
        _check_snr_db(self.effective_snr_db())
        _check_count("n_symbols", self.n_symbols, 1)
        _check_threshold_factor(self.threshold_factor)
        lead_lo, lead_hi = self.lead_pad
        _check_count("lead_pad low", lead_lo, 0)
        _check_count("lead_pad high", lead_hi, lead_lo)
        _check_count("tail_pad", self.tail_pad, 0)
        # build_dataset's buffers hold whole captures
        _check_capture(self.fs_hz, self.n_symbols, lead_hi + self.tail_pad)
        # with snr_db >= -1000 the ADC input stays below ~1e100, finite when squared
        _check_real("adc_backoff_db", self.adc_backoff_db, -1000.0, 1000.0)

    def effective_snr_db(self) -> float | str:
        """SNR after optional noise-bandwidth scaling.

        When snr_ref_fs_hz is set, snr_db is interpreted at that rate and the
        noise power grows proportionally with fs_hz (fixed noise density).
        """
        # "noiseless" and any other non-number pass unscaled, for _check_snr_db
        if not _is_real(self.snr_db) or self.snr_ref_fs_hz is None:
            return self.snr_db
        return float(self.snr_db) - 10.0 * np.log10(self.fs_hz / self.snr_ref_fs_hz)

    def window(self) -> int:
        return preamble_length(self.fs_hz, self.n_symbols)


def acquire(samples, window: int,
            threshold_factor: float = 6.0) -> tuple[np.ndarray, int, bool]:
    """The `window` samples from the burst onset, the onset index and the fallback flag.

    Short-term power (trailing 16-sample mean) is compared against
    threshold_factor times a noise-floor estimate, the minimum mean power
    over non-overlapping 16-sample blocks (robust even when the burst fills
    most of the record). If no crossing occurs the maximum-energy window is
    returned instead and the flag is True.
    """
    samples = _check_samples(samples)
    _check_count("window", window, 1, samples.size)
    _check_threshold_factor(threshold_factor)
    bursts, onsets, flagged = _acquire_rows(
        samples[np.newaxis], np.array([samples.size]), window, threshold_factor)
    return bursts[0], int(onsets[0]), bool(flagged[0])


def _acquire_rows(x: np.ndarray, lengths: np.ndarray, window: int,
                  threshold_factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-detection acquisition (see `acquire`) of every row of x at once.

    Row r holds a record of lengths[r] samples followed by zero padding; only
    blocks, short-term windows and fallback energy windows that lie inside
    the record count. Returns the (rows, window) acquired bursts, the onset
    index of each row and whether each row fell back to the max-energy window.
    window and threshold_factor come checked, by acquire or PipelineConfig.
    """
    rows, width = x.shape
    power = np.abs(x)
    power **= 2
    w = min(16, window)
    csum = np.empty((rows, width + 1))
    csum[:, 0] = 0.0
    np.cumsum(power, axis=1, out=csum[:, 1:])
    n_blocks = width // w
    blocks = power[:, : n_blocks * w].reshape(rows, n_blocks, w).mean(axis=2)
    blocks[np.arange(n_blocks) >= (lengths // w)[:, np.newaxis]] = np.inf
    threshold = threshold_factor * blocks.min(axis=1)

    # trailing w-sample means, evaluated only where a full window exists so a
    # lone noise spike at the record start cannot fake an onset; they reuse
    # the power buffer
    short_term = np.subtract(csum[:, w:], csum[:, :-w], out=power[:, : width - w + 1])
    short_term /= w
    above = short_term > threshold[:, np.newaxis]
    # windows past a row's record start at lengths - w + 1, so the row has an
    # in-record crossing exactly when its first crossing lies in the record
    first = above.argmax(axis=1)
    flagged = ~above[np.arange(rows), first] | (first > lengths - w)
    # short_term[i] covers samples [i, i+w-1]; the crossing window's last
    # sample is the first one carrying burst power
    onsets = first + (w - 1)
    if flagged.any():
        energy = csum[flagged, window:] - csum[flagged, :-window]
        outside = np.arange(energy.shape[1]) > (lengths[flagged] - window)[:, np.newaxis]
        energy[outside] = -np.inf
        onsets[flagged] = energy.argmax(axis=1)
    onsets = np.minimum(onsets, lengths - window)
    bursts = sliding_window_view(x, window, axis=1)[np.arange(rows), onsets]
    return bursts, onsets, flagged


def _validate_n_fft(n_fft: int) -> None:
    if not (isinstance(n_fft, (int, np.integer)) and 64 <= n_fft <= 4096
            and (n_fft & (n_fft - 1)) == 0):
        raise ValueError(f"n_fft must be a power of two in [64, 4096]: {n_fft}")


def _check_threshold_factor(threshold_factor: float) -> None:
    _check_real("threshold_factor", threshold_factor, 0.0, strict=True)


def extract_spectral_feature(samples, n_fft: int) -> np.ndarray:
    """Welch log-spectrum fingerprint of samples, as an (n_fft,) float64 array.

    Hann window, 50% segment overlap, two-sided spectrum in FFT bin order
    (DC first) so I/Q asymmetries are preserved. Captures shorter than n_fft
    are zero-padded to a single segment. The linear-power bins sum to the mean
    power of the (possibly padded) input; returned values are 10*log10 of the
    per-bin power.
    """
    _validate_n_fft(n_fft)
    return _welch_db(_check_samples(samples)[np.newaxis], n_fft)[0]


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n points, summed as 0.5 + 0.5*cos(t) for t
    from -pi in n steps; tests/test_import_path.py checks that it equals,
    bit for bit, the library window it replaced."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1))[:-1]


def _welch_db(x: np.ndarray, n_fft: int) -> np.ndarray:
    """Welch log-spectrum (see `extract_spectral_feature`) of every row of x.

    Rows shorter than n_fft are zero-padded to one segment; otherwise each
    row is cut into (n - n_fft/2) // (n_fft/2) half-overlapping segments, the
    strided (rows, segments, n_fft) stack is Hann-windowed and transformed in
    one FFT call, and the periodograms are averaged over segments.
    """
    if x.shape[1] < n_fft:
        x = np.pad(x, ((0, 0), (0, n_fft - x.shape[1])))
    win = _hann(n_fft)
    segments = sliding_window_view(x, n_fft, axis=1)[:, :: n_fft // 2]
    spectra = np.fft.fft(win * segments, axis=-1)
    power = np.square(spectra.real)
    power += np.square(spectra.imag)
    bin_power = power.mean(axis=1)
    bin_power /= n_fft * np.sum(win * win)
    np.maximum(bin_power, _POWER_FLOOR, out=bin_power)
    np.log10(bin_power, out=bin_power)
    bin_power *= 10.0
    return bin_power


def feature_bin_frequencies(n_fft: int, fs_hz: float) -> np.ndarray:
    """Center frequency of each feature bin, in the same FFT order as extract."""
    return np.fft.fftfreq(n_fft, d=1.0 / fs_hz)


class _PresetState(ISeedSequence):
    """A SeedSequence output computed ahead, for np.random.default_rng.

    PCG64 seeds itself from generate_state(4, np.uint64) and reads the
    returned buffer as is, so the state is kept as a C-contiguous (4,) uint64
    array: a strided row, such as one of a transposed array, would be read as
    the wrong words.
    """

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = np.ascontiguousarray(state, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.state.size or dtype is not np.uint64:
            raise ValueError("a preset state serves generate_state(4, np.uint64) only")
        return self.state


def _hashmix(value, h: np.ndarray):
    """SeedSequence's hashmix over uint32 arrays; returns the hash and the next
    hash constant (an array, so its products wrap silently)."""
    value = value ^ h
    h = h * np.uint32(_MULT_A)
    value = value * h
    return value ^ (value >> 16), h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> 16)


def _mix_in(pool: list, word, h: np.ndarray) -> np.ndarray:
    """Mix one entropy word past the pool size into every pool word, in place."""
    for i in range(_POOL_WORDS):
        hashed, h = _hashmix(word, h)
        pool[i] = _mix(pool[i], hashed)
    return h


def _generate_state64(pool: list) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) of every pool, on a new last axis."""
    h = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_WORDS] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        out.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])], axis=-1)


def _entropy_words(x: int) -> int:
    """Number of uint32 words SeedSequence makes of a non-negative int."""
    return max(1, (int(x).bit_length() + 31) // 32)


def _spawned_states(master_seed, device_ids, per_class: int) -> np.ndarray:
    """SeedSequence(master_seed, spawn_key=(device_id, k, child)).generate_state(4,
    np.uint64) for every device, k < per_class and child 0 and 1.

    Returns a C-contiguous (devices, per_class, 2, 4) uint64 array. NumPy
    builds and validates SeedSequence(master_seed, spawn_key=(device_id,))
    once per device; mixing in the two trailing spawn words and the output
    stage are SeedSequence's uint32 arithmetic, run for all captures at once.
    """
    prefix, consts = [], []
    for dev in device_ids:
        prefix.append(np.random.SeedSequence(master_seed, spawn_key=(dev,)).pool)
        # hashmix calls so far: fill the pool, mix it pairwise, then each
        # entropy word past the pool size once per pool word
        n_entropy = max(_POOL_WORDS, _entropy_words(master_seed)) + _entropy_words(dev)
        n_calls = _POOL_WORDS ** 2 + _POOL_WORDS * (n_entropy - _POOL_WORDS)
        consts.append(_INIT_A * pow(_MULT_A, n_calls, 1 << 32) & _MASK32)

    # pool words broadcast over (device, k, child)
    pool = list(np.array(prefix, dtype=np.uint32).T[:, :, np.newaxis, np.newaxis])
    h = np.array(consts, dtype=np.uint32)[:, np.newaxis, np.newaxis]
    h = _mix_in(pool, np.arange(per_class, dtype=np.uint32)[:, np.newaxis], h)
    _mix_in(pool, np.arange(2, dtype=np.uint32), h)
    return _generate_state64(pool)


def _seeded_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(int(seed)).generate_state(4, np.uint64) of every uint64 seed,
    as a C-contiguous (..., 4) array.

    A seed below 2**32 is one entropy word, which mixes exactly like the
    two-word form with a zero high word.
    """
    words = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), 0, 0]
    h = np.array([_INIT_A], dtype=np.uint32)
    pool = []
    for word in words:
        hashed, h = _hashmix(word, h)
        pool.append(hashed)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], hashed)
    return _generate_state64(pool)


def _mul_wide(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products of the uint64 array a and b, as (high, low) words."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return (a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32),
            mid << _U32 | p00 & _LOW32)


def _add_wide(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2**128 of (high, low) uint64 word pairs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One step of PCG64's LCG, state * multiplier + inc mod 2**128, on word pairs."""
    p_hi, p_lo = _mul_wide(lo, _PCG_MULT_LO)
    p_hi += hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add_wide(p_hi, p_lo, inc_hi, inc_lo)


def _lead_ins(states: np.ndarray, low: int, high: int) -> np.ndarray:
    """np.random.default_rng(_PresetState(s)).integers(low, high + 1) for every
    row s of the (n, 4) uint64 states, as an int64 array.

    PCG64's seeding and first output and NumPy's bounded draw (Lemire's
    multiply-shift) run as uint64 array arithmetic, with 128-bit values held
    as (high, low) word pairs. A row that Lemire's method would reject and
    redraw (its low product word below the range, probability range / 2**32)
    is drawn by NumPy's own Generator, and so is every row of a range that is
    empty, of 2**32 or more, or outside int64.
    """
    low, high = int(low), int(high)
    span = high - low + 1

    def numpy_draw(state):
        return np.random.default_rng(_PresetState(state)).integers(low, high + 1)

    if not (0 < span < 1 << 32 and -1 << 63 <= low and high < 1 << 63):
        return np.array([numpy_draw(s) for s in states], dtype=np.int64)
    s_hi, s_lo, seq_hi, seq_lo = np.asarray(states, dtype=np.uint64).T
    # pcg64_set_seed: inc = (words[2:4] << 1) | 1; a step from state 0 gives
    # inc, words[0:2] are added, and one more step follows
    inc_hi, inc_lo = seq_hi << _U1 | seq_lo >> _U63, seq_lo << _U1 | _U1
    hi, lo = _pcg_step(*_add_wide(inc_hi, inc_lo, s_hi, s_lo), inc_hi, inc_lo)
    # the draw: a step, the XSL-RR output, and its low 32 bits, which
    # next_uint32 returns first
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> _U58
    out = xored >> rot | xored << ((_U64 - rot) & _U63)
    product = (out & _LOW32) * np.uint64(span)
    leads = (product >> _U32).astype(np.int64) + low
    for r in np.flatnonzero((product & _LOW32) < span).tolist():
        leads[r] = numpy_draw(states[r])
    return leads


def build_dataset(profiles: list[DeviceProfile], per_class: int,
                  pipeline: PipelineConfig, master_seed: int = 0) -> FingerprintDataset:
    """Run the full pipeline for every device and assemble a labeled dataset.

    Each capture is the device preamble embedded in a noise-only lead-in/out,
    passed through AWGN, front-end backoff, the ADC, burst acquisition, and
    spectral extraction.

    Seeding contract: master_seed is a non-negative integer, and capture k of
    a device is seeded by SeedSequence(master_seed, spawn_key=(device_id, k));
    its first child draws the lead-in length and its second seeds the
    standard-normal I/Q noise over exactly that capture's length, as
    `apply_awgn` would. Results therefore do not depend on the order of the
    profiles or on how captures are batched.
    The generator states and the lead-ins of all captures are derived at
    once, in NumPy arithmetic (`_spawned_states`, `_seeded_states`,
    `_lead_ins`), equal to NumPy's bit for bit.

    Batching: the rows, device by device, go through the receive chain in
    fixed blocks of rows that may span devices, sized by _SYNTH_BLOCK_BYTES,
    so the working set does not grow with per_class. A block is one
    zero-padded (rows, longest capture, 2) float64 buffer of I/Q rails that
    every stage updates in place. The unit noise draws are scaled into it
    and each row's device burst is added to its slice; then backoff, the
    finiteness check and quantization act on the whole block, and
    acquisition and Welch run row-wise on its complex view through the same
    kernels as `acquire` and `extract_spectral_feature`, counting only each
    row's true length. Every stage acts row by row, so the block size does
    not change any output bit. The rails and the noise draws are allocated
    once per process and reused by every block, and each device's ideal
    baseband is made once; only the noise draw runs once per capture.

    Two processes: when the rows fill at least _FORK_MIN_BLOCKS blocks and
    `_may_fork` allows it, the build forks once. The child runs the rows
    from the block boundary nearest the middle and sends them back through a
    pipe, straight into the arrays this process returns, while this process
    runs the rows before it. Rows are seeded one by one, so the split changes
    no output bit either, and when the child's rows do not all arrive this
    process builds them itself: a forked build returns the rows, or raises
    the exception, of a one-process build.

    The meta records the fraction of captures whose acquisition fell back to
    the max-energy window (onset_flagged_frac) and the mean over captures of
    the fraction of samples that clipped in the ADC (clip_frac).
    """
    if len(profiles) < 2:
        raise ValueError("need at least 2 device profiles")
    ids = [p.device_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ValueError("device_id values must be unique")
    _check_count("per_class", per_class, 2)
    _check_count("master_seed", master_seed, 0)

    ordered = sorted(profiles, key=lambda p: p.device_id)
    n_burst = window = pipeline.window()
    snr_db = pipeline.effective_snr_db()
    noise_std = None if isinstance(snr_db, str) else _noise_std(snr_db, 1.0)
    backoff = 10.0 ** (-pipeline.adc_backoff_db / 20.0)
    lead_lo, lead_hi = pipeline.lead_pad
    width = lead_hi + n_burst + pipeline.tail_pad
    n_rows = len(ordered) * per_class
    features = np.empty((n_rows, pipeline.n_fft))
    labels = np.repeat(np.arange(len(ordered), dtype=np.int64), per_class)
    flagged = np.empty(n_rows, dtype=bool)
    clip = np.empty(n_rows)

    class_ids = [p.device_id for p in ordered]
    bursts = [generate_preamble(p, pipeline.fs_hz, pipeline.n_symbols) for p in ordered]
    # row r is capture r % per_class of device r // per_class: children[r, 0]
    # seeds its lead-in draw and the first word of children[r, 1] its noise;
    # every lead-in is drawn here, before any fork
    children = _spawned_states(master_seed, class_ids, per_class).reshape(n_rows, 2, 4)
    noise_states = _seeded_states(children[:, 1, 0])
    leads = _lead_ins(children[:, 0], lead_lo, lead_hi)
    lengths = leads + (n_burst + pipeline.tail_pad)
    leads_list, lengths_list = leads.tolist(), lengths.tolist()
    block = min(n_rows, max(1, _SYNTH_BLOCK_BYTES // (width * 16)))

    def fill(first: int, last: int) -> None:
        """Rows [first, last) of features, flagged and clip, block by block."""
        # buffers of one block of rows, which may span devices, reused by
        # every block: I/Q rails that every stage updates in place and the
        # unit noise draws
        rails_buf = np.empty((min(block, last - first), width, 2))
        draws = None if noise_std is None else np.zeros((len(rails_buf), 2, width))
        for lo in range(first, last, block):
            rails = rails_buf[:last - lo]
            rows = slice(lo, lo + len(rails))
            x = _as_complex(rails)
            if draws is None:
                rails[...] = 0.0
            else:
                for j, (noise_state, n) in enumerate(zip(noise_states[rows],
                                                         lengths_list[rows])):
                    _unit_noise(_PresetState(noise_state), draws[j, :, :n])
                _scale_noise(draws[:len(rails)], noise_std, out=rails)
            for j, (lead, n) in enumerate(zip(leads_list[rows], lengths_list[rows])):
                rails[j, n:] = 0.0
                x[j, lead:lead + n_burst] += bursts[(lo + j) // per_class]

            rails *= backoff
            if not np.isfinite(rails).all():
                raise ValueError("samples must be finite")
            clipped = _quantise(rails, pipeline.q_bits)
            acquired, _, row_flagged = _acquire_rows(x, lengths[rows], window,
                                                     pipeline.threshold_factor)

            features[rows] = _welch_db(acquired, pipeline.n_fft)
            flagged[rows] = row_flagged
            clip[rows] = clipped.sum(axis=1) / lengths[rows]

    if n_rows >= _FORK_MIN_BLOCKS * block and _may_fork():
        # split at the block boundary nearest the middle
        _fill_forked(fill, block * round(n_rows / (2 * block)), n_rows,
                     (features, flagged, clip))
    else:
        fill(0, n_rows)

    meta = DatasetMeta(fs_hz=pipeline.fs_hz, n_fft=pipeline.n_fft,
                       snr_db=snr_db, q_bits=pipeline.q_bits,
                       class_ids=class_ids,
                       onset_flagged_frac=float(flagged.mean()),
                       clip_frac=float(clip.mean()))
    return FingerprintDataset(features, labels, meta)


def _may_fork() -> bool:
    """Whether build_dataset may run part of its rows in a forked child.

    Only on Linux with a second CPU to run the child; only when no other
    Python thread exists, since a fork copies the calling thread alone and a
    lock another thread held would stay held in the child; and not in a
    process multiprocessing started, such as a run_sweep pool worker: with
    two workers on two CPUs, forking in each made an 8-point sweep 1.12x
    slower (README "Dataset synthesis"). Such a process has imported
    multiprocessing, so a process that has not is none; importing it only
    to ask would add ~0.3 MB to every process that builds.
    """
    mp = sys.modules.get("multiprocessing")
    return (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1
            and (mp is None or mp.parent_process() is None))


def _fill_forked(fill, split: int, n_rows: int, outputs: tuple) -> None:
    """Run fill(0, split) here and fill(split, n_rows) in a forked child.

    The child writes its rows of every output array to a pipe as raw bytes,
    and this process reads them into its own arrays, so they stay the only
    copy of the result. A child that fails exits with status 1 and reports
    nothing; when its rows do not all arrive or its status is not 0, this
    process runs fill(split, n_rows) itself, for the same rows or exception.
    The child is reaped on every path, and killed first if this process's
    half raised.
    """
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with more than one OS thread
            # forks; OpenBLAS's idle workers always count. They are harmless
            # here: the child calls no BLAS, and _may_fork admitted no other
            # Python thread.
            warnings.filterwarnings("ignore", r".*multi-threaded.*fork", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            fill(split, n_rows)
            with open(write_fd, "wb") as pipe:
                for out in outputs:
                    pipe.write(out[split:n_rows])
            code = 0
        finally:
            os._exit(code)  # never the parent's exit handlers or buffers

    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            try:
                fill(0, split)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            complete = all(pipe.readinto(out[split:n_rows]) == out[split:n_rows].nbytes
                           for out in outputs)
    finally:
        wait_status = os.waitpid(pid, 0)[1]
    if not complete or wait_status != 0:
        fill(split, n_rows)


def save_dataset(ds: FingerprintDataset, path) -> None:
    """Binary dataset container: header (n_rows, n_bins, meta) + float32 rows + labels.

    Every feature must be finite and every label index meta.class_ids, as
    load_dataset requires; otherwise ValueError is raised before the file is opened.

    C-contiguous float32 features are written as they are; other features
    are converted and written _ROW_BLOCK rows at a time, so no float32 copy
    of the whole feature matrix is made. Either way the file holds the same
    bytes.
    """
    _check_payload(ds.features, ds.labels, ds.meta, path)
    meta_json = json.dumps(ds.meta.to_dict()).encode()
    with open(path, "wb") as fh:
        fh.write(_DATASET_MAGIC)
        fh.write(_DATASET_HEADER.pack(ds.n_samples, ds.n_bins, len(meta_json)))
        fh.write(meta_json)
        for lo in range(0, ds.n_samples, _ROW_BLOCK):
            fh.write(ds.features[lo:lo + _ROW_BLOCK].astype("<f4", order="C", copy=False))
        fh.write(ds.labels.astype("<i4"))


def load_dataset(path) -> FingerprintDataset:
    """Read a dataset written by save_dataset; a malformed file raises ValueError.

    The meta block is read as a DatasetMeta by read_record, so each value
    must have its field's type (a bool is not a number); the payload must be
    exactly the float32 features and int32 labels the header announces, every
    feature must be finite, and every label must index meta.class_ids. The
    features are read with one readinto straight into the C-contiguous float32
    matrix the dataset holds, so the dataset's features have dtype float32.

    Files written before the acquisition statistics were recorded load with
    meta.onset_flagged_frac and meta.clip_frac set to None.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(_DATASET_MAGIC) + _DATASET_HEADER.size)
        if head[:len(_DATASET_MAGIC)] != _DATASET_MAGIC:
            raise ValueError(f"not a dataset file (bad magic): {path}")
        meta_at = len(_DATASET_MAGIC) + _DATASET_HEADER.size
        if len(head) < meta_at:
            raise ValueError(f"truncated dataset header in {path}")
        n_rows, n_bins, meta_len = _DATASET_HEADER.unpack_from(head, len(_DATASET_MAGIC))
        payload_at = meta_at + meta_len
        if size < payload_at:
            raise ValueError(f"truncated dataset meta in {path}")
        try:
            meta_d = json.loads(fh.read(meta_len).decode())
        except ValueError as exc:  # invalid UTF-8 or JSON
            raise ValueError(f"malformed dataset meta in {path}: {exc}") from None
        meta = read_record(DatasetMeta, meta_d, f"{path}: meta")
        if size - payload_at != 4 * n_rows * (n_bins + 1):
            raise ValueError(f"dataset payload size mismatch in {path}")
        features = np.empty((n_rows, n_bins), dtype="<f4")
        labels = np.empty(n_rows, dtype="<i4")
        _read_exactly(fh, features, path)
        _read_exactly(fh, labels, path)
    _check_payload(features, labels, meta, path)
    return FingerprintDataset(features, labels.astype(np.int64), meta)


def _check_payload(features: np.ndarray, labels: np.ndarray, meta: DatasetMeta, path) -> None:
    """Raise ValueError naming path unless every feature is finite (min and max carry
    a NaN or an infinity, and allocate nothing) and every label indexes meta.class_ids."""
    if features.size and not (np.isfinite(features.min()) and np.isfinite(features.max())):
        raise ValueError(f"dataset features in {path} are not all finite")
    n_classes = len(meta.class_ids)
    if labels.size and not (labels.min() >= 0 and labels.max() < n_classes):
        raise ValueError(f"dataset labels in {path} lie outside [0, {n_classes})")


def _read_exactly(fh, out: np.ndarray, path) -> None:
    """Fill the contiguous array out from fh; a short read raises ValueError."""
    if fh.readinto(out) != out.nbytes:
        raise ValueError(f"dataset payload size mismatch in {path}")
