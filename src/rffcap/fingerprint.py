"""Burst acquisition and spectral fingerprint extraction.

Turns raw I/Q captures into fixed-length log-spectrum feature vectors and
assembles labeled datasets by running the full transmit/receive pipeline for
a population of device profiles.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.random.bit_generator import ISeedSequence

from .signal_model import (
    AdcConfig,
    ChannelConfig,
    DeviceProfile,
    IqCapture,
    _add_noise,
    _noise_std,
    _quantise,
    generate_preamble,
    preamble_length,
)

_DATASET_MAGIC = b"RFPD"
_DATASET_HEADER = struct.Struct("<QQI")  # n_rows, n_bins, meta JSON length
_REQUIRED_META = ("fs_hz", "n_fft", "snr_db", "q_bits", "class_ids")
_POWER_FLOOR = 1e-30  # keeps dB features finite for identically-zero bins

# SeedSequence's hashing constants (numpy/random/bit_generator.pyx); NumPy's
# stream-compatibility policy keeps its output fixed across releases
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


@dataclass
class FeatureVector:
    """One log-spectrum fingerprint: per-bin power in dB plus identity label."""

    values: np.ndarray
    label: int = -1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")


@dataclass
class DatasetMeta:
    fs_hz: float = 0.0
    n_fft: int = 0
    snr_db: float | str = 0.0
    q_bits: int = 0
    class_ids: list = field(default_factory=list)
    # acquisition and ADC statistics of a built dataset; None when unknown
    # (datasets assembled by hand or files written before they were recorded)
    onset_flagged_frac: float | None = None
    clip_frac: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready fields, as stored in the .rfds meta block."""
        return {**asdict(self), "class_ids": [int(c) for c in self.class_ids]}


@dataclass
class FingerprintDataset:
    """Feature matrix (n_samples x n_bins) with integer labels and pipeline meta.

    Labels are contiguous class indices 0..C-1; meta.class_ids maps each index
    back to the originating device_id.
    """

    features: np.ndarray
    labels: np.ndarray
    meta: DatasetMeta = field(default_factory=DatasetMeta)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
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


@dataclass
class PipelineConfig:
    """End-to-end capture pipeline settings shared by dataset builders.

    lead_pad is an inclusive range of noise-only samples prepended before the
    burst (drawn per capture); adc_backoff_db is a front-end gain backoff
    applied before quantization so rail peaks sit below full scale.
    """

    fs_hz: float = 4.0e6
    n_symbols: int = 8
    snr_db: float | str = 24.0
    snr_ref_fs_hz: float | None = None
    q_bits: int = 14
    full_scale_vpp: float = 2.0
    n_fft: int = 512
    threshold_factor: float = 6.0
    lead_pad: tuple = (16, 144)
    tail_pad: int = 32
    adc_backoff_db: float = 3.0

    def effective_snr_db(self) -> float | str:
        """SNR after optional noise-bandwidth scaling.

        When snr_ref_fs_hz is set, snr_db is interpreted at that rate and the
        noise power grows proportionally with fs_hz (fixed noise density).
        """
        if isinstance(self.snr_db, str) or self.snr_ref_fs_hz is None:
            return self.snr_db
        return float(self.snr_db) - 10.0 * np.log10(self.fs_hz / self.snr_ref_fs_hz)

    def adc(self) -> AdcConfig:
        return AdcConfig(q_bits=self.q_bits, full_scale_vpp=self.full_scale_vpp,
                         fs_hz=self.fs_hz)

    def window(self) -> int:
        return preamble_length(self.fs_hz, self.n_symbols)


def acquire(capture: IqCapture, window: int, threshold_factor: float = 6.0) -> IqCapture:
    """Locate the burst and return exactly `window` samples from its onset.

    Short-term power (trailing 16-sample mean) is compared against
    threshold_factor times a noise-floor estimate, the minimum mean power
    over non-overlapping 16-sample blocks (robust even when the burst fills
    most of the record). If no crossing occurs the maximum-energy window is
    returned instead and diagnostics["onset_flagged"] is set.
    """
    bursts, onsets, flagged = _acquire_rows(
        capture.samples[np.newaxis], np.array([len(capture)]), window, threshold_factor)
    diags = dict(capture.diagnostics)
    diags["onset_index"] = int(onsets[0])
    diags["onset_flagged"] = bool(flagged[0])
    return IqCapture(bursts[0], capture.fs_hz, capture.true_id, diags)


def _acquire_rows(x: np.ndarray, lengths: np.ndarray, window: int,
                  threshold_factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-detection acquisition (see `acquire`) of every row of x at once.

    Row r holds a record of lengths[r] samples followed by zero padding; only
    blocks, short-term windows and fallback energy windows that lie inside
    the record count. Returns the (rows, window) acquired bursts, the onset
    index of each row and whether each row fell back to the max-energy window.
    """
    n_min = int(lengths.min())
    if not 1 <= window <= n_min:
        raise ValueError(f"window must be in [1, {n_min}]: {window}")
    if threshold_factor <= 0:
        raise ValueError("threshold_factor must be positive")

    rows, width = x.shape
    power = np.abs(x) ** 2
    w = min(16, window)
    csum = np.zeros((rows, width + 1))
    np.cumsum(power, axis=1, out=csum[:, 1:])
    # trailing w-sample means, evaluated only where a full window exists so a
    # lone noise spike at the record start cannot fake an onset
    short_term = (csum[:, w:] - csum[:, :-w]) / w

    n_blocks = width // w
    blocks = power[:, : n_blocks * w].reshape(rows, n_blocks, w).mean(axis=2)
    blocks[np.arange(n_blocks) >= (lengths // w)[:, np.newaxis]] = np.inf
    threshold = threshold_factor * blocks.min(axis=1)

    starts = np.arange(short_term.shape[1])
    crossed = ((short_term > threshold[:, np.newaxis])
               & (starts <= (lengths - w)[:, np.newaxis]))
    flagged = ~crossed.any(axis=1)
    # short_term[i] covers samples [i, i+w-1]; the crossing window's last
    # sample is the first one carrying burst power
    onsets = crossed.argmax(axis=1) + (w - 1)
    if flagged.any():
        energy = csum[flagged, window:] - csum[flagged, :-window]
        outside = np.arange(energy.shape[1]) > (lengths[flagged] - window)[:, np.newaxis]
        energy[outside] = -np.inf
        onsets[flagged] = energy.argmax(axis=1)
    onsets = np.minimum(onsets, lengths - window)
    bursts = np.take_along_axis(x, onsets[:, np.newaxis] + np.arange(window), axis=1)
    return bursts, onsets, flagged


def _validate_n_fft(n_fft: int) -> None:
    if not (isinstance(n_fft, (int, np.integer)) and 64 <= n_fft <= 4096
            and (n_fft & (n_fft - 1)) == 0):
        raise ValueError(f"n_fft must be a power of two in [64, 4096]: {n_fft}")


def extract_spectral_feature(capture: IqCapture, n_fft: int) -> FeatureVector:
    """Welch log-spectrum fingerprint of a capture.

    Hann window, 50% segment overlap, two-sided spectrum in FFT bin order
    (DC first) so I/Q asymmetries are preserved. Captures shorter than n_fft
    are zero-padded to a single segment. The linear-power bins sum to the mean
    power of the (possibly padded) input; returned values are 10*log10 of the
    per-bin power.
    """
    _validate_n_fft(n_fft)
    values = _welch_db(capture.samples[np.newaxis], n_fft)[0]
    label = -1 if capture.true_id is None else int(capture.true_id)
    return FeatureVector(values=values, label=label)


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window of n points, summed in the same order as
    scipy.signal.get_window("hann", n), so the two are equal bit for bit."""
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
    periodogram = (spectra.real ** 2 + spectra.imag ** 2).mean(axis=1)
    bin_power = periodogram / (n_fft * np.sum(win * win))
    return 10.0 * np.log10(np.maximum(bin_power, _POWER_FLOOR))


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


def _entropy_words(x) -> int:
    """Number of uint32 words SeedSequence makes of an int or a sequence of ints."""
    if isinstance(x, (int, np.integer)):
        return max(1, (int(x).bit_length() + 31) // 32)
    return sum(_entropy_words(v) for v in x)


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


def build_dataset(profiles: list[DeviceProfile], per_class: int,
                  pipeline: PipelineConfig, master_seed: int = 0) -> FingerprintDataset:
    """Run the full pipeline for every device and assemble a labeled dataset.

    Each capture is the device preamble embedded in a noise-only lead-in/out,
    passed through AWGN, front-end backoff, the ADC, burst acquisition, and
    spectral extraction.

    Seeding contract: capture k of a device is seeded by
    SeedSequence(master_seed, spawn_key=(device_id, k)); its first child draws
    the lead-in length and its second seeds the standard-normal I/Q noise over
    exactly that capture's length, as `apply_awgn` would. Results therefore do
    not depend on the order of the profiles or on how captures are batched.
    The generator states of all captures are derived at once, in NumPy
    arithmetic (`_spawned_states`, `_seeded_states`), equal to NumPy's bit for
    bit.

    Batching: the per_class captures of one device go through the receive
    chain together as a zero-padded (per_class, longest capture) matrix. Noise,
    backoff and quantization act on the whole matrix; acquisition and Welch
    run row-wise through the same kernels as `acquire` and
    `extract_spectral_feature`, counting only each row's true length. Only
    the lead-in and noise draws run once per capture, and one device's batch
    is held in memory at a time.

    The meta records the fraction of captures whose acquisition fell back to
    the max-energy window (onset_flagged_frac) and the mean over captures of
    the fraction of samples that clipped in the ADC (clip_frac).
    """
    if len(profiles) < 2:
        raise ValueError("need at least 2 device profiles")
    ids = [p.device_id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ValueError("device_id values must be unique")
    if per_class < 2:
        raise ValueError("per_class must be >= 2")

    ordered = sorted(profiles, key=lambda p: p.device_id)
    window = pipeline.window()
    _validate_n_fft(pipeline.n_fft)
    adc = pipeline.adc()
    channel = ChannelConfig(pipeline.effective_snr_db())
    noise_std = None if channel.is_noiseless else _noise_std(channel.snr_db, 1.0)
    backoff = 10.0 ** (-pipeline.adc_backoff_db / 20.0)
    lead_lo, lead_hi = pipeline.lead_pad
    if not (0 <= lead_lo <= lead_hi):
        raise ValueError(f"invalid lead_pad range: {pipeline.lead_pad}")

    n_burst = preamble_length(pipeline.fs_hz, pipeline.n_symbols)
    width = lead_hi + n_burst + pipeline.tail_pad
    n_rows = len(ordered) * per_class
    features = np.empty((n_rows, pipeline.n_fft))
    labels = np.repeat(np.arange(len(ordered), dtype=np.int64), per_class)
    flagged = np.empty(n_rows, dtype=bool)
    clip = np.empty(n_rows)

    class_ids = [p.device_id for p in ordered]
    # children[d, k, 0] seeds the lead-in draw; the first word of
    # children[d, k, 1] is the noise seed
    children = _spawned_states(master_seed, class_ids, per_class)
    noise_states = _seeded_states(children[:, :, 1, 0])
    batch = np.arange(per_class)[:, np.newaxis]
    for ci, prof in enumerate(ordered):
        burst = generate_preamble(prof, pipeline.fs_hz, pipeline.n_symbols).samples
        leads = np.empty(per_class, dtype=np.intp)
        noise = np.zeros((per_class, 2, width))
        for k in range(per_class):
            rng = np.random.default_rng(_PresetState(children[ci, k, 0]))
            leads[k] = rng.integers(lead_lo, lead_hi + 1)
            if noise_std is not None:
                # the I rail then the Q rail: the same values as the (2, n)
                # draw of apply_awgn, straight into the zero-padded buffer
                n = leads[k] + n_burst + pipeline.tail_pad
                rng = np.random.default_rng(_PresetState(noise_states[ci, k]))
                rng.standard_normal(out=noise[k, 0, :n])
                rng.standard_normal(out=noise[k, 1, :n])
        lengths = leads + n_burst + pipeline.tail_pad

        x = np.zeros((per_class, width), dtype=np.complex128)
        x[batch, leads[:, np.newaxis] + np.arange(n_burst)] = burst
        if noise_std is not None:
            x = _add_noise(x, noise, noise_std)
        x *= backoff
        if not np.isfinite(x).all():
            raise ValueError("samples must be finite")
        x, clipped = _quantise(x, adc)
        bursts, _, row_flagged = _acquire_rows(x, lengths, window,
                                               pipeline.threshold_factor)

        rows = slice(ci * per_class, (ci + 1) * per_class)
        features[rows] = _welch_db(bursts, pipeline.n_fft)
        flagged[rows] = row_flagged
        clip[rows] = clipped.sum(axis=1) / lengths

    meta = DatasetMeta(fs_hz=pipeline.fs_hz, n_fft=pipeline.n_fft,
                       snr_db=channel.snr_db, q_bits=pipeline.q_bits,
                       class_ids=class_ids,
                       onset_flagged_frac=float(flagged.mean()),
                       clip_frac=float(clip.mean()))
    return FingerprintDataset(features, labels, meta)


def save_dataset(ds: FingerprintDataset, path) -> None:
    """Binary dataset container: header (n_rows, n_bins, meta) + float32 rows + labels."""
    meta_json = json.dumps(ds.meta.to_dict()).encode()
    with open(path, "wb") as fh:
        fh.write(_DATASET_MAGIC)
        fh.write(_DATASET_HEADER.pack(ds.n_samples, ds.n_bins, len(meta_json)))
        fh.write(meta_json)
        fh.write(ds.features.astype("<f4").tobytes())
        fh.write(ds.labels.astype("<i4").tobytes())


def load_dataset(path) -> FingerprintDataset:
    """Read a dataset written by save_dataset; a malformed file raises ValueError.

    Files written before the acquisition statistics were recorded load with
    meta.onset_flagged_frac and meta.clip_frac set to None.
    """
    raw = Path(path).read_bytes()
    if raw[:len(_DATASET_MAGIC)] != _DATASET_MAGIC:
        raise ValueError(f"not a dataset file (bad magic): {path}")
    meta_at = len(_DATASET_MAGIC) + _DATASET_HEADER.size
    if len(raw) < meta_at:
        raise ValueError(f"truncated dataset header in {path}")
    n_rows, n_bins, meta_len = _DATASET_HEADER.unpack_from(raw, len(_DATASET_MAGIC))
    payload_at = meta_at + meta_len
    if len(raw) < payload_at:
        raise ValueError(f"truncated dataset meta in {path}")
    try:
        meta_d = json.loads(raw[meta_at:payload_at].decode())
    except ValueError as exc:  # invalid UTF-8 or JSON
        raise ValueError(f"malformed dataset meta in {path}: {exc}") from None
    missing = [k for k in _REQUIRED_META if not isinstance(meta_d, dict) or k not in meta_d]
    if missing:
        raise ValueError(f"dataset meta in {path} lacks {missing}")
    if len(raw) < payload_at + 4 * n_rows * (n_bins + 1):
        raise ValueError(f"dataset payload size mismatch in {path}")
    feats = np.frombuffer(raw, dtype="<f4", count=n_rows * n_bins, offset=payload_at)
    labels = np.frombuffer(raw, dtype="<i4", count=n_rows,
                           offset=payload_at + 4 * n_rows * n_bins)
    meta = DatasetMeta(**{k: meta_d[k] for k in _REQUIRED_META},
                       onset_flagged_frac=meta_d.get("onset_flagged_frac"),
                       clip_frac=meta_d.get("clip_frac"))
    return FingerprintDataset(feats.reshape(n_rows, n_bins).astype(np.float64),
                              labels.astype(np.int64), meta)


def dataset_to_csv(ds: FingerprintDataset, path) -> None:
    """One row per sample, feature bins first, integer label last."""
    with open(path, "w", newline="") as fh:
        cols = [f"bin_{m}" for m in range(ds.n_bins)] + ["label"]
        fh.write(",".join(cols) + "\n")
        for i in range(ds.n_samples):
            vals = [repr(float(v)) for v in ds.features[i]]
            fh.write(",".join(vals + [str(int(ds.labels[i]))]) + "\n")
