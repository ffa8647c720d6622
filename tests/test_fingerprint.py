"""Acquisition, spectral features, dataset assembly, and dataset IO."""

import json
import re
import struct
from dataclasses import fields

import numpy as np
import pytest

from rffcap.cli import main
from rffcap.fingerprint import (
    DatasetMeta,
    FingerprintDataset,
    PipelineConfig,
    _acquire_rows,
    acquire,
    build_dataset,
    extract_spectral_feature,
    feature_bin_frequencies,
    load_dataset,
    save_dataset,
)
from rffcap.signal_model import (
    DeviceProfile,
    ParamDist,
    PopulationSpec,
    apply_awgn,
    generate_preamble,
    sample_profiles,
)


def test_acquire_exact_onset_noise_free():
    pre = generate_preamble(DeviceProfile(device_id=0), 4e6, 8)
    padded = np.concatenate([np.zeros(100, dtype=complex), pre,
                             np.zeros(40, dtype=complex)])
    burst, onset, flagged = acquire(padded, window=pre.size)
    assert onset == 100
    assert not flagged
    assert np.array_equal(burst, pre)


@pytest.mark.xfail(strict=True, reason="the onset is the last sample of the first full "
                   "16-sample window above threshold, so lead-ins under 16 read 15 "
                   "(ROADMAP item 7)")
def test_acquire_rows_onset_equals_a_short_lead_in():
    pre = generate_preamble(DeviceProfile(device_id=0), 4e6, 8)
    leads = np.array([0, 5, 14, 15])
    width = 16 + pre.size + 32
    x = np.zeros((leads.size, width), dtype=complex)
    for r, lead in enumerate(leads):
        x[r, lead:lead + pre.size] = pre
    rng = np.random.default_rng(5)
    x += 1e-3 * (rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape))
    _, onsets, flagged = _acquire_rows(x, np.full(leads.size, width), pre.size, 6.0)
    assert not flagged.any()
    assert np.array_equal(onsets, leads)


def test_acquire_pure_noise_is_flagged():
    rng = np.random.default_rng(31)
    x = 0.01 * (rng.normal(size=800) + 1j * rng.normal(size=800))
    burst, _, flagged = acquire(x, window=512)
    assert flagged
    assert burst.size == 512


def test_acquire_onset_accuracy_under_noise():
    """At 20 dB the detected onset should land within 4 samples nearly always."""
    pre = generate_preamble(DeviceProfile(device_id=0), 4e6, 8)
    hits = 0
    trials = 300
    for k in range(trials):
        lead = 16 + (k * 7) % 129  # spread onsets over [16, 144]
        padded = np.concatenate([np.zeros(lead, dtype=complex), pre,
                                 np.zeros(32, dtype=complex)])
        noisy = apply_awgn(padded, 20.0, seed=9000 + k, signal_power=1.0)
        _, onset, _ = acquire(noisy, window=pre.size)
        if abs(onset - lead) <= 4:
            hits += 1
    assert hits / trials >= 0.99


def test_acquire_validation():
    x = np.ones(64, dtype=complex)
    with pytest.raises(ValueError):
        acquire(x, window=0)
    with pytest.raises(ValueError):
        acquire(x, window=65)


def test_feature_localizes_tone():
    n_fft = 64
    fs = 4e6
    n = 4096
    t = np.arange(n)
    f_tone = 8 * fs / n_fft  # exactly bin 8
    feat = extract_spectral_feature(np.exp(2j * np.pi * f_tone * t / fs), n_fft)
    assert isinstance(feat, np.ndarray) and feat.dtype == np.float64
    assert feat.shape == (n_fft,)
    assert int(np.argmax(feat)) == 8
    # negative frequency lands in the upper half of the fft ordering
    tone_neg = np.exp(-2j * np.pi * f_tone * t / fs)
    assert int(np.argmax(extract_spectral_feature(tone_neg, n_fft))) == 56


def test_feature_total_power_parseval():
    """Linear bin sum recovers the mean power of the analysed block."""
    rng = np.random.default_rng(77)
    x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    feat = extract_spectral_feature(x, 256)
    total = np.sum(10.0 ** (feat / 10.0))
    assert abs(total / np.mean(np.abs(x) ** 2) - 1.0) < 0.05


def test_feature_zero_pads_short_input():
    """A capture shorter than n_fft behaves exactly like its padded version."""
    rng = np.random.default_rng(78)
    x = rng.normal(size=100) + 1j * rng.normal(size=100)
    feat = extract_spectral_feature(x, 256)
    assert feat.size == 256
    padded = np.zeros(256, dtype=complex)
    padded[:100] = x
    explicit = extract_spectral_feature(padded, 256)
    assert np.array_equal(feat, explicit)


def test_feature_floor_on_silence():
    feat = extract_spectral_feature(np.zeros(512, dtype=complex), 128)
    assert np.all(feat == -300.0)


def test_feature_bin_frequencies():
    assert np.array_equal(feature_bin_frequencies(64, 4e6), np.fft.fftfreq(64, d=1 / 4e6))


def test_build_dataset_shapes_and_determinism():
    profiles = sample_profiles(PopulationSpec(), 5, seed=2)
    cfg = PipelineConfig(n_fft=128, snr_db=24.0)
    ds1 = build_dataset(profiles, 6, cfg, master_seed=7)
    ds2 = build_dataset(profiles, 6, cfg, master_seed=7)
    ds3 = build_dataset(profiles, 6, cfg, master_seed=8)
    assert ds1.features.shape == (30, 128)
    assert ds1.labels.shape == (30,)
    assert np.array_equal(np.unique(ds1.labels), np.arange(5))
    assert ds1.meta.class_ids == list(range(5))
    assert ds1.meta.n_fft == 128
    assert np.array_equal(ds1.features, ds2.features)
    assert not np.array_equal(ds1.features, ds3.features)


def test_build_dataset_order_invariance():
    profiles = sample_profiles(PopulationSpec(), 4, seed=3)
    cfg = PipelineConfig(n_fft=64)
    fwd = build_dataset(profiles, 3, cfg, master_seed=1)
    rev = build_dataset(list(reversed(profiles)), 3, cfg, master_seed=1)
    assert np.array_equal(fwd.features, rev.features)
    assert np.array_equal(fwd.labels, rev.labels)


def test_cfo_difference_shows_in_features():
    """Two devices 50 kHz apart must differ visibly in at least one bin."""
    cfg = PipelineConfig(n_fft=128, snr_db=30.0)
    a = DeviceProfile(device_id=0, cfo_hz=0.0)
    b = DeviceProfile(device_id=1, cfo_hz=50e3)
    ds = build_dataset([a, b], 20, cfg, master_seed=5)
    mean_a = ds.features[ds.labels == 0].mean(axis=0)
    mean_b = ds.features[ds.labels == 1].mean(axis=0)
    assert np.max(np.abs(mean_a - mean_b)) > 3.0


def test_effective_snr_db():
    assert PipelineConfig().effective_snr_db() == 24.0
    cfg = PipelineConfig(fs_hz=8e6, snr_db=24.0, snr_ref_fs_hz=4e6)
    assert abs(cfg.effective_snr_db() - (24.0 - 10 * np.log10(2.0))) < 1e-12
    noiseless = PipelineConfig(snr_db="noiseless", snr_ref_fs_hz=4e6)
    assert noiseless.effective_snr_db() == "noiseless"


@pytest.mark.parametrize("kwargs, name", [({"n_symbols": True}, "n_symbols"),
                                          ({"lead_pad": (True, 5)}, "lead_pad low"),
                                          ({"lead_pad": (0, False)}, "lead_pad high"),
                                          ({"tail_pad": True}, "tail_pad")])
def test_pipeline_counts_reject_bools(kwargs, name):
    # a bool is an int to isinstance, but no count
    with pytest.raises(ValueError, match=f"{name} must be >= .* and an integer: (True|False)"):
        PipelineConfig(**kwargs)


def test_dataset_io_roundtrip(tmp_path):
    profiles = sample_profiles(PopulationSpec(), 3, seed=4)
    ds = build_dataset(profiles, 4, PipelineConfig(n_fft=64), master_seed=2)
    path = tmp_path / "ds.rfds"
    save_dataset(ds, path)
    back = load_dataset(path)
    # storage is float32; the roundtrip must be exact at that precision
    assert np.array_equal(back.features,
                          ds.features.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, ds.labels)
    assert back.meta.fs_hz == ds.meta.fs_hz
    assert back.meta.class_ids == ds.meta.class_ids
    assert isinstance(back, FingerprintDataset)


@pytest.mark.parametrize("label", [-1, 3, 2**32])
def test_save_dataset_rejects_labels_load_dataset_would_not_read(tmp_path, label):
    # 2**32 wrapped to 0 in the int32 payload and loaded back without error
    meta = DatasetMeta(fs_hz=4e6, n_fft=64, snr_db=24.0, q_bits=14, class_ids=[4, 7, 9])
    ds = FingerprintDataset(np.zeros((3, 64)), [0, 1, label], meta)
    path = tmp_path / "bad.rfds"
    with pytest.raises(ValueError, match=r"bad\.rfds lie outside \[0, 3\)"):
        save_dataset(ds, path)
    assert not path.exists()


def test_dataset_csv_header_and_body(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text("pipeline: {n_fft: 64}\nn_devices: 2\nper_class: 2\nseed: 4\n")
    path = tmp_path / "ds.csv"
    assert main(["simulate", "--config", str(config), "--format", "csv",
                 "--out", str(path)]) == 0
    profiles = sample_profiles(PopulationSpec(), 2, seed=4)
    ds = build_dataset(profiles, 2, PipelineConfig(n_fft=64), master_seed=4)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "bin_0"
    assert header[-2] == "bin_63"
    assert header[-1] == "label"
    assert len(lines) == 1 + 4
    for line, features, label in zip(lines[1:], ds.features, ds.labels):
        cells = line.split(",")
        assert len(cells) == 65
        assert [float(c) for c in cells[:-1]] == features.tolist()
        assert cells[-1] == str(label)


def test_build_dataset_validation():
    with pytest.raises(ValueError):
        build_dataset([], 5, PipelineConfig())


def test_dataset_meta_reports_acquisition_statistics(tmp_path):
    profiles = sample_profiles(PopulationSpec(), 3, seed=6)
    noisy = build_dataset(profiles, 20, PipelineConfig(n_fft=64, snr_db=0.0), master_seed=3)
    clean = build_dataset(profiles, 20, PipelineConfig(n_fft=64, snr_db=30.0), master_seed=3)
    assert noisy.meta.onset_flagged_frac >= 0.5
    assert clean.meta.onset_flagged_frac <= 0.1
    assert noisy.meta.clip_frac > 0.05
    assert clean.meta.clip_frac == 0.0
    for ds in (noisy, clean):
        path = tmp_path / "ds.rfds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.meta.onset_flagged_frac == ds.meta.onset_flagged_frac
        assert back.meta.clip_frac == ds.meta.clip_frac


def _write_rfds(path, meta: bytes, n_rows=2, n_bins=3, payload=None):
    if payload is None:
        payload = bytes(4 * n_rows * (n_bins + 1))
    path.write_bytes(b"RFPD" + struct.pack("<QQI", n_rows, n_bins, len(meta))
                     + meta + payload)


def test_load_dataset_without_statistics_gives_none(tmp_path):
    """Files written before the statistics were recorded still load."""
    path = tmp_path / "old.rfds"
    _write_rfds(path, json.dumps({"fs_hz": 4e6, "n_fft": 3, "snr_db": 24.0,
                                  "q_bits": 14, "class_ids": [0, 1]}).encode())
    ds = load_dataset(path)
    assert ds.features.shape == (2, 3)
    assert ds.meta.onset_flagged_frac is None
    assert ds.meta.clip_frac is None


@pytest.fixture
def saved_dataset(tmp_path):
    profiles = sample_profiles(PopulationSpec(), 2, seed=4)
    ds = build_dataset(profiles, 2, PipelineConfig(n_fft=64), master_seed=2)
    path = tmp_path / "ds.rfds"
    save_dataset(ds, path)
    raw = path.read_bytes()
    meta_len = struct.unpack_from("<QQI", raw, 4)[2]
    return raw, 24 + meta_len


@pytest.mark.parametrize("where", ["magic", "header", "meta", "features", "labels"])
def test_load_dataset_rejects_truncation(tmp_path, saved_dataset, where):
    raw, payload_at = saved_dataset
    cut = {"magic": 2, "header": 6, "meta": 30, "features": payload_at + 10,
           "labels": len(raw) - 2}[where]
    path = tmp_path / "cut.rfds"
    path.write_bytes(raw[:cut])
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("meta", [b'{"fs_hz": 4e6, "n_f', b"\xff\xfe{}", b"[1, 2]",
                                  b'{"fs_hz": 4e6}',
                                  b'{"fs_hz": 4e6, "n_fft": 3, "snr_db": 24.0, "q_bits": 14,'
                                  b' "class_ids": 2}'])
def test_load_dataset_rejects_malformed_meta(tmp_path, meta):
    path = tmp_path / "bad.rfds"
    _write_rfds(path, meta)
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("key, value", [
    ("fs_hz", "abc"), ("fs_hz", True), ("n_fft", 64.0), ("n_fft", None), ("q_bits", "14"),
    ("snr_db", "loud"), ("snr_db", False), ("class_ids", ["a", "b"]), ("class_ids", [0, -1]),
    ("class_ids", [0, 1.0]), ("onset_flagged_frac", "none"), ("clip_frac", [0.1]),
    ("clip_frac", True), ("snr_db", float("nan")), ("snr_db", -5000.0),
    ("fs_hz", float("nan")), ("fs_hz", -1.0), ("fs_hz", float("inf")), ("clip_frac", 5.0),
    ("clip_frac", float("nan")), ("onset_flagged_frac", -0.1), ("q_bits", -5), ("q_bits", 25),
    ("n_fft", -7), ("n_fft", 0)])
def test_load_dataset_rejects_ill_typed_meta(tmp_path, key, value):
    """Each meta value must have its field's type; a bool is not a number."""
    path = tmp_path / "typed.rfds"
    meta = {"fs_hz": 4e6, "n_fft": 64, "snr_db": "noiseless", "q_bits": 14,
            "class_ids": [3, 7], "onset_flagged_frac": None, "clip_frac": 0.0}
    _write_rfds(path, json.dumps(meta).encode())
    assert load_dataset(path).meta.class_ids == [3, 7]
    _write_rfds(path, json.dumps(meta | {key: value}).encode())
    annotation = {f.name: f.type for f in fields(DatasetMeta)}[key]
    message = {  # what an annotation cannot say, checked by DatasetMeta itself
        ("snr_db", "'loud'"): "meta: snr_db must be 'noiseless', or finite and >= -1000: 'loud'",
        # both loaded while the meta rejected only a string other than "noiseless"
        ("snr_db", "nan"): "meta: snr_db must be 'noiseless', or finite and >= -1000: nan",
        ("snr_db", "-5000.0"): "meta: snr_db must be 'noiseless', or finite and >= -1000: -5000.0",
        ("class_ids", "['a', 'b']"): "meta: class_ids must be >= 0 and an integer: 'a'",
        ("class_ids", "[0, -1]"): "meta: class_ids must be >= 0 and an integer: -1",
        ("class_ids", "[0, 1.0]"): "meta: class_ids must be >= 0 and an integer: 1.0",
        # all loaded while the meta checked no real-valued limit
        ("fs_hz", "nan"): "meta: fs_hz must be >= 0.0 and finite: nan",
        ("fs_hz", "-1.0"): "meta: fs_hz must be >= 0.0 and finite: -1.0",
        ("fs_hz", "inf"): "meta: fs_hz must be >= 0.0 and finite: inf",
        ("clip_frac", "5.0"): "meta: clip_frac must be >= 0.0, <= 1.0 and finite: 5.0",
        ("clip_frac", "nan"): "meta: clip_frac must be >= 0.0, <= 1.0 and finite: nan",
        ("onset_flagged_frac", "-0.1"):
            "meta: onset_flagged_frac must be >= 0.0, <= 1.0 and finite: -0.1",
        # both loaded while the meta checked no q_bits limit
        ("q_bits", "-5"): "meta: q_bits must be >= 4, <= 24 and an integer: -5",
        ("q_bits", "25"): "meta: q_bits must be >= 4, <= 24 and an integer: 25",
        # both loaded while the meta checked no n_fft limit; any positive width loads
        ("n_fft", "-7"): "meta: n_fft must be >= 1 and an integer: -7",
        ("n_fft", "0"): "meta: n_fft must be >= 1 and an integer: 0",
    }.get((key, repr(value)), f"meta.{key}: expected {annotation}, got {value!r}")
    with pytest.raises(ValueError, match=re.escape(f"typed.rfds: {message}")):
        load_dataset(path)


@pytest.mark.parametrize("change, message", [
    ({"gain_db": 3.0}, "unknown keys ['gain_db']"),
    ({"class_ids": [0, True]}, "class_ids must be >= 0 and an integer: True")])
def test_load_dataset_rejects_unknown_meta_key_and_boolean_class_id(tmp_path, change, message):
    path = tmp_path / "extra.rfds"
    meta = {"fs_hz": 4e6, "n_fft": 3, "snr_db": 24.0, "q_bits": 14, "class_ids": [0, 1]}
    _write_rfds(path, json.dumps(meta | change).encode())
    with pytest.raises(ValueError, match=re.escape(f"extra.rfds: meta: {message}")):
        load_dataset(path)


@pytest.mark.parametrize("change", ["trailing_bytes", "understated_rows"])
def test_load_dataset_rejects_payload_size_mismatch(tmp_path, saved_dataset, change):
    """40 extra bytes, or a header claiming 2 rows fewer, which would read
    feature bytes as labels."""
    raw, _ = saved_dataset
    if change == "trailing_bytes":
        raw += bytes(40)
    else:
        n_rows = struct.unpack_from("<Q", raw, 4)[0]
        raw = raw[:4] + struct.pack("<Q", n_rows - 2) + raw[12:]
    path = tmp_path / "sized.rfds"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="size mismatch in .*sized.rfds"):
        load_dataset(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_save_and_load_dataset_reject_non_finite_features(tmp_path, bad):
    # a NaN feature loaded: rffcap mi read 0 bits for its member, with a
    # RuntimeWarning, and fit_lda ended in LinAlgError
    meta = DatasetMeta(fs_hz=4e6, n_fft=3, snr_db=24.0, q_bits=14, class_ids=[5, 9])
    features = np.zeros((2, 3))
    features[1, 2] = bad
    path = tmp_path / "nan.rfds"
    with pytest.raises(ValueError, match=r"^dataset features in .*nan\.rfds are not all finite$"):
        save_dataset(FingerprintDataset(features, [0, 1], meta), path)
    assert not path.exists()
    _write_rfds(path, json.dumps(meta.to_dict()).encode(),
                payload=features.astype("<f4").tobytes() + struct.pack("<2i", 0, 1))
    with pytest.raises(ValueError, match=r"^dataset features in .*nan\.rfds are not all finite$"):
        load_dataset(path)


def test_empty_dataset_round_trips(tmp_path):
    # the finiteness check takes no min or max of zero rows
    meta = DatasetMeta(fs_hz=4e6, n_fft=3, snr_db=24.0, q_bits=14, class_ids=[5, 9])
    path = tmp_path / "empty.rfds"
    save_dataset(FingerprintDataset(np.zeros((0, 3)), [], meta), path)
    assert load_dataset(path).features.shape == (0, 3)


@pytest.mark.parametrize("label", [-1, 2, -1046183366])
def test_load_dataset_rejects_labels_outside_class_ids(tmp_path, label):
    path = tmp_path / "labels.rfds"
    meta = json.dumps({"fs_hz": 4e6, "n_fft": 3, "snr_db": 24.0, "q_bits": 14,
                       "class_ids": [5, 9]}).encode()
    _write_rfds(path, meta, payload=bytes(4 * 2 * 3) + struct.pack("<2i", 0, label))
    with pytest.raises(ValueError, match=r"labels in .*labels.rfds lie outside \[0, 2\)"):
        load_dataset(path)
