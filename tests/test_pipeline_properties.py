"""Invariants of the receive-chain kernels and the dataset file, for all inputs.

The quantizer reproduces any in-range sample within half a step and is a
no-op on its own output; acquisition returns exactly `window` samples from
an onset inside each record, whatever the record lengths, the window and
the threshold; a dataset written by save_dataset reads back as its float32
image. The examples are derandomized so the suite runs the same inputs every
time.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rffcap.fingerprint import (  # noqa: E402
    DatasetMeta,
    FingerprintDataset,
    _acquire_rows,
    load_dataset,
    save_dataset,
)
from rffcap.signal_model import AdcConfig, _quantise  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(seeds, st.integers(4, 24), st.floats(0.1, 10.0), st.integers(1, 50))
def test_quantise_within_half_step_and_idempotent(seed, q_bits, full_scale, n):
    adc = AdcConfig(q_bits=q_bits, full_scale_vpp=full_scale)
    half, step = full_scale / 2.0, full_scale / 2.0 ** q_bits
    rng = np.random.default_rng(seed)
    x = rng.uniform(-half, half, n) + 1j * rng.uniform(-half, half, n)
    q, clipped = _quantise(x, adc)
    assert not clipped.any()
    # half a step, plus the rounding of x / step and of the product back
    tol = step / 2.0 * (1.0 + 1e-9)
    assert np.all(np.abs(q.real - x.real) <= tol)
    assert np.all(np.abs(q.imag - x.imag) <= tol)
    again, clipped_again = _quantise(q, adc)
    assert np.array_equal(again, q)
    assert not clipped_again.any()


@st.composite
def records(draw):
    """Rows of noise, some carrying a louder burst, zero-padded to one width."""
    seed = draw(seeds)
    rows = draw(st.integers(1, 6))
    window = draw(st.integers(1, 120))
    lengths = np.array(draw(st.lists(st.integers(window, 300), min_size=rows,
                                     max_size=rows)))
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, int(lengths.max())), dtype=np.complex128)
    for r, n in enumerate(lengths):
        x[r, :n] = rng.normal(size=n) + 1j * rng.normal(size=n)
        start = int(rng.integers(0, n))
        x[r, start:n] *= draw(st.sampled_from([1.0, 3.0, 30.0]))
    return x, lengths, window


@PROPERTY_SETTINGS
@given(records(), st.floats(0.01, 100.0))
def test_acquire_rows_returns_window_inside_each_record(data, threshold_factor):
    x, lengths, window = data
    bursts, onsets, flagged = _acquire_rows(x, lengths, window, threshold_factor)
    assert bursts.shape == (x.shape[0], window)
    assert flagged.shape == (x.shape[0],)
    assert np.all((0 <= onsets) & (onsets <= lengths - window))
    for r, onset in enumerate(onsets):
        assert np.array_equal(bursts[r], x[r, onset:onset + window])


@PROPERTY_SETTINGS
@given(seeds, st.integers(1, 40), st.integers(1, 20),
       st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=5, unique=True),
       st.one_of(st.floats(-50.0, 50.0), st.just("noiseless")),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_dataset_save_load_round_trip(tmp_path_factory, seed, n_rows, n_bins,
                                      class_ids, snr_db, frac):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(class_ids), n_rows)
    features = rng.normal(scale=30.0, size=(n_rows, n_bins))
    meta = DatasetMeta(fs_hz=4e6, n_fft=n_bins, snr_db=snr_db, q_bits=12,
                       class_ids=class_ids, onset_flagged_frac=frac, clip_frac=frac)
    ds = FingerprintDataset(features, labels, meta)
    path = tmp_path_factory.mktemp("rfds") / "ds.rfds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, features.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, labels)
    assert back.meta == meta
