"""Invariances of the MI estimators that must hold for every input.

emi_kde depends on the features only through their centered principal
projection divided by per-dimension bandwidths, and on the labels only
through which samples share a class. Relabelling the classes, translating
the features or scaling them by one factor must therefore leave the estimate
unchanged up to rounding. The per-member histogram MI likewise cannot depend
on the label values. The examples are derandomized so the suite runs the
same inputs every time.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rffcap.fingerprint import DatasetMeta, FingerprintDataset  # noqa: E402
from rffcap.infotheory import emi_kde, per_feature_mi  # noqa: E402

PER_CLASS = 30
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def make_ds(x, labels):
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in labels}))
    return FingerprintDataset(x, labels, meta)


@st.composite
def blobs(draw):
    """Gaussian classes around random centres, with distinct label values."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_classes = draw(st.integers(2, 4))
    n_features = draw(st.integers(2, 5))
    label_values = draw(st.lists(st.integers(0, 1000), min_size=n_classes,
                                 max_size=n_classes, unique=True))
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(n_classes), PER_CLASS)
    centers = rng.normal(scale=2.0, size=(n_classes, n_features))
    x = rng.normal(size=(y.size, n_features)) + centers[y]
    return x, y, np.array(label_values)


def same(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@PROPERTY_SETTINGS
@given(blobs(), st.randoms(use_true_random=False))
def test_emi_kde_ignores_label_values(data, rnd):
    x, y, values = data
    permuted = np.array(rnd.sample(list(values), len(values)))
    a = emi_kde(make_ds(x, values[y]), projected_dim=2)
    b = emi_kde(make_ds(x, permuted[y]), projected_dim=2)
    assert same(a.emi_bits, b.emi_bits)


@PROPERTY_SETTINGS
@given(blobs(), st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5))
def test_emi_kde_ignores_translation(data, offsets):
    x, y, values = data
    a = emi_kde(make_ds(x, values[y]), projected_dim=2)
    b = emi_kde(make_ds(x + np.array(offsets[:x.shape[1]]), values[y]), projected_dim=2)
    assert same(a.emi_bits, b.emi_bits)


@PROPERTY_SETTINGS
@given(blobs(), st.floats(1e-3, 1e3))
def test_emi_kde_ignores_scale(data, scale):
    x, y, values = data
    a = emi_kde(make_ds(x, values[y]), projected_dim=2)
    b = emi_kde(make_ds(x * scale, values[y]), projected_dim=2)
    assert same(a.emi_bits, b.emi_bits)


@PROPERTY_SETTINGS
@given(blobs(), st.randoms(use_true_random=False))
def test_per_feature_mi_ignores_label_values(data, rnd):
    x, y, values = data
    permuted = np.array(rnd.sample(list(values), len(values)))
    a = per_feature_mi(make_ds(x, values[y]), bins=16)
    b = per_feature_mi(make_ds(x, permuted[y]), bins=16)
    # the class sums run in another order, so only rounding may differ
    np.testing.assert_allclose(a.per_bin_mi, b.per_bin_mi, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(a.h_x, b.h_x, rtol=1e-12, atol=1e-15)
