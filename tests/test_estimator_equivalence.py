"""per_feature_mi, emi_kde and classify against straightforward reference
implementations.

The references are the plain forms of the kernels: one joint histogram per
feature column for the per-bin MI, a thin SVD and ``cdist`` squared distances
for the ensemble MI, and a three-operand einsum for the Mahalanobis
distances. The package computes the same quantities with one ``bincount``
over all columns, a Gram-matrix eigendecomposition and GEMM distances.
"""

import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rffcap.classifier import classify, fit_lda
from rffcap.fingerprint import DatasetMeta, FingerprintDataset, PipelineConfig, build_dataset
from rffcap.infotheory import emi_kde, per_feature_mi
from rffcap.signal_model import PopulationSpec, sample_profiles


def reference_per_feature_mi(x, labels, bins):
    """Returns (per_bin_mi, h_x), one column at a time."""
    _, y = np.unique(labels, return_inverse=True)
    n, m = x.shape
    n_classes = y.max() + 1
    mins = x.min(axis=0)
    widths = x.max(axis=0) - mins
    safe_w = np.where(widths > 0, widths, 1.0)
    idx = np.clip(((x - mins) / safe_w * bins).astype(np.int64), 0, bins - 1)
    idx[:, widths == 0] = 0
    p_y = np.bincount(y, minlength=n_classes) / n
    mi = np.empty(m)
    h_x = np.empty(m)
    for col in range(m):
        joint = np.bincount(idx[:, col] * n_classes + y,
                            minlength=bins * n_classes).reshape(bins, n_classes) / n
        p_x = joint.sum(axis=1)
        nz = joint > 0
        outer = p_x[:, None] * p_y[None, :]
        mi[col] = max(0.0, float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz]))))
        px_nz = p_x[p_x > 0]
        h_x[col] = float(-np.sum(px_nz * np.log2(px_nz)))
    return mi, h_x


def reference_emi_kde(x, labels, projected_dim):
    """Returns (emi_bits, projected_dim, rank)."""
    classes, y = np.unique(labels, return_inverse=True)
    n, counts = y.size, np.bincount(y)
    xc = x - x.mean(axis=0)
    _, svals, vt = np.linalg.svd(xc, full_matrices=False)
    rank = int(np.sum(svals > svals[0] * 1e-12))
    d = min(projected_dim, rank)
    z = xc @ vt[:d].T
    h = z.std(axis=0, ddof=1) * (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    u = z / h
    onehot = np.eye(classes.size)[y]
    total = 0.0
    for start in range(0, n, 1024):
        stop = min(start + 1024, n)
        mass = np.exp(-0.5 * cdist(u[start:stop], u, metric="sqeuclidean")) @ onehot
        own = mass[np.arange(stop - start), y[start:stop]]
        num = np.maximum(own - 1.0, 1e-300) / (counts[y[start:stop]] - 1)
        den = np.maximum(mass.sum(axis=1) - 1.0, 1e-300) / (n - 1)
        total += float(np.sum(np.log2(num / den)))
    return total / n, d, rank


def reference_assignments(model, test):
    z = test.features @ model.projection
    dist2 = np.column_stack([
        np.einsum("ij,jk,ik->i", z - mu, model.pooled_cov_inv, z - mu)
        for mu in model.class_means])
    assigned = model.class_ids[np.argmin(dist2, axis=1)]
    return assigned, float(np.mean(assigned != test.labels))


def make_ds(x, y):
    x = np.asarray(x, dtype=float)
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in np.asarray(y)}))
    return FingerprintDataset(x, np.asarray(y), meta)


def separated():
    rng = np.random.default_rng(1)
    y = np.repeat(np.arange(4), 60)
    centers = rng.normal(scale=8.0, size=(4, 5))
    return make_ds(rng.normal(size=(240, 5)) + centers[y], y), 3


def identical():
    rng = np.random.default_rng(2)
    return make_ds(rng.normal(size=(300, 4)), np.repeat(np.arange(3), 100)), 3


def rank_one():
    rng = np.random.default_rng(3)
    y = np.repeat(np.arange(3), 80)
    base = rng.normal(size=240) + 1.5 * y
    return make_ds(np.column_stack([base, 2.0 * base, -base]), y), 3


def crosses_block():
    rng = np.random.default_rng(4)
    y = np.repeat(np.arange(4), 275)  # 1,100 rows: one full 1,024-row block and a tail
    centers = rng.normal(scale=2.0, size=(4, 6))
    return make_ds(rng.normal(size=(1100, 6)) + centers[y], y), 4


def outlier():
    rng = np.random.default_rng(5)
    y = np.repeat(np.arange(3), 100)
    x = rng.normal(size=(300, 4)) + 3.0 * y[:, None]
    x[17] += 1e3
    return make_ds(x, y), 2


def spectra():
    profiles = sample_profiles(PopulationSpec(), 5, 6)
    return build_dataset(profiles, 60, PipelineConfig(n_fft=64), master_seed=6), 5


def constant_and_unequal():
    rng = np.random.default_rng(7)
    y = np.array([20] * 90 + [5] * 40 + [10] * 70)  # unequal classes, unsorted ids
    x = rng.normal(size=(200, 5)) + 0.8 * (y[:, None] == 5)
    x[:, 2] = 3.0  # a constant member
    return make_ds(x, y), 2


CASES = [separated, identical, rank_one, crosses_block, outlier, spectra]
MI_CASES = CASES + [constant_and_unequal]


@pytest.mark.parametrize("bins", [2, 16, 64])
@pytest.mark.parametrize("case", MI_CASES, ids=[c.__name__ for c in MI_CASES])
def test_per_feature_mi_matches_reference(case, bins):
    ds, _ = case()
    want_mi, want_h = reference_per_feature_mi(ds.features, ds.labels, bins)
    rep = per_feature_mi(ds, bins=bins)
    np.testing.assert_allclose(rep.per_bin_mi, want_mi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep.h_x, want_h, rtol=1e-12, atol=0)
    assert rep.bins == bins


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_emi_kde_matches_reference(case):
    ds, dim = case()
    want, want_dim, want_rank = reference_emi_kde(ds.features, ds.labels, dim)
    est = emi_kde(ds, projected_dim=dim)
    assert math.isclose(est.emi_bits, want, rel_tol=1e-9, abs_tol=1e-12)
    assert est.projected_dim == want_dim
    assert est.rank == want_rank


@pytest.mark.parametrize("case", CASES, ids=[c.__name__ for c in CASES])
def test_classify_matches_reference(case):
    ds, _ = case()
    train = FingerprintDataset(ds.features[0::2], ds.labels[0::2], ds.meta)
    test = FingerprintDataset(ds.features[1::2], ds.labels[1::2], ds.meta)
    model = fit_lda(train)
    want_ids, want_pe = reference_assignments(model, test)
    report = classify(model, test)
    assert np.array_equal(report.assigned_ids, want_ids)
    assert report.pe == want_pe
