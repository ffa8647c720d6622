"""per_feature_mi, emi_kde, fit_lda and classify against straightforward
reference implementations.

The references are the plain forms of the kernels: one joint histogram per
feature column for the per-bin MI, a thin SVD and ``cdist`` squared distances
for the ensemble MI, scipy's full generalized eigensolve for the LDA
directions, and a three-operand einsum for the Mahalanobis distances. The
package computes the same quantities with blocked ``bincount`` calls, a
Gram-matrix eigendecomposition and GEMM distances, and a Cholesky/SVD solve
at the rank of the between-class scatter. emi_kde is also checked against
its own earlier form, which projected onto every principal direction.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from rffcap.classifier import LdaModel, classify, fit_lda
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


def full_projection_emi_kde(x, labels, projected_dim):
    """emi_kde as it was before it projected only the kept and the near-zero
    principal directions: every column of ``xc @ vecs`` is measured, and
    the kernel runs in 1,024-row blocks. Returns (emi_bits, projected_dim,
    rank)."""
    _, y = np.unique(labels, return_inverse=True)
    n, counts = y.size, np.bincount(y)
    xc = x - x.mean(axis=0)
    _, vecs = np.linalg.eigh(xc.T @ xc)
    proj = xc @ vecs[:, ::-1]
    svals = np.sqrt(np.einsum("ij,ij->j", proj, proj))
    rank = int(np.sum(svals > svals.max() * 1e-12))
    d = min(projected_dim, rank)
    z = proj[:, :d]
    h = z.std(axis=0, ddof=1) * (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    u = z / h
    half_sq = 0.5 * np.einsum("ij,ij->i", u, u)
    onehot = np.eye(counts.size)[y]
    total = 0.0
    for start in range(0, n, 1024):
        stop = min(start + 1024, n)
        rows = np.arange(stop - start)
        kern = u[start:stop] @ u.T
        kern -= half_sq[start:stop, None]
        kern -= half_sq
        np.minimum(kern, 0.0, out=kern)
        kern[rows, start + rows] = 0.0
        mass = np.exp(kern) @ onehot
        num = np.maximum(mass[rows, y[start:stop]] - 1.0, 1e-300) / (counts[y[start:stop]] - 1)
        den = np.maximum(mass.sum(axis=1) - 1.0, 1e-300) / (n - 1)
        total += float(np.sum(np.log2(num / den)))
    return total / n, d, rank


def reference_fit_lda(train, kappa):
    """fit_lda with scipy's generalized eigensolve of the full m x m pencil
    (sb, sw + ridge*I) at the default ridge. Returns (model, eigenvalues in
    descending order, sw + ridge*I)."""
    classes, y = np.unique(train.labels, return_inverse=True)
    n_classes, counts = classes.size, np.bincount(y)
    x = train.features
    n, m = x.shape
    means = np.vstack([x[y == c].mean(axis=0) for c in range(n_classes)])
    within = x - means[y]
    sw = within.T @ within
    centered_means = means - x.mean(axis=0)
    sb = (centered_means * counts[:, None]).T @ centered_means
    ridge = 1e-6 * np.trace(sw) / m
    sw_reg = sw + ridge * np.eye(m)
    eigvals, eigvecs = scipy.linalg.eigh(sb, sw_reg)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    rank = int(np.sum(eigvals > eigvals[0] * 1e-9))
    kappa_eff = min(kappa, n_classes - 1, rank)
    projection = eigvecs[:, :kappa_eff]
    z = x @ projection
    z_means = np.vstack([z[y == c].mean(axis=0) for c in range(n_classes)])
    zw = z - z_means[y]
    pooled = zw.T @ zw / max(n - n_classes, 1)
    pooled += (1e-9 * max(np.trace(pooled), ridge) / kappa_eff) * np.eye(kappa_eff)
    model = LdaModel(projection=projection, class_means=z_means,
                     pooled_cov_inv=np.linalg.inv(pooled), class_ids=classes,
                     kappa_eff=kappa_eff, ridge=ridge)
    return model, eigvals, sw_reg


def subspace_gap(a, b):
    """Sine of the largest principal angle between the column spaces of a
    and b, as ||Qb - Qa Qa^T Qb||_2, which stays accurate for small angles."""
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return float(np.linalg.norm(qb - qa @ (qa.T @ qb), ord=2))


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


def scaled_columns():
    # column scales straddle both cut-offs: the 1e-10 Gram-eigenvalue one
    # below which emi_kde measures a direction, and the 1e-12 singular-value
    # one of the rank test; 279 rows are not a multiple of the kernel block
    rng = np.random.default_rng(8)
    y = np.repeat(np.arange(3), 93)
    x = rng.normal(size=(279, 6)) * np.array([1.0, 1e-4, 1e-6, 1e-11, 1e-13, 0.0])
    x[:, 0] += 1.5 * y
    x[:, 1] += 2e-4 * (y == 1)
    return make_ds(x + 7.0, y), 3


def many_rows():
    # 4,000 x 256: the centered features are formed in several 1,024-row
    # blocks and a tail, and the kernel runs in many 128-row blocks
    rng = np.random.default_rng(14)
    y = np.repeat(np.arange(20), 200)
    centers = rng.normal(scale=0.5, size=(20, 256))
    return make_ds(rng.normal(size=(4000, 256)) + centers[y], y), 10


def unequal_counts():
    rng = np.random.default_rng(9)
    y = np.repeat(np.arange(5), [30, 80, 55, 120, 41])
    centers = rng.normal(scale=1.5, size=(5, 8))
    return make_ds(rng.normal(size=(y.size, 8)) + centers[y], y), 150


def kappa_below_c_minus_1():
    rng = np.random.default_rng(10)
    y = np.repeat(np.arange(7), 50)
    centers = rng.normal(scale=2.0, size=(7, 9))
    return make_ds(rng.normal(size=(350, 9)) + centers[y], y), 2


def equal_means():
    # classes 1 and 2 share a mean in the even (training) and the odd rows,
    # so the between-class rank is C - 2
    rng = np.random.default_rng(11)
    y = np.repeat(np.arange(5), 60)
    centers = rng.normal(scale=2.0, size=(5, 6))
    x = rng.normal(size=(300, 6)) + centers[y]
    even = np.arange(300) % 2 == 0
    for c in (1, 2):
        for rows in (even & (y == c), ~even & (y == c)):
            x[rows] += centers[1] - x[rows].mean(axis=0)
    return make_ds(x, y), 150


def near_singular_within():
    # a duplicated column: the within scatter is singular and only the
    # default ridge makes the pencil definite
    rng = np.random.default_rng(12)
    y = np.repeat(np.arange(4), 70)
    centers = rng.normal(scale=2.0, size=(4, 5))
    x = rng.normal(size=(280, 5)) + centers[y]
    return make_ds(np.column_stack([x, x[:, 2]]), y), 150


def welch_40_classes():
    # 10 dB SNR, so that about one test capture in eight is misassigned
    profiles = sample_profiles(PopulationSpec(), 40, 13)
    pipeline = PipelineConfig(n_fft=64, snr_db=10.0)
    return build_dataset(profiles, 40, pipeline, master_seed=13), 150


CASES = [separated, identical, rank_one, crosses_block, outlier, spectra]
MI_CASES = CASES + [constant_and_unequal]
LDA_CASES = [unequal_counts, kappa_below_c_minus_1, equal_means, near_singular_within,
             welch_40_classes, separated, rank_one, spectra]


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


@pytest.mark.parametrize("case", CASES + [scaled_columns, many_rows],
                         ids=[c.__name__ for c in CASES + [scaled_columns, many_rows]])
def test_emi_kde_matches_full_projection(case):
    ds, dim = case()
    want, want_dim, want_rank = full_projection_emi_kde(ds.features, ds.labels, dim)
    est = emi_kde(ds, projected_dim=dim)
    assert (est.rank, est.projected_dim) == (want_rank, want_dim)
    assert math.isclose(est.emi_bits, want, rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("case", LDA_CASES, ids=[c.__name__ for c in LDA_CASES])
def test_fit_lda_matches_generalized_eigensolve(case):
    ds, kappa = case()
    train = FingerprintDataset(ds.features[0::2], ds.labels[0::2], ds.meta)
    test = FingerprintDataset(ds.features[1::2], ds.labels[1::2], ds.meta)
    want, eigvals, sw_reg = reference_fit_lda(train, kappa)
    model = fit_lda(train, kappa=kappa)
    k = model.kappa_eff
    assert k == want.kappa_eff
    p = model.projection
    np.testing.assert_allclose(p.T @ sw_reg @ p, np.eye(k), rtol=0, atol=1e-9)
    for j in range(1, k + 1):
        # each leading subspace whose last eigenvalue is set apart from the next
        if eigvals[j - 1] - eigvals[j] > 1e-6 * eigvals[0]:
            assert subspace_gap(p[:, :j], want.projection[:, :j]) < 1e-8
    report, expected = classify(model, test), classify(want, test)
    got_ids, want_ids = report.assigned_ids, expected.assigned_ids
    if case is equal_means:
        # classes 1 and 2 have the same projected mean, so rounding alone
        # decides between them: compare the assignments with the two merged
        got_ids, want_ids = (np.where(ids == 2, 1, ids) for ids in (got_ids, want_ids))
    else:
        assert report.pe == expected.pe
    assert np.array_equal(got_ids, want_ids)
