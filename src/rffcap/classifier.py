"""Fisher discriminant classifier for empirical error-rate cross-checks.

Fits a supervised linear projection (between-class vs. ridge-regularized
within-class scatter), then assigns identities by Mahalanobis distance to the
projected class means under the pooled within-class covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._records import _check_count, _check_real
from .capacity import MIN_USERS
from .fingerprint import (FingerprintDataset, PipelineConfig, _column_means, _float64_blocks,
                          build_dataset)
from .signal_model import DeviceProfile


@dataclass
class LdaModel:
    projection: np.ndarray       # (n_bins, k) discriminant directions
    class_means: np.ndarray      # (C, k) projected means
    pooled_cov_inv: np.ndarray   # (k, k) inverse regularized pooled covariance
    class_ids: np.ndarray        # (C,) training label values, ascending
    kappa_eff: int               # number of discriminant directions kept
    ridge: float                 # ridge added to the within-class scatter


@dataclass
class ClassificationReport:
    """Per-sample assignments plus aggregate error statistics.

    per_class_errors counts errors among test samples of each trained class;
    samples whose true label was never trained are always errors and are
    collected in unseen_labels. assigned_ids, true_ids and class_ids hold
    label values, as LdaModel.class_ids does: a built dataset's labels are
    indices into its meta.class_ids, not the device ids themselves.
    """

    pe: float
    per_class_errors: np.ndarray
    min_distance_scores: np.ndarray
    confusion: np.ndarray
    assigned_ids: np.ndarray
    true_ids: np.ndarray
    class_ids: np.ndarray
    unseen_labels: list = field(default_factory=list)

    @property
    def n_test(self) -> int:
        return self.true_ids.size


def _project(x: np.ndarray, projection: np.ndarray) -> np.ndarray:
    """x @ projection, one product per float64 row block into one output array.

    NumPy allocates nothing for the products, but one product over a few
    thousand rows grows the process by OpenBLAS work-buffer pages several
    times larger than one over a block (README "Estimator notes").
    """
    z = np.empty((x.shape[0], projection.shape[1]))
    for lo, rows in _float64_blocks(x):
        np.matmul(rows, projection, out=z[lo:lo + len(rows)])
    return z


def _check_ridge(ridge: float | None) -> float | None:
    return None if ridge is None else _check_real("ridge", ridge, 0.0)


def fit_lda(train: FingerprintDataset, kappa: int = 150,
            ridge: float | None = None) -> LdaModel:
    """Fit the discriminant projection and Mahalanobis scoring model.

    The directions solve the symmetric generalized eigenproblem between-class
    scatter vs. within-class scatter + ridge*I; the top kappa_eff are kept,
    where kappa_eff = min(kappa, C-1, rank of the between-class scatter) and
    the rank counts eigenvalues above 1e-9 of the largest. ridge=None selects
    1e-6 * trace(within)/n_bins; an explicit ridge of 0 is rejected when the
    within-class scatter is singular.

    The between-class scatter is B^T B, with B the C x n_bins class means
    (centered, each row weighted by sqrt of its class count), so it has rank
    at most C-1. The solve therefore works at that rank: with the Cholesky
    factor L L^T of the regularized within scatter, the thin SVD U S V^T of
    the n_bins x C matrix L^-1 B^T gives the eigenvalues S^2 and the
    directions L^-T U, which satisfy v^T (within + ridge*I) v = I. This is
    the Cholesky reduction LAPACK's sygvd applies, without its n_bins x
    n_bins eigensolve of a matrix of rank C-1.
    """
    _check_count("kappa", kappa, 1)
    _check_ridge(ridge)
    classes, y = np.unique(train.labels, return_inverse=True)
    n_classes = classes.size
    if n_classes < 3:
        raise ValueError(f"need at least 3 classes: {n_classes}")
    counts = np.bincount(y, minlength=n_classes)
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 training samples")

    x = train.features
    n, m = x.shape
    # float64 sums whatever the storage dtype and layout
    mean_all = _column_means(x)
    means = np.vstack([x[y == c].mean(axis=0, dtype=np.float64) for c in range(n_classes)])

    # the within-class scatter sums dev^T dev over row blocks of the
    # deviations x - means[y]; a training set of one block gets the single
    # product's bits
    sw = np.zeros((m, m))
    for _, dev in _float64_blocks(x, means, y):
        sw += dev.T @ dev
    del dev  # the loop variable would keep the block buffer alive
    between = np.sqrt(counts)[:, None] * (means - mean_all)  # sb = between^T between

    if ridge is None:
        scale = np.trace(sw) / m
        if scale <= 0:
            scale = np.einsum("ij,ij->", between, between) / m  # trace(sb)
        if scale <= 0:
            raise ValueError("training features are all identical")
        ridge = 1e-6 * scale
    sw[np.diag_indices(m)] += ridge
    try:
        chol = np.linalg.cholesky(sw)
    except np.linalg.LinAlgError as exc:
        if ridge == 0:
            raise ValueError(
                "within-class scatter is singular; rerun with a positive ridge") from exc
        raise ValueError(
            "within-class scatter is numerically singular; increase ridge") from exc
    del sw  # only its factor is used from here on; freed before _project's block buffer

    # NumPy has no triangular solve; solve() on a triangular factor is an LU
    # solve, cheap at these n_bins x C and n_bins x kappa_eff right-hand sides
    u, s, _ = np.linalg.svd(np.linalg.solve(chol, between.T), full_matrices=False)
    eigvals = s * s  # descending
    rank = int(np.sum(eigvals > eigvals[0] * 1e-9))
    if rank == 0:
        raise ValueError("between-class scatter has no usable directions")
    kappa_eff = min(kappa, n_classes - 1, rank)
    projection = np.linalg.solve(chol.T, u[:, :kappa_eff])

    z = _project(x, projection)
    z_means = np.vstack([z[y == c].mean(axis=0) for c in range(n_classes)])
    zw = z - z_means[y]
    pooled = zw.T @ zw / max(n - n_classes, 1)
    pooled += (1e-9 * max(np.trace(pooled), ridge) / kappa_eff) * np.eye(kappa_eff)
    return LdaModel(projection=projection, class_means=z_means,
                    pooled_cov_inv=np.linalg.inv(pooled),
                    class_ids=classes.astype(np.int64), kappa_eff=kappa_eff,
                    ridge=float(ridge))


def classify(model: LdaModel, test: FingerprintDataset) -> ClassificationReport:
    """Assign each test sample to the Mahalanobis-nearest projected class mean.

    Distance ties break toward the smaller class id. Test samples with labels
    absent from training always count as errors and are flagged.
    """
    if test.n_bins != model.projection.shape[0]:
        raise ValueError("test feature length does not match the fitted model")
    z = _project(test.features, model.projection)
    n_classes = model.class_means.shape[0]
    dist2 = np.empty((z.shape[0], n_classes))
    for c in range(n_classes):
        dz = z - model.class_means[c]
        dist2[:, c] = np.einsum("ij,ij->i", dz @ model.pooled_cov_inv, dz)
    assigned_idx = np.argmin(dist2, axis=1)  # first minimum = smallest class id
    min_dist = np.sqrt(np.maximum(dist2[np.arange(z.shape[0]), assigned_idx], 0.0))
    assigned_ids = model.class_ids[assigned_idx]

    true_ids = test.labels.astype(np.int64)
    errors = assigned_ids != true_ids
    # class_ids is ascending, so a trained label sits where searchsorted puts it
    true_idx = np.minimum(np.searchsorted(model.class_ids, true_ids), n_classes - 1)
    seen = model.class_ids[true_idx] == true_ids
    true_idx = true_idx[seen]
    confusion = np.bincount(true_idx * n_classes + assigned_idx[seen],
                            minlength=n_classes * n_classes).reshape(n_classes, n_classes)
    per_class_errors = np.bincount(true_idx[errors[seen]], minlength=n_classes)
    unseen = np.unique(true_ids[~seen]).tolist()
    return ClassificationReport(
        pe=float(np.mean(errors)), per_class_errors=per_class_errors,
        min_distance_scores=min_dist, confusion=confusion,
        assigned_ids=assigned_ids, true_ids=true_ids,
        class_ids=model.class_ids, unseen_labels=unseen)


def _experiment_datasets(profiles: Sequence[DeviceProfile], n_classes: int,
                         pipeline: PipelineConfig, train_per_class: int,
                         test_per_class: int, master_seed: int):
    selected = sorted(profiles, key=lambda p: p.device_id)[:n_classes]
    root = np.random.SeedSequence(master_seed)
    train_seq, test_seq, shuffle_seq = root.spawn(3)
    train = build_dataset(selected, train_per_class, pipeline,
                          int(train_seq.generate_state(1, np.uint64)[0]))
    test = build_dataset(selected, test_per_class, pipeline,
                         int(test_seq.generate_state(1, np.uint64)[0]))
    return train, test, shuffle_seq


def error_rate_experiment(profiles: Sequence[DeviceProfile], n_classes: int,
                          pipeline: PipelineConfig, train_per_class: int = 200,
                          test_per_class: int = 200, kappa: int = 150,
                          ridge: float | None = None, master_seed: int = 0,
                          shuffle_train_labels: bool = False,
                          return_datasets: bool = False):
    """Generate disjoint train/test datasets, fit, classify, and report.

    Train and test noise realizations are drawn from independent streams
    derived from master_seed, so the experiment is reproducible end to end.
    shuffle_train_labels destroys the feature/identity association (seeded)
    to measure chance-level behavior.
    """
    _check_count("n_classes", n_classes, MIN_USERS)
    _check_count("master_seed", master_seed, 0)
    if n_classes > len(profiles):
        raise ValueError(f"only {len(profiles)} profiles for n_classes={n_classes}")
    train, test, shuffle_seq = _experiment_datasets(
        profiles, n_classes, pipeline, train_per_class, test_per_class, master_seed)
    if shuffle_train_labels:
        rng = np.random.default_rng(shuffle_seq)
        train = FingerprintDataset(train.features, rng.permutation(train.labels),
                                   train.meta)
    model = fit_lda(train, kappa=kappa, ridge=ridge)
    report = classify(model, test)
    if return_datasets:
        return report, train, test
    return report
