"""Mutual-information estimation between fingerprints and device identity.

Two estimators: a per-bin histogram plug-in estimate for individual feature
members, and a kernel-density estimate of the mutual information carried by
the whole feature vector after an energy-preserving projection to a small
number of principal directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._records import _check_count, _check_real
from .fingerprint import FingerprintDataset, _column_means, _float64_blocks

# estimator limits, checked by EstimatorConfig and the estimators alike
MIN_BINS = 2
# per_feature_mi holds at least one member's classes x bins counts and their
# temporaries: ~128 KiB per class at MAX_BINS, ~380 GB at a billion bins and
# 12 classes
MAX_BINS = 4096
MAX_PROJECTED_DIM = 20


@dataclass(frozen=True)
class EstimatorConfig:
    bins: int = 64
    projected_dim: int = 10

    def __post_init__(self):
        _check_count("bins", self.bins, MIN_BINS, MAX_BINS)
        _check_count("projected_dim", self.projected_dim, 1, MAX_PROJECTED_DIM)


def __getattr__(name):
    # emi_kde no longer calls cdist, but the benchmark's tracer still looks up
    # rffcap.infotheory.cdist and fails to install if it is missing. Resolving
    # it here imports scipy.spatial only when asked, not with the package.
    # Goes away once ROADMAP item 1 drops the cdist span from the tracer.
    if name == "cdist":
        from scipy.spatial.distance import cdist
        return cdist
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    _check_real("p", p, 0.0, 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


@dataclass
class MiReport:
    """Per-feature-member MI against the identity label, plus member entropies."""

    per_bin_mi: np.ndarray
    h_x: np.ndarray
    bins: int


# feature members histogrammed per bincount in per_feature_mi: enough to
# amortise the call, few enough that a block's counts and temporaries stay in
# cache (one bincount over all 512 members of a 6,000-row dataset is slower);
# past 40 classes x 64 bins a block holds fewer, down to one member's table
_MI_BLOCK = 32
_MI_BLOCK_CELLS = _MI_BLOCK * 40 * 64  # the most (member, label, bin) cells a block counts


def _contiguous_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    classes, y = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("need at least 2 distinct labels")
    return y, classes.size


def per_feature_mi(dataset: FingerprintDataset, bins: int = EstimatorConfig.bins) -> MiReport:
    """Histogram plug-in estimate of I(X_m; Y) for every feature member m.

    Each member is discretized into `bins` equal-width bins spanning its
    pooled min/max; MI is computed from the joint (bin, label) counts in
    base-2. A constant member yields zero MI.
    """
    _check_count("bins", bins, MIN_BINS, MAX_BINS)
    y, n_classes = _contiguous_labels(dataset.labels)

    x = dataset.features
    n, m = x.shape
    # in float64 whatever the storage dtype, so float32 features bin exactly
    # as their float64 upcast does
    mins = x.min(axis=0).astype(np.float64, copy=False)
    widths = x.max(axis=0).astype(np.float64, copy=False) - mins
    safe_w = np.where(widths > 0, widths, 1.0)
    p_y = np.bincount(y, minlength=n_classes) / n
    block = min(_MI_BLOCK, max(1, _MI_BLOCK_CELLS // (n_classes * bins)))
    # cell of each sample in a block's (member, label, bin) counts
    cells = np.arange(block) * (n_classes * bins) + y[:, np.newaxis] * bins
    mi = np.empty(m)
    h_x = np.empty(m)
    for lo in range(0, m, block):
        cols = slice(lo, min(lo + block, m))
        # a constant member has x - mins = 0, hence all its samples in bin 0
        idx = np.clip(((x[:, cols] - mins[cols]) / safe_w[cols] * bins).astype(np.int64),
                      0, bins - 1)
        idx += cells[:, :idx.shape[1]]
        counts = np.bincount(idx.ravel(), minlength=idx.shape[1] * n_classes * bins)
        counts = counts.reshape(-1, n_classes, bins)
        joint = counts / n
        p_x = counts.sum(axis=1) / n
        # empty cells contribute 0 * log2(1)
        ratio = np.divide(joint, p_x[:, np.newaxis, :] * p_y[:, np.newaxis],
                          out=np.ones_like(joint), where=counts > 0)
        mi[cols] = np.maximum(0.0, (joint * np.log2(ratio)).sum(axis=(1, 2)))
        h_x[cols] = -(p_x * np.log2(np.where(p_x > 0, p_x, 1.0))).sum(axis=1)
        # free this block's temporaries before the next block's idx is built
        del idx, counts, joint, p_x, ratio
    return MiReport(per_bin_mi=mi, h_x=h_x, bins=bins)


# rows of the kernel evaluated at a time in emi_kde, into one reused buffer;
# every block keeps full rows. Sized by measurement (README "Estimator
# notes"): 64-row blocks were ~15% slower, and much taller ones slower too.
_KDE_BLOCK = 128


@dataclass
class EmiEstimate:
    """Ensemble MI of the whole feature vector, raw and clamped to [0, log2 C]."""

    emi_bits: float
    emi_bits_clamped: float
    projected_dim: int
    bandwidths: np.ndarray
    n_samples: int
    rank: int             # principal directions above 1e-12 * s0, before capping
    loo_floor_hits: int   # samples whose LOO class or total mass hit the 1e-300 floor


def emi_kde(dataset: FingerprintDataset,
            projected_dim: int = EstimatorConfig.projected_dim) -> EmiEstimate:
    """Kernel-density estimate of I(X; Y) for the full fingerprint vector.

    The features are centered and projected onto their top principal
    directions, the leading eigenvectors of the Gram matrix Xc^T Xc (an
    orthonormal, energy-preserving map; directions whose singular value is
    at most 1e-12 of the largest are dropped, so the effective dimension can
    be lower than requested). A product Gaussian kernel with per-dimension
    Silverman bandwidths then approximates the class-conditional and marginal
    densities, and the estimate averages

        log2( mean kernel mass from the sample's own class
              / mean kernel mass from all samples )

    over every sample. Both kernel sums leave the sample itself out, since
    keeping the self-match inflates the estimate for indistinguishable
    classes. Raw and [0, log2 C]-clamped values are both reported.
    """
    _check_count("projected_dim", projected_dim, 1, MAX_PROJECTED_DIM)
    y, n_classes = _contiguous_labels(dataset.labels)
    class_counts = np.bincount(y, minlength=n_classes)
    if class_counts.min() < 10 * projected_dim:
        raise ValueError(
            f"every class needs >= 10*projected_dim = {10 * projected_dim} samples "
            f"(smallest has {class_counts.min()}); reduce projected_dim")

    x = dataset.features
    n, m = x.shape
    mean = _column_means(x)
    # principal directions from the m x m Gram matrix, largest first. The
    # singular values of the rank test are measured as column norms of the
    # projection, because sqrt of a Gram eigenvalue is only good to ~1e-8 *
    # s0 and would count zero-variance directions as rank. Only directions
    # whose eigenvalue is at most 1e-10 of the largest can come near the
    # 1e-12 * s0 cut-off, so only those, and the kept ones, are projected,
    # and only the kept ones are stored. The centered features Xc = x - mean
    # are never formed whole, only in row blocks, and the m x m matrices are
    # freed before the kernel loop.
    gram = np.zeros((m, m))
    for _, xb in _float64_blocks(x, mean):
        gram += xb.T @ xb
    del xb  # the loop variable would keep the block buffer alive
    gram_vals, vecs = np.linalg.eigh(gram)
    del gram
    gram_vals, vecs = gram_vals[::-1], vecs[:, ::-1]
    d = min(projected_dim, gram_vals.size)
    tiny = np.flatnonzero(gram_vals[d:] <= gram_vals.max(initial=0.0) * 1e-10) + d
    basis = vecs[:, np.concatenate([np.arange(d), tiny])]
    del vecs
    z = np.empty((n, d))
    sq_norms = np.zeros(basis.shape[1])
    for lo, xb in _float64_blocks(x, mean):
        proj = xb @ basis
        sq_norms += np.einsum("ij,ij->j", proj, proj)
        z[lo:lo + proj.shape[0]] = proj[:, :d]
    del xb, proj
    svals = np.sqrt(sq_norms)
    # the directions not projected all clear the cut-off
    rank = int(np.sum(svals > svals.max(initial=0.0) * 1e-12)) + m - svals.size
    if rank == 0:
        raise ValueError("features have zero variance")
    d = min(projected_dim, rank)
    z = z[:, :d]

    sigma = z.std(axis=0, ddof=1)
    h = sigma * (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    u = z / h
    half_sq = 0.5 * np.einsum("ij,ij->i", u, u)

    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    total = 0.0
    floor_hits = 0
    kern_buf = np.empty((min(_KDE_BLOCK, n), n))
    for start in range(0, n, _KDE_BLOCK):
        stop = min(start + _KDE_BLOCK, n)
        rows = np.arange(stop - start)
        # -d2/2 = u.v - |u|^2/2 - |v|^2/2 from one GEMM, clamped to d2 >= 0;
        # the self distance is set to exactly 0 so the self-kernel is exactly 1
        kern = np.matmul(u[start:stop], u.T, out=kern_buf[:stop - start])
        kern -= half_sq[start:stop, None]
        kern -= half_sq
        np.minimum(kern, 0.0, out=kern)
        kern[rows, start + rows] = 0.0
        np.exp(kern, out=kern)
        class_mass = kern @ onehot                      # (block, C)
        own = class_mass[rows, y[start:stop]]
        # leave-one-out: the self-kernel is exactly exp(0) = 1
        num = own - 1.0
        den = class_mass.sum(axis=1) - 1.0
        floor_hits += int(np.count_nonzero((num < 1e-300) | (den < 1e-300)))
        num = np.maximum(num, 1e-300) / (class_counts[y[start:stop]] - 1)
        den = np.maximum(den, 1e-300) / (n - 1)
        total += float(np.sum(np.log2(num / den)))

    raw = total / n
    clamped = float(np.clip(raw, 0.0, np.log2(n_classes)))
    return EmiEstimate(emi_bits=raw, emi_bits_clamped=clamped, projected_dim=d,
                       bandwidths=h, n_samples=n, rank=rank, loo_floor_hits=floor_hits)
