"""Mutual-information estimation between fingerprints and device identity.

Two estimators: a per-bin histogram plug-in estimate for individual feature
members, and a kernel-density estimate of the mutual information carried by
the whole feature vector after an energy-preserving projection to a small
number of principal directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fingerprint import FingerprintDataset, feature_bin_frequencies


def __getattr__(name):
    # emi_kde no longer calls cdist, but the benchmark's tracer still looks up
    # rffcap.infotheory.cdist and fails to install if it is missing. Resolving
    # it here imports scipy.spatial only when asked, not with the package.
    # Goes away once ROADMAP item 1 drops the cdist span from the tracer.
    if name == "cdist":
        from scipy.spatial.distance import cdist
        return cdist
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def entropy_discrete(probabilities) -> float:
    """Shannon entropy in bits of a discrete distribution; 0*log0 = 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1 (got {p.sum()!r})")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1]: {p}")
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
# cache (one bincount over all 512 members of a 6,000-row dataset is slower)
_MI_BLOCK = 32


def _contiguous_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    classes, y = np.unique(labels, return_inverse=True)
    return y, classes.size


def per_feature_mi(dataset: FingerprintDataset, bins: int = 64) -> MiReport:
    """Histogram plug-in estimate of I(X_m; Y) for every feature member m.

    Each member is discretized into `bins` equal-width bins spanning its
    pooled min/max; MI is computed from the joint (bin, label) counts in
    base-2. A constant member yields zero MI.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    y, n_classes = _contiguous_labels(dataset.labels)
    if n_classes < 2:
        raise ValueError("need at least 2 distinct labels")

    x = dataset.features
    n, m = x.shape
    mins = x.min(axis=0)
    widths = x.max(axis=0) - mins
    safe_w = np.where(widths > 0, widths, 1.0)
    p_y = np.bincount(y, minlength=n_classes) / n
    # cell of each sample in a block's (member, label, bin) counts
    cells = np.arange(_MI_BLOCK) * (n_classes * bins) + y[:, np.newaxis] * bins
    mi = np.empty(m)
    h_x = np.empty(m)
    for lo in range(0, m, _MI_BLOCK):
        cols = slice(lo, min(lo + _MI_BLOCK, m))
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
    return MiReport(per_bin_mi=mi, h_x=h_x, bins=bins)


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


def emi_kde(dataset: FingerprintDataset, projected_dim: int = 10) -> EmiEstimate:
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
    if not 1 <= projected_dim <= 20:
        raise ValueError(f"projected_dim must be in [1, 20]: {projected_dim}")
    y, n_classes = _contiguous_labels(dataset.labels)
    if n_classes < 2:
        raise ValueError("need at least 2 distinct labels")
    class_counts = np.bincount(y, minlength=n_classes)
    if class_counts.min() < 2:
        raise ValueError("every class needs at least 2 samples")
    if class_counts.min() < 10 * projected_dim:
        raise ValueError(
            f"every class needs >= 10*projected_dim = {10 * projected_dim} samples "
            f"(smallest has {class_counts.min()}); reduce projected_dim")

    x = dataset.features
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    # principal directions from the m x m Gram matrix; the singular values
    # are measured as column norms of the projection, because sqrt of the
    # Gram eigenvalues is only good to ~1e-8 * s0 and would count
    # zero-variance directions as rank
    _, vecs = np.linalg.eigh(xc.T @ xc)
    proj = xc @ vecs[:, ::-1]
    svals = np.sqrt(np.einsum("ij,ij->j", proj, proj))
    rank = int(np.sum(svals > svals.max() * 1e-12)) if svals.size else 0
    if rank == 0:
        raise ValueError("features have zero variance")
    d = min(projected_dim, rank)
    z = proj[:, :d]

    sigma = z.std(axis=0, ddof=1)
    h = sigma * (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    u = z / h
    half_sq = 0.5 * np.einsum("ij,ij->i", u, u)

    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    total = 0.0
    floor_hits = 0
    chunk = 1024
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        rows = np.arange(stop - start)
        # -d2/2 = u.v - |u|^2/2 - |v|^2/2 from one GEMM, clamped to d2 >= 0;
        # the self distance is set to exactly 0 so the self-kernel is exactly 1
        kern = u[start:stop] @ u.T
        kern -= half_sq[start:stop, None]
        kern -= half_sq
        np.minimum(kern, 0.0, out=kern)
        kern[rows, start + rows] = 0.0
        np.exp(kern, out=kern)
        class_mass = kern @ onehot                      # (chunk, C)
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


def mi_report_to_csv(report: MiReport, path, fs_hz: float | None = None) -> None:
    """CSV with one row per feature bin: index, center frequency, MI in bits."""
    m = report.per_bin_mi.size
    freqs = feature_bin_frequencies(m, fs_hz) if fs_hz else None
    with open(path, "w", newline="") as fh:
        fh.write("bin_index,freq_hz,mi_bits\n")
        for i in range(m):
            f = repr(float(freqs[i])) if freqs is not None else ""
            fh.write(f"{i},{f},{float(report.per_bin_mi[i])!r}\n")
