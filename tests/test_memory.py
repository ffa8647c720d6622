"""Memory the analysis path and dataset synthesis allocate beyond their
input and output, and the in-place forms that keep it small against the
plain forms they replaced.

Peaks are traced with tracemalloc, to which NumPy reports its array
buffers, on a synthetic 4,000 x 256 float64 dataset of 20 classes (8.2 MB)
unless a test says otherwise.
The plain forms are kept here as oracles: fit_lda with its within-class
deviations in a second n x m array and the ridge added through an identity
matrix, the dataset file written from and read into whole arrays, and the
Welch kernel with a fresh array per step. The in-place forms must give the
same bits. fit_lda and classify sum and project over row blocks, which
reorders the float sums for more than one block; the oracle takes the block
as a parameter, and the single-product form bounds the rounding.
"""

import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from rffcap import fingerprint, infotheory
from rffcap.classifier import LdaModel, classify, fit_lda
from rffcap.fingerprint import (
    _DATASET_HEADER,
    _DATASET_MAGIC,
    _POWER_FLOOR,
    _ROW_BLOCK,
    _SYNTH_BLOCK_BYTES,
    DatasetMeta,
    FingerprintDataset,
    PipelineConfig,
    _hann,
    _welch_db,
    build_dataset,
    load_dataset,
    save_dataset,
)
from rffcap.infotheory import emi_kde, per_feature_mi
from rffcap.signal_model import PopulationSpec, sample_profiles


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(21)
    y = np.repeat(np.arange(20), 200)
    x = rng.normal(size=(4000, 256)) + rng.normal(scale=0.5, size=(20, 256))[y]
    meta = DatasetMeta(fs_hz=4e6, n_fft=256, snr_db=24.0, q_bits=14,
                       class_ids=list(range(100, 120)))
    return FingerprintDataset(x, y, meta)


def traced_peak(fn, *args, **kwargs):
    """Bytes fn allocates at its peak, beyond what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_emi_kde_holds_one_kernel_block_beyond_its_input(dataset):
    n, nbytes = dataset.n_samples, dataset.features.nbytes
    # the kernel block, _KDE_BLOCK full rows of the n x n kernel, is itself
    # half the input at 256 columns; everything else (the centered row
    # blocks, the Gram matrix and its eigenvectors, the projection) must stay
    # below a quarter of it. A centered copy of the input alone is a whole
    # one, and a centered row block still alive in the kernel loop a quarter.
    kernel_block = infotheory._KDE_BLOCK * n * 8
    assert traced_peak(emi_kde, dataset, projected_dim=10) - kernel_block < 0.25 * nbytes


def class_blobs(n_classes):
    """About 4,000 x 256 float64 features of n_classes equal classes."""
    rng = np.random.default_rng(n_classes)
    y = np.repeat(np.arange(n_classes), 4000 // n_classes)
    x = rng.normal(size=(y.size, 256)) + rng.normal(scale=0.5, size=(n_classes, 256))[y]
    return FingerprintDataset(x, y, DatasetMeta(fs_hz=4e6, n_fft=256, snr_db=24.0, q_bits=14,
                                                class_ids=list(range(n_classes))))


@pytest.mark.parametrize("n_classes, bins", [(40, 64), (4, 16), (40, 4096)])
def test_per_feature_mi_holds_one_blocks_temporaries(n_classes, bins):
    ds = class_blobs(n_classes)
    # members per block: 32 up to 40 classes x 64 bins, fewer past that
    block = min(infotheory._MI_BLOCK, max(1, infotheory._MI_BLOCK_CELLS // (n_classes * bins)))
    # one block's binning holds the cell offsets, the binned members and the
    # float temporaries of binning them, about three n x block arrays, and
    # its MI the counts, joint, ratio and log terms, four count-sized arrays,
    # and the boolean mask of non-empty cells; the labels take a few n-long
    # arrays whatever the block. The previous block's idx, counts, joint and
    # ratio still alive while the next block is binned passed this (40
    # classes x 64 bins: 6.2 MB traced)
    column_block = ds.n_samples * block * 8
    count_block = block * n_classes * bins * 8
    labels = ds.n_samples * 8
    peak = traced_peak(per_feature_mi, ds, bins=bins)
    assert peak < 3.25 * column_block + 4.125 * count_block + 4 * labels
    # 32-member blocks of 40 classes x 4,096 bins traced 168 MiB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n_classes, bins", [(40, 64), (41, 64), (12, 4096)])
def test_per_feature_mi_bits_do_not_depend_on_the_block(monkeypatch, n_classes, bins):
    ds = class_blobs(n_classes)
    blocked = per_feature_mi(ds, bins=bins)
    monkeypatch.setattr(infotheory, "_MI_BLOCK_CELLS", 1)  # one member per block
    single = per_feature_mi(ds, bins=bins)
    assert np.array_equal(blocked.per_bin_mi, single.per_bin_mi)
    assert np.array_equal(blocked.h_x, single.h_x)


def build_transients(profiles, pipeline):
    """Bytes build_dataset allocates beyond the features it returns, at 100
    and 400 rows per class, in the process that calls it."""
    transient = {}
    for per_class in (100, 400):
        n_rows = len(profiles) * per_class
        transient[per_class] = (traced_peak(build_dataset, profiles, per_class, pipeline, 1)
                                - n_rows * pipeline.n_fft * 8)
    return transient


def test_build_dataset_working_set_does_not_grow_with_per_class(monkeypatch):
    # the whole build in this one process
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: False)
    profiles = sample_profiles(PopulationSpec(), 3, seed=3)
    pipeline = PipelineConfig(fs_hz=10e6, n_fft=1024, snr_db=16.0, snr_ref_fs_hz=4e6)
    transient = build_transients(profiles, pipeline)
    # the receive chain runs over fixed row blocks, so only the per-capture
    # seed states, labels, flags and clip counts grow, by well under 256
    # bytes a row; whole-device batches grew by 34 MB here
    assert transient[400] - transient[100] < 256 * 3 * 300
    # the block's rails and noise draws are one _SYNTH_BLOCK_BYTES each, and
    # acquisition and Welch temporaries a few more
    assert transient[400] < 8 * _SYNTH_BLOCK_BYTES


def test_forked_build_holds_one_block_in_the_parent(monkeypatch, forks):
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: True)
    profiles = sample_profiles(PopulationSpec(), 3, seed=3)
    pipeline = PipelineConfig(fs_hz=10e6, n_fft=1024, snr_db=16.0, snr_ref_fs_hz=4e6)
    transient = build_transients(profiles, pipeline)
    assert len(forks) == 2
    # the child's rows are read straight into the returned features, so the
    # parent holds what a one-process build holds: one block's rails, noise
    # draws and kernel temporaries, and per-row state
    assert transient[400] - transient[100] < 256 * 3 * 300
    assert transient[400] < 8 * _SYNTH_BLOCK_BYTES


def test_fit_lda_holds_one_within_class_buffer(dataset):
    nbytes = dataset.features.nbytes
    # the within-class deviations take one _ROW_BLOCK-row buffer, a quarter
    # of the input here; with the m x m scatter and its factor and the
    # projected training set, fit_lda stays below half of the input
    assert traced_peak(fit_lda, dataset) - nbytes < 0.5 * nbytes


def test_fit_lda_working_set_does_not_grow_with_training_rows(dataset):
    m, n_classes = dataset.n_bins, 20
    peak = {}
    for step in (2, 1):  # 2,000 and 4,000 training rows, both past one block
        train = FingerprintDataset(dataset.features[::step], dataset.labels[::step],
                                   dataset.meta)
        peak[train.n_samples] = traced_peak(fit_lda, train)
    kappa_eff = n_classes - 1
    # per training row: the label indices and np.unique's sort of them (four
    # int64), and the projected rows with their class means and deviations
    # (three kappa_eff float64); an n x m deviation array alone grew by m * 8
    per_row = 4 * 8 + 3 * kappa_eff * 8
    assert per_row < 0.25 * m * 8
    assert peak[4000] - peak[2000] < per_row * 2000


def test_dataset_io_holds_one_row_block(dataset, tmp_path):
    path = tmp_path / "ds.rfds"
    nbytes = dataset.features.nbytes
    # float64 features are converted to float32 one block of rows at a time
    assert traced_peak(save_dataset, dataset, path) < 0.25 * nbytes
    # load_dataset holds nothing beyond the arrays it returns: the features
    # are read straight into the float32 matrix; only the int32 labels it
    # widens to int64 and a few KiB of header and meta come on top
    back = load_dataset(path)
    staging = 4 * back.n_samples + 8192
    returned = back.features.nbytes + back.labels.nbytes
    assert traced_peak(load_dataset, path) - returned < staging
    # and the float32 features it returns are written back without a copy
    assert traced_peak(save_dataset, back, path) < staging


def test_float32_features_are_never_widened_whole(dataset):
    # the estimators compute in float64 on float32 features, but a block at a
    # time: beyond what they hold on the float64 features, at most one
    # _ROW_BLOCK-row float64 buffer (a quarter of the float64 input here)
    f32 = FingerprintDataset(dataset.features.astype(np.float32), dataset.labels,
                             dataset.meta)
    block = _ROW_BLOCK * dataset.n_bins * 8
    model = fit_lda(dataset)
    for fn in (per_feature_mi, emi_kde, fit_lda, lambda ds: classify(model, ds)):
        assert traced_peak(fn, f32) < traced_peak(fn, dataset) + block, fn


def out_of_place_fit_lda(train, kappa=150, block=_ROW_BLOCK):
    """fit_lda at the default ridge with whole-array within-class deviations
    and the ridge added through an identity matrix. The scatter is summed and
    the training set projected over row blocks of `block` rows; block=None
    gives one product each, as fit_lda computed them before it blocked them."""
    classes, y = np.unique(train.labels, return_inverse=True)
    n_classes, counts = classes.size, np.bincount(y)
    x = train.features
    n, m = x.shape
    mean_all = x.mean(axis=0)
    means = np.vstack([x[y == c].mean(axis=0) for c in range(n_classes)])
    within = x - means[y]
    block = block or n
    starts = range(0, n, block)
    sw = sum(within[lo:lo + block].T @ within[lo:lo + block] for lo in starts)
    between = np.sqrt(counts)[:, None] * (means - mean_all)
    ridge = 1e-6 * np.trace(sw) / m
    chol = np.linalg.cholesky(sw + ridge * np.eye(m))
    u, s, _ = np.linalg.svd(np.linalg.solve(chol, between.T), full_matrices=False)
    eigvals = s * s
    kappa_eff = min(kappa, n_classes - 1, int(np.sum(eigvals > eigvals[0] * 1e-9)))
    projection = np.linalg.solve(chol.T, u[:, :kappa_eff])
    z = np.concatenate([x[lo:lo + block] @ projection for lo in starts])
    z_means = np.vstack([z[y == c].mean(axis=0) for c in range(n_classes)])
    zw = z - z_means[y]
    pooled = zw.T @ zw / max(n - n_classes, 1)
    pooled += (1e-9 * max(np.trace(pooled), ridge) / kappa_eff) * np.eye(kappa_eff)
    return LdaModel(projection=projection, class_means=z_means,
                    pooled_cov_inv=np.linalg.inv(pooled), class_ids=classes.astype(np.int64),
                    kappa_eff=kappa_eff, ridge=float(ridge))


@pytest.mark.parametrize("layout", ["strided", "F", "float32"])
def test_fit_lda_and_classify_equal_the_out_of_place_form(dataset, layout):
    # the even rows train and the odd rows test, two row blocks each: strided
    # views of the float64 features, as in the benchmark's stored analysis,
    # their F-ordered copies, or strided views of the features' float32 form.
    # Each gets the bits of the out-of-place form on the C-ordered float64
    # array of the same values
    x = dataset.features.astype(np.float32) if layout == "float32" else dataset.features
    halves = [x[0::2], x[1::2]]
    if layout == "F":
        halves = [np.asfortranarray(half) for half in halves]
    train, test = (FingerprintDataset(half, dataset.labels[start::2], dataset.meta)
                   for start, half in enumerate(halves))
    assert train.features.dtype == x.dtype and train.n_samples > _ROW_BLOCK
    train_c, test_c = (FingerprintDataset(np.ascontiguousarray(ds.features, np.float64),
                                          ds.labels, ds.meta) for ds in (train, test))
    got, want = fit_lda(train, kappa=12), out_of_place_fit_lda(train_c, kappa=12)
    for name in ("projection", "class_means", "pooled_cov_inv", "class_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.kappa_eff, got.ridge) == (want.kappa_eff, want.ridge)
    got, want = classify(got, test), classify(want, test_c)
    for name in ("min_distance_scores", "assigned_ids", "true_ids", "class_ids", "confusion",
                 "per_class_errors"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.pe, got.unseen_labels) == (want.pe, want.unseen_labels)


def single_product_classify(model, test):
    """classify's assignments and minimum distances as it computed them from
    one product over the whole test set."""
    z = test.features @ model.projection
    dist2 = np.empty((z.shape[0], model.class_means.shape[0]))
    for c, mean in enumerate(model.class_means):
        dz = z - mean
        dist2[:, c] = np.einsum("ij,ij->i", dz @ model.pooled_cov_inv, dz)
    idx = np.argmin(dist2, axis=1)
    return model.class_ids[idx], np.sqrt(np.maximum(dist2[np.arange(z.shape[0]), idx], 0.0))


def test_one_block_gets_the_bits_of_the_single_product_form(dataset):
    # 1,000 rows each, strided; fit_lda and classify run one block
    train = FingerprintDataset(dataset.features[0:2000:2], dataset.labels[0:2000:2],
                               dataset.meta)
    test = FingerprintDataset(dataset.features[1:2000:2], dataset.labels[1:2000:2],
                              dataset.meta)
    assert train.n_samples <= _ROW_BLOCK and test.n_samples <= _ROW_BLOCK
    got, want = fit_lda(train, kappa=12), out_of_place_fit_lda(train, kappa=12, block=None)
    for name in ("projection", "class_means", "pooled_cov_inv", "class_ids"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    report = classify(got, test)
    assigned_ids, min_dist = single_product_classify(want, test)
    assert np.array_equal(report.assigned_ids, assigned_ids)
    assert np.array_equal(report.min_distance_scores, min_dist)


def test_blocks_stay_within_rounding_of_the_single_product_form(dataset):
    # 2,000 rows each, two blocks: the sums run in another order
    train = FingerprintDataset(dataset.features[0::2], dataset.labels[0::2], dataset.meta)
    test = FingerprintDataset(dataset.features[1::2], dataset.labels[1::2], dataset.meta)
    assert train.n_samples > _ROW_BLOCK and test.n_samples > _ROW_BLOCK
    report = classify(fit_lda(train, kappa=12), test)
    assigned_ids, min_dist = single_product_classify(
        out_of_place_fit_lda(train, kappa=12, block=None), test)
    assert np.array_equal(report.assigned_ids, assigned_ids)
    np.testing.assert_allclose(report.min_distance_scores, min_dist, rtol=1e-9, atol=0)


def whole_array_bytes(ds):
    """The .rfds file as save_dataset wrote it from whole-array copies."""
    meta_json = json.dumps(ds.meta.to_dict()).encode()
    return (_DATASET_MAGIC + _DATASET_HEADER.pack(ds.n_samples, ds.n_bins, len(meta_json))
            + meta_json + ds.features.astype("<f4").tobytes()
            + ds.labels.astype("<i4").tobytes())


@pytest.mark.parametrize("rows", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1, 4000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rfds_bytes_and_loaded_arrays_equal_the_whole_array_forms(dataset, tmp_path,
                                                                   rows, order):
    ds = FingerprintDataset(np.asarray(dataset.features[:rows], order=order),
                            dataset.labels[:rows], dataset.meta)
    path = tmp_path / "ds.rfds"
    save_dataset(ds, path)
    raw = path.read_bytes()
    assert raw == whole_array_bytes(ds)
    back = load_dataset(path)
    payload = len(raw) - 4 * rows * (ds.n_bins + 1)
    want = np.frombuffer(raw, "<f4", rows * ds.n_bins, payload)
    assert back.features.dtype == np.float32 and back.features.flags.c_contiguous
    assert np.array_equal(back.features, want.reshape(rows, ds.n_bins))
    assert np.array_equal(back.labels, ds.labels) and back.labels.dtype == np.int64


def fresh_array_welch_db(x, n_fft):
    """The Welch kernel with a new array for each step."""
    if x.shape[1] < n_fft:
        x = np.pad(x, ((0, 0), (0, n_fft - x.shape[1])))
    win = _hann(n_fft)
    segments = sliding_window_view(x, n_fft, axis=1)[:, :: n_fft // 2]
    spectra = np.fft.fft(win * segments, axis=-1)
    periodogram = (spectra.real ** 2 + spectra.imag ** 2).mean(axis=1)
    bin_power = periodogram / (n_fft * np.sum(win * win))
    return 10.0 * np.log10(np.maximum(bin_power, _POWER_FLOOR))


@pytest.mark.parametrize("n_fft, width", [(256, 512), (512, 512), (128, 300),
                                          (1024, 2048), (64, 40)])
def test_welch_in_place_equals_fresh_arrays(n_fft, width):
    rng = np.random.default_rng(n_fft + width)
    x = rng.normal(size=(5, width)) + 1j * rng.normal(size=(5, width))
    x[4] = 0.0  # every bin on the power floor
    got = _welch_db(x, n_fft)
    assert np.array_equal(got, fresh_array_welch_db(x, n_fft))
    assert got.shape == (5, n_fft) and got.flags.c_contiguous
