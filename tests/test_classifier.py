"""Discriminant projection, Mahalanobis assignment, and error experiments."""

import numpy as np
import pytest
from scipy.linalg import eig, qr, svdvals

from rffcap.classifier import (
    ClassifierConfig,
    LdaModel,
    classify,
    error_rate_experiment,
    fit_lda,
)
from rffcap.cli import main
from rffcap.fingerprint import DatasetMeta, FingerprintDataset, PipelineConfig
from rffcap.signal_model import ParamDist, PopulationSpec, sample_profiles


def make_ds(x, y):
    x = np.asarray(x, dtype=float)
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in np.asarray(y)}))
    return FingerprintDataset(x, np.asarray(y), meta)


def gaussian_blobs(rng, centers, per_class, scale=1.0):
    centers = np.asarray(centers, dtype=float)
    c, d = centers.shape
    y = np.repeat(np.arange(c), per_class)
    x = rng.normal(scale=scale, size=(c * per_class, d)) + centers[y]
    return make_ds(x, y)


def scatter_matrices(x, y):
    classes = np.unique(y)
    mu = x.mean(axis=0)
    sw = np.zeros((x.shape[1],) * 2)
    sb = np.zeros_like(sw)
    for c in classes:
        xc = x[y == c]
        mc = xc.mean(axis=0)
        sw += (xc - mc).T @ (xc - mc)
        diff = (mc - mu)[:, None]
        sb += xc.shape[0] * (diff @ diff.T)
    return sb, sw


def principal_angle_gap(a, b):
    """Largest principal-angle sine between the column spaces of a and b."""
    qa = qr(a, mode="economic")[0]
    qb = qr(b, mode="economic")[0]
    s = svdvals(qa.T @ qb)
    return float(np.sqrt(max(0.0, 1.0 - s.min() ** 2)))


def test_projection_matches_generalized_eigenvectors():
    rng = np.random.default_rng(20)
    ds = gaussian_blobs(rng, [[0, 0, 0, 0], [5, 1, 0, 0], [0, 4, 3, 0]], 200)
    ridge = 1e-3
    model = fit_lda(ds, kappa=2, ridge=ridge)

    sb, sw = scatter_matrices(ds.features, ds.labels)
    vals, vecs = eig(np.linalg.solve(sw + ridge * np.eye(4), sb))
    order = np.argsort(vals.real)[::-1]
    oracle = vecs[:, order[:2]].real
    assert model.projection.shape == (4, 2)
    assert principal_angle_gap(model.projection, oracle) < 1e-6


def test_kappa_is_capped_by_class_count():
    rng = np.random.default_rng(21)
    ds = gaussian_blobs(rng, np.eye(4)[:3] * 6.0, 100)
    wide = fit_lda(ds, kappa=150)
    slim = fit_lda(ds, kappa=2)
    assert wide.projection.shape[1] == 2  # C - 1
    assert slim.projection.shape[1] == 2
    assert np.allclose(np.abs(wide.projection.T @ slim.projection),
                       np.abs(slim.projection.T @ slim.projection), atol=1e-8)


def test_class_means_score_zero_distance():
    rng = np.random.default_rng(22)
    ds = gaussian_blobs(rng, [[0, 0], [8, 0], [0, 8]], 150)
    model = fit_lda(ds, kappa=2)
    means = np.vstack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
    probe = make_ds(means, np.arange(3))
    rep = classify(model, probe)
    assert rep.pe == 0.0
    assert np.all(rep.min_distance_scores < 1e-6)
    assert np.array_equal(rep.assigned_ids, np.arange(3))


def test_extreme_separation_is_error_free():
    rng = np.random.default_rng(23)
    centers = 100.0 * np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    train = gaussian_blobs(rng, centers, 200)
    test = gaussian_blobs(rng, centers, 200)
    model = fit_lda(train)
    rep = classify(model, test)
    assert rep.pe == 0.0
    assert rep.confusion.sum() == rep.n_test
    assert np.array_equal(np.diag(rep.confusion), np.full(4, 200))


def test_identical_classes_hit_chance_error():
    rng = np.random.default_rng(24)
    zero = np.zeros((4, 3))
    train = gaussian_blobs(rng, zero, 500)
    test = gaussian_blobs(rng, zero, 2500)
    rep = classify(fit_lda(train), test)
    assert abs(rep.pe - 0.75) < 0.05


def test_scale_invariant_assignments():
    rng = np.random.default_rng(25)
    train = gaussian_blobs(rng, [[0, 0], [3, 0], [0, 3]], 200)
    test = gaussian_blobs(rng, [[0, 0], [3, 0], [0, 3]], 100)
    base = classify(fit_lda(train, ridge=1e-9), test)
    scaled_train = make_ds(train.features * 3.7, train.labels)
    scaled_test = make_ds(test.features * 3.7, test.labels)
    scaled = classify(fit_lda(scaled_train, ridge=1e-9), scaled_test)
    assert np.array_equal(base.assigned_ids, scaled.assigned_ids)


def test_distance_ties_go_to_the_smaller_class_id():
    model = LdaModel(projection=np.eye(1), class_means=np.array([[-1.0], [1.0], [5.0]]),
                     pooled_cov_inv=np.eye(1), class_ids=np.array([3, 7, 9]),
                     kappa_eff=1, ridge=0.0)
    # 0 is equidistant from ids 3 and 7, 3 from ids 7 and 9
    rep = classify(model, make_ds([[0.0], [0.0], [3.0], [3.0]], [3, 7, 7, 9]))
    assert rep.assigned_ids.tolist() == [3, 3, 7, 7]
    assert rep.pe == 0.5
    assert rep.per_class_errors.tolist() == [0, 1, 1]
    assert rep.confusion.tolist() == [[1, 0, 0], [1, 1, 0], [0, 1, 0]]


def test_fit_lda_reports_kappa_eff_and_ridge():
    rng = np.random.default_rng(29)
    train = gaussian_blobs(rng, [[0, 0, 0], [6, 0, 0], [0, 6, 0], [0, 0, 6]], 60)
    model = fit_lda(train, kappa=150)
    assert model.kappa_eff == model.projection.shape[1] == 3
    _, sw = scatter_matrices(train.features, train.labels)
    assert model.ridge == pytest.approx(1e-6 * np.trace(sw) / 3, rel=1e-12)
    model = fit_lda(train, kappa=2, ridge=0.5)
    assert (model.kappa_eff, model.ridge) == (2, 0.5)


def test_unseen_label_always_errors():
    rng = np.random.default_rng(26)
    train = gaussian_blobs(rng, [[0, 0], [9, 0], [0, 9]], 120)
    test_x = np.vstack([np.zeros((5, 2)), np.full((5, 2), 20.0)])
    test_y = np.array([0] * 5 + [7] * 5)
    rep = classify(fit_lda(train), make_ds(test_x, test_y))
    assert rep.unseen_labels == [7]
    assert rep.pe == 0.5
    assert rep.confusion.sum() == 5  # only trained-class rows are tabulated
    assert rep.per_class_errors.sum() == 0


def test_confusion_accounts_for_every_trained_sample():
    rng = np.random.default_rng(27)
    train = gaussian_blobs(rng, [[0, 0], [2, 0], [0, 2]], 150)
    test = gaussian_blobs(rng, [[0, 0], [2, 0], [0, 2]], 80)
    rep = classify(fit_lda(train), test)
    assert rep.confusion.sum() == rep.n_test == 240
    errors_from_confusion = rep.confusion.sum() - np.trace(rep.confusion)
    assert errors_from_confusion == int(round(rep.pe * rep.n_test))
    assert np.array_equal(rep.per_class_errors,
                          rep.confusion.sum(axis=1) - np.diag(rep.confusion))


def test_fit_lda_validation():
    rng = np.random.default_rng(28)
    good = gaussian_blobs(rng, [[0, 0], [5, 0], [0, 5]], 50)
    with pytest.raises(ValueError, match="^kappa must be >= 1 and an integer: 0$"):
        fit_lda(good, kappa=0)
    # a fraction failed in NumPy's slicing after the scatter was built
    for kappa in (1.5, True):
        with pytest.raises(ValueError, match=rf"^kappa must be >= 1 and an integer: {kappa}$"):
            fit_lda(good, kappa=kappa)
    with pytest.raises(ValueError):
        fit_lda(good, ridge=-1.0)
    two = gaussian_blobs(rng, [[0, 0], [5, 0]], 50)
    with pytest.raises(ValueError):
        fit_lda(two)
    lone = make_ds(np.vstack([good.features, [[9.0, 9.0]]]),
                   np.concatenate([good.labels, [3]]))
    with pytest.raises(ValueError):
        fit_lda(lone)
    flat = make_ds(np.ones((90, 2)), np.repeat(np.arange(3), 30))
    with pytest.raises(ValueError):
        fit_lda(flat)


def test_explicit_zero_ridge_rejected_when_singular():
    rng = np.random.default_rng(29)
    base = rng.normal(size=(90, 1))
    x = np.column_stack([base, base])  # within-class scatter is rank 1
    x[:, 0] += np.repeat([0.0, 5.0, 10.0], 30)
    ds = make_ds(x, np.repeat(np.arange(3), 30))
    with pytest.raises(ValueError, match="singular; rerun with a positive ridge") as err:
        fit_lda(ds, ridge=0.0)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    fit_lda(ds)  # default ridge handles it


def test_singular_scatter_with_negligible_ridge_raises():
    # two identical columns with within-class deviations of +-1: the within
    # scatter is [[16, 16], [16, 16]] in them, ridge=1e-300 is lost against
    # 16, and the Cholesky pivot 16 - 4**2 is exactly 0
    y = np.repeat(np.arange(4), 4)
    dup = np.tile([1.0, -1.0, 1.0, -1.0], 4) + 4.0 * y
    other = np.tile([1.0, 1.0, -1.0, -1.0], 4) + np.array([0.0, 2.0, -2.0, 3.0])[y]
    ds = make_ds(np.column_stack([dup, dup, other]), y)
    with pytest.raises(ValueError, match="numerically singular; increase ridge") as err:
        fit_lda(ds, ridge=1e-300)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_classify_rejects_mismatched_width():
    rng = np.random.default_rng(30)
    model = fit_lda(gaussian_blobs(rng, [[0, 0], [4, 0], [0, 4]], 60))
    with pytest.raises(ValueError):
        classify(model, make_ds(np.zeros((2, 3)), np.array([0, 1])))


def test_error_rate_experiment_end_to_end():
    profiles = sample_profiles(
        PopulationSpec(cfo_hz=ParamDist(0.0, 60e3),
                       iq_gain_db=ParamDist(0.0, 1.0)), 6, seed=3)
    cfg = PipelineConfig(n_fft=128, snr_db=30.0)
    settings = ClassifierConfig(train_per_class=40, test_per_class=30)
    rep, train, test = error_rate_experiment(
        profiles, 4, cfg, settings, master_seed=11, return_datasets=True)
    assert train.features.shape == (160, 128)
    assert test.features.shape == (120, 128)
    assert rep.n_test == 120
    assert rep.pe <= 0.05  # strong impairments at high SNR separate cleanly
    again = error_rate_experiment(profiles, 4, cfg, settings, master_seed=11)
    assert again.pe == rep.pe
    assert np.array_equal(again.assigned_ids, rep.assigned_ids)


def test_error_rate_experiment_shuffled_labels_hit_chance():
    profiles = sample_profiles(
        PopulationSpec(cfo_hz=ParamDist(0.0, 60e3)), 4, seed=4)
    cfg = PipelineConfig(n_fft=64, snr_db=24.0)
    rep = error_rate_experiment(profiles, 4, cfg,
                                ClassifierConfig(train_per_class=150, test_per_class=400),
                                master_seed=12, shuffle_train_labels=True)
    assert abs(rep.pe - 0.75) < 0.06


def test_error_rate_experiment_validation():
    profiles = sample_profiles(PopulationSpec(), 4, seed=5)
    with pytest.raises(ValueError):
        error_rate_experiment(profiles, 2, PipelineConfig())
    with pytest.raises(ValueError):
        error_rate_experiment(profiles, 5, PipelineConfig())


def test_classification_report_csv(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text("pipeline: {n_fft: 64}\nn_devices: 3\nseed: 33\n"
                      "classifier: {train_per_class: 20, test_per_class: 5}\n")
    path = tmp_path / "rep.csv"
    assert main(["classify", "--config", str(config), "--format", "csv",
                 "--out", str(path)]) == 0
    rep = error_rate_experiment(sample_profiles(PopulationSpec(), 3, 33), 3,
                                PipelineConfig(n_fft=64),
                                ClassifierConfig(train_per_class=20, test_per_class=5),
                                master_seed=33)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_index,min_distance,assigned_id,true_id"
    assert len(lines) == 1 + 15
    for i, line in enumerate(lines[1:]):
        idx, dist, assigned, true = line.split(",")
        assert idx == str(i)
        assert float(dist) == rep.min_distance_scores[i]
        assert int(assigned) == rep.assigned_ids[i]
        assert int(true) == rep.true_ids[i]
