"""Entropy helpers, per-bin MI, and the ensemble KDE MI estimator."""

import numpy as np
import pytest
from scipy.integrate import quad

from rffcap.cli import main
from rffcap.fingerprint import DatasetMeta, FingerprintDataset, load_dataset, save_dataset
from rffcap.infotheory import (
    MAX_BINS,
    EmiEstimate,
    binary_entropy,
    emi_kde,
    per_feature_mi,
)

# exact MI of the 3x4 joint table used in the sampled-estimator test, computed
# symbolically once: sum p log2(p / (p_y p_x))
TABLE_MI_BITS = 0.4505179944412754
JOINT_TABLE = np.array([
    [0.15, 0.05, 0.08, 0.02],
    [0.03, 0.20, 0.05, 0.02],
    [0.02, 0.05, 0.08, 0.25],
])


def make_ds(x, y):
    x = np.asarray(x, dtype=float)
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in np.asarray(y)}))
    return FingerprintDataset(x, np.asarray(y), meta)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.01) - 0.08079313589591118) < 1e-12
    assert binary_entropy(0.3) == binary_entropy(0.7)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_per_feature_mi_label_copy_is_one_bit():
    y = np.array([0, 1] * 500)
    ds = make_ds(y[:, None].astype(float), y)
    rep = per_feature_mi(ds, bins=64)
    assert rep.per_bin_mi[0] == 1.0
    assert rep.h_x[0] == 1.0
    assert rep.bins == 64


def test_per_feature_mi_independent_noise_is_small():
    rng = np.random.default_rng(50)
    x = rng.uniform(size=(10_000, 1))
    y = rng.integers(0, 2, size=10_000)
    rep = per_feature_mi(make_ds(x, y), bins=32)
    assert rep.per_bin_mi[0] <= 0.02


def test_per_feature_mi_gaussian_pair_matches_quadrature():
    """Two unit-variance classes 4 sigma apart, against numeric integration."""

    def mixture_mi():
        def pdf(x, mu):
            return np.exp(-0.5 * (x - mu) ** 2) / np.sqrt(2 * np.pi)

        def integrand(x):
            p = 0.5 * pdf(x, 0.0) + 0.5 * pdf(x, 4.0)
            return -p * np.log2(p) if p > 0 else 0.0

        h_mix = quad(integrand, -12, 16, limit=200)[0]
        h_cond = 0.5 * np.log2(2 * np.pi * np.e)
        return h_mix - h_cond

    oracle = mixture_mi()
    assert abs(oracle - 0.9128) < 1e-3  # quadrature sanity pin

    rng = np.random.default_rng(60)
    n = 10_000
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=n) + 4.0 * y
    rep = per_feature_mi(make_ds(x[:, None], y), bins=64)
    assert abs(rep.per_bin_mi[0] - oracle) < 0.05


def test_per_feature_mi_relabel_invariance():
    rng = np.random.default_rng(61)
    x = rng.normal(size=(600, 3))
    y = rng.integers(0, 3, size=600)
    x[:, 1] += y * 2.0
    a = per_feature_mi(make_ds(x, y))
    # an order-preserving relabel keeps the contiguous labels, so every sum
    # runs in the same order; test_per_feature_mi_ignores_label_values covers
    # renumbering that permutes them, within rounding
    b = per_feature_mi(make_ds(x, np.array([5, 10, 20])[y]))
    assert np.array_equal(a.per_bin_mi, b.per_bin_mi)
    assert np.array_equal(a.h_x, b.h_x)


def test_per_feature_mi_members_are_independent():
    rng = np.random.default_rng(62)
    x = rng.normal(size=(400, 2))
    y = rng.integers(0, 2, size=400)
    x[:, 0] += 3.0 * y
    base = per_feature_mi(make_ds(x, y))
    wide = per_feature_mi(make_ds(np.column_stack([x, rng.normal(size=400)]), y))
    assert np.array_equal(base.per_bin_mi, wide.per_bin_mi[:2])


def test_per_feature_mi_bounds_and_validation():
    rng = np.random.default_rng(63)
    x = rng.normal(size=(900, 4))
    y = rng.integers(0, 3, size=900)
    x[:, 2] += y
    rep = per_feature_mi(make_ds(x, y), bins=48)
    assert np.all(rep.per_bin_mi <= rep.h_x + 1e-9)
    assert np.all(rep.per_bin_mi <= np.log2(3) + 1e-9)
    assert np.all(rep.per_bin_mi >= 0.0)
    assert per_feature_mi(make_ds(x, y), bins=MAX_BINS).bins == MAX_BINS
    with pytest.raises(ValueError, match=f"^bins must be >= 2, <= {MAX_BINS} and an integer: 1$"):
        per_feature_mi(make_ds(x, y), bins=1)
    # a fraction ended in NumPy's casting TypeError; a bool is no count
    for bins in (3.5, True, "8"):
        with pytest.raises(ValueError,
                           match=rf"^bins must be >= 2, <= {MAX_BINS} and an integer: {bins!r}$"):
            per_feature_mi(make_ds(x, y), bins=bins)
    with pytest.raises(ValueError):
        per_feature_mi(make_ds(x, np.zeros(900, dtype=int)))


def test_emi_kde_identical_classes_near_zero():
    """Indistinguishable classes must measure ~0 bits (clamped exactly 0)."""
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1500, 2))
        y = np.repeat(np.arange(3), 500)
        est = emi_kde(make_ds(x, y), projected_dim=2)
        assert abs(est.emi_bits) <= 0.05
        assert est.emi_bits_clamped >= 0.0


def test_emi_kde_separated_classes_reach_log2c():
    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    rng = np.random.default_rng(7)
    y = np.repeat(np.arange(4), 250)
    x = rng.normal(size=(1000, 2)) + centers[y]
    est = emi_kde(make_ds(x, y), projected_dim=2)
    assert abs(est.emi_bits - 2.0) <= 0.05
    assert est.emi_bits <= 2.0 + 0.05
    assert est.emi_bits_clamped == 2.0
    assert est.projected_dim == 2
    assert est.n_samples == 1000
    assert est.bandwidths.shape == (2,)
    assert np.all(est.bandwidths > 0)


def test_emi_kde_matches_discrete_table():
    """Sampling a known 3x4 joint: the KDE estimate approaches the table MI."""
    flat = JOINT_TABLE.ravel()
    assert abs(flat.sum() - 1.0) < 1e-12
    rng = np.random.default_rng(42)
    draws = rng.choice(flat.size, size=6000, p=flat)
    y = draws // 4
    x = (draws % 4).astype(float)[:, None]
    est = emi_kde(make_ds(x, y), projected_dim=1)
    assert abs(est.emi_bits - TABLE_MI_BITS) <= 0.1


def test_emi_kde_tracks_separation():
    """More separation can never look like less information."""
    rng = np.random.default_rng(8)
    y = np.repeat(np.arange(3), 300)
    base = rng.normal(size=(900, 2))
    estimates = []
    for gap in (0.0, 2.0, 8.0):
        x = base + gap * np.column_stack([y, np.zeros_like(y)])
        estimates.append(emi_kde(make_ds(x, y), projected_dim=2).emi_bits_clamped)
    assert estimates[0] <= estimates[1] + 1e-9 <= estimates[2] + 2e-9
    assert estimates[2] > 1.5


def test_emi_kde_validation():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(300, 2))
    y = np.repeat(np.arange(3), 100)
    with pytest.raises(ValueError):
        emi_kde(make_ds(x, y), projected_dim=0)
    with pytest.raises(ValueError):
        emi_kde(make_ds(x, y), projected_dim=21)
    for dim in (1.5, True):
        with pytest.raises(ValueError,
                           match=rf"^projected_dim must be >= 1, <= 20 and an integer: {dim}$"):
            emi_kde(make_ds(x, y), projected_dim=dim)
    with pytest.raises(ValueError):
        emi_kde(make_ds(x, np.zeros(300, dtype=int)))
    with pytest.raises(ValueError):
        # 100 per class < 10 * 11
        emi_kde(make_ds(x, y), projected_dim=11)
    with pytest.raises(ValueError):
        emi_kde(make_ds(np.zeros((300, 2)), y), projected_dim=2)


def test_emi_kde_projection_caps_at_rank():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(400, 1))
    x = np.column_stack([base, 2.0 * base, -base])  # rank 1
    y = np.repeat(np.arange(2), 200)
    est = emi_kde(make_ds(x, y), projected_dim=3)
    assert est.projected_dim == 1
    assert est.rank == 1
    assert est.loo_floor_hits == 0
    assert isinstance(est, EmiEstimate)


def test_emi_kde_reports_rank_before_capping():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(300, 6))
    x[:, 5] = 0.0  # one zero-variance column
    est = emi_kde(make_ds(x, np.repeat(np.arange(3), 100)), projected_dim=2)
    assert est.rank == 5
    assert est.projected_dim == 2


def test_emi_kde_counts_isolated_samples_at_the_loo_floor():
    """A row far from every other has no leave-one-out kernel mass at all."""
    rng = np.random.default_rng(14)
    y = np.repeat(np.arange(3), 100)
    x = rng.normal(size=(300, 2)) + 4.0 * y[:, None]
    assert emi_kde(make_ds(x, y), projected_dim=2).loo_floor_hits == 0
    x[[10, 250]] += [[1e3, 0.0], [0.0, -1e3]]
    est = emi_kde(make_ds(x, y), projected_dim=2)
    assert est.loo_floor_hits == 2
    assert np.isfinite(est.emi_bits)


def test_mi_report_to_csv(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    data = tmp_path / "ds.rfds"
    save_dataset(make_ds(x, y), data)
    rep = per_feature_mi(load_dataset(data), bins=16)
    path = tmp_path / "mi.csv"
    config = tmp_path / "bins16.yaml"
    config.write_text("estimator: {bins: 16}\n")
    assert main(["mi", "--data", str(data), "--config", str(config), "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_index,freq_hz,mi_bits"
    assert len(lines) == 5
    freqs = np.fft.fftfreq(4, d=1 / 4e6)
    for i, line in enumerate(lines[1:]):
        idx, freq, mi = line.split(",")
        assert idx == str(i)
        assert float(freq) == freqs[i]
        assert float(mi) == rep.per_bin_mi[i]
    # the frequency column is empty when the dataset has no sample rate
    ds = make_ds(x, y)
    ds.meta.fs_hz = 0.0
    save_dataset(ds, data)
    bare = tmp_path / "bare.csv"
    assert main(["mi", "--data", str(data), "--config", str(config), "--out", str(bare)]) == 0
    assert bare.read_text().splitlines()[1].split(",")[1] == ""
