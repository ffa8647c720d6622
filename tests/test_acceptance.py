"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines.
Every test also enforces a wall-clock budget so the gate stays practical.
"""

import time
from dataclasses import replace

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad

from rffcap.capacity import fano_lower_bound, user_capacity
from rffcap.classifier import ClassifierConfig, error_rate_experiment, fit_lda
from rffcap.config import ScenarioConfig
from rffcap.fingerprint import (
    DatasetMeta,
    FingerprintDataset,
    PipelineConfig,
    build_dataset,
)
from rffcap.harness import SweepSpec, run_sweep, sweep_to_csv
from rffcap.infotheory import emi_kde, per_feature_mi
from rffcap.signal_model import (
    ParamDist,
    PopulationSpec,
    adc_sample,
    quantization_error_bound,
    sample_profiles,
)

# the classifier's training and test rows per class in criteria 5 and 7
CLASSIFIER = ClassifierConfig(train_per_class=200, test_per_class=200)
# hardware spread used by the bound-consistency and trend criteria: wide
# enough that the density estimate saturates where the classifier is clean
WIDE_POPULATION = PopulationSpec(
    cfo_hz=ParamDist(0.0, 40e3), iq_gain_db=ParamDist(0.0, 0.8),
    iq_phase_deg=ParamDist(0.0, 6.0), clock_jitter_ppm=ParamDist(0.0, 40.0),
    pa_alpha3=ParamDist(-0.08, 0.1), dc_offset_re=ParamDist(0.0, 0.04),
    dc_offset_im=ParamDist(0.0, 0.04))

# even wider spread for the error-free classification check
SPREAD_POPULATION = PopulationSpec(
    cfo_hz=ParamDist(0.0, 60e3), iq_gain_db=ParamDist(0.0, 1.2),
    iq_phase_deg=ParamDist(0.0, 9.0), clock_jitter_ppm=ParamDist(0.0, 60.0),
    pa_alpha3=ParamDist(-0.08, 0.15), dc_offset_re=ParamDist(0.0, 0.06),
    dc_offset_im=ParamDist(0.0, 0.06))


def report(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def make_ds(x, y):
    x = np.asarray(x, dtype=float)
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in np.asarray(y)}))
    return FingerprintDataset(x, np.asarray(y), meta)


def test_acceptance_1_adc_error_bound():
    """In-range quantization error never exceeds 2^-Q * full scale."""
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(901)
    for q_bits in (8, 14):
        x = (rng.uniform(-1.0, 1.0, size=100_000)
             + 1j * rng.uniform(-1.0, 1.0, size=100_000))
        out, clip_fraction = adc_sample(x, q_bits)
        err = np.maximum(np.abs(out.real - x.real),
                         np.abs(out.imag - x.imag))
        bound = quantization_error_bound(q_bits)
        ok &= bound == 2.0 ** (-q_bits) * 2.0
        ok &= float(err.max()) <= bound
        ok &= clip_fraction == 0.0
    elapsed = time.perf_counter() - t0
    assert report(1, "adc-error-bound", ok)
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_2_per_bin_mi_accuracy():
    """Histogram MI matches numeric integration for a two-class Gaussian pair."""
    t0 = time.perf_counter()

    def pdf(x, mu):
        return np.exp(-0.5 * (x - mu) ** 2) / np.sqrt(2 * np.pi)

    def integrand(x):
        p = 0.5 * pdf(x, 0.0) + 0.5 * pdf(x, 4.0)
        return -p * np.log2(p) if p > 0 else 0.0

    oracle = quad(integrand, -12, 16, limit=200)[0] - 0.5 * np.log2(2 * np.pi * np.e)
    ok = abs(oracle - 0.9128) < 1e-3  # integration sanity pin

    rng = np.random.default_rng(202)
    n = 10_000
    y = rng.integers(0, 2, size=n)
    x = rng.normal(size=n) + 4.0 * y
    est = per_feature_mi(make_ds(x[:, None], y), bins=64).per_bin_mi[0]
    ok &= abs(est - oracle) <= 0.05

    noise = per_feature_mi(make_ds(rng.uniform(size=(n, 1)),
                                   rng.integers(0, 2, size=n)), bins=64)
    ok &= noise.per_bin_mi[0] <= 0.02

    elapsed = time.perf_counter() - t0
    assert report(2, "per-bin-mi-accuracy", ok)
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_3_ensemble_mi_accuracy():
    """KDE ensemble MI recovers a known discrete MI and a saturated one."""
    t0 = time.perf_counter()
    joint = np.array([
        [0.15, 0.05, 0.08, 0.02],
        [0.03, 0.20, 0.05, 0.02],
        [0.02, 0.05, 0.08, 0.25],
    ])
    exact = 0.4505179944412754  # sum p log2(p / (p_row p_col)) of the table
    rng = np.random.default_rng(42)
    draws = rng.choice(12, size=6000, p=joint.ravel())
    est = emi_kde(make_ds((draws % 4).astype(float)[:, None], draws // 4),
                  projected_dim=1)
    ok = abs(est.emi_bits - exact) <= 0.1

    centers = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    rng = np.random.default_rng(7)
    y = np.repeat(np.arange(4), 250)
    x = rng.normal(size=(1000, 2)) + centers[y]
    sep = emi_kde(make_ds(x, y), projected_dim=2)
    ok &= abs(sep.emi_bits - 2.0) <= 0.05
    ok &= sep.emi_bits_clamped == 2.0

    elapsed = time.perf_counter() - t0
    assert report(3, "ensemble-mi-accuracy", ok)
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_4_capacity_scan_exactness():
    """The float capacity scan agrees with a 50-digit reference at the edge."""
    t0 = time.perf_counter()
    mp.dps = 50
    emi, thr = mpf("3.5"), mpf("0.01")
    h2 = -thr * mp.log(thr, 2) - (1 - thr) * mp.log(1 - thr, 2)

    def ratio(n):
        return (mp.log(n, 2) - emi - h2) / mp.log(n - 1, 2)

    ok = ratio(12) <= thr < ratio(13)
    res = user_capacity(3.5, 0.01)
    ok &= res.n_c == 12 and not res.saturated and not res.below_min
    ok &= abs(res.trace[9] - float(ratio(12))) < 1e-12
    ok &= abs(res.trace[10] - float(ratio(13))) < 1e-12

    floor = user_capacity(0.0, 0.01)
    ok &= floor.n_c == 2 and floor.below_min

    elapsed = time.perf_counter() - t0
    assert report(4, "capacity-scan-exactness", ok)
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_5_fano_consistency():
    """Measured error rates never violate the slack-adjusted error bound."""
    t0 = time.perf_counter()
    ok = True
    for snr, n_classes in ((10.0, 6), (15.0, 8), (20.0, 10),
                           (25.0, 12), (30.0, 16)):
        profiles = sample_profiles(WIDE_POPULATION, n_classes, seed=41)
        cfg = PipelineConfig(n_fft=256, snr_db=snr)
        rep, train, _ = error_rate_experiment(
            profiles, n_classes, cfg, CLASSIFIER, master_seed=17, return_datasets=True)
        emi = emi_kde(train, projected_dim=10)
        bound = fano_lower_bound(emi.emi_bits_clamped + 0.2, n_classes, rep.pe)
        ok &= bound.value <= rep.pe
        ok &= rep.pe <= 0.05  # these populations classify nearly cleanly
    elapsed = time.perf_counter() - t0
    assert report(5, "fano-consistency", ok)
    assert elapsed < 300.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_6_parameter_trends():
    """Information and capacity move the right way along SNR, resolution, rate."""
    t0 = time.perf_counter()
    seeds = (3, 4, 5)

    def point(pop, pipeline, seed):
        profiles = sample_profiles(pop, 12, seed=seed)
        ds = build_dataset(profiles, 150, pipeline, master_seed=seed)
        est = emi_kde(ds, projected_dim=10)
        return est.emi_bits_clamped, user_capacity(est.emi_bits_clamped, 0.01).n_c

    # (a) ensemble information is non-decreasing in SNR
    emi_means = []
    for snr in (10.0, 20.0, 30.0):
        vals = [point(PopulationSpec(), PipelineConfig(n_fft=256, snr_db=snr), s)[0]
                for s in seeds]
        emi_means.append(float(np.mean(vals)))
    ok = all(b >= a for a, b in zip(emi_means, emi_means[1:]))
    ok &= emi_means[-1] > emi_means[0]

    # (b) finer spectral resolution helps, then saturates once the full
    # record is covered by a single transform
    narrow = PopulationSpec(cfo_hz=ParamDist(0.0, 12e3))
    nc_means = []
    for n_fft in (64, 256, 512, 1024):
        vals = [point(narrow, PipelineConfig(n_fft=n_fft, snr_db=16.0), s)[1]
                for s in seeds]
        nc_means.append(float(np.mean(vals)))
    ok &= nc_means[2] >= nc_means[0]
    ok &= (nc_means[1] - nc_means[0]) > (nc_means[3] - nc_means[2])

    # (c) sampling rate has an interior optimum when the noise bandwidth
    # scales with the rate (fixed reference bandwidth)
    fs_means = []
    for fs in (2e6, 4e6, 6e6, 8e6, 10e6):
        cfg = PipelineConfig(fs_hz=fs, n_fft=1024, snr_db=16.0, snr_ref_fs_hz=4e6)
        vals = [point(narrow, cfg, s)[1] for s in seeds]
        fs_means.append(float(np.mean(vals)))
    interior = max(fs_means[1:-1])
    ok &= interior > fs_means[0]
    ok &= interior > fs_means[-1]

    elapsed = time.perf_counter() - t0
    assert report(6, "parameter-trends", ok)
    assert elapsed < 900.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_7_classifier_sanity():
    """Clean separation is error-free, shuffled labels hit chance, rank caps."""
    t0 = time.perf_counter()
    profiles = sample_profiles(SPREAD_POPULATION, 6, seed=21)
    cfg = PipelineConfig(n_fft=256, snr_db=30.0)
    rep, train, _ = error_rate_experiment(
        profiles, 6, cfg, CLASSIFIER, master_seed=22, return_datasets=True)
    ok = rep.pe == 0.0

    model = fit_lda(train, kappa=150)
    ok &= model.projection.shape[1] == 5  # capped at C - 1

    shuffled = error_rate_experiment(
        profiles, 6, cfg, CLASSIFIER, master_seed=22, shuffle_train_labels=True)
    ok &= abs(shuffled.pe - (1.0 - 1.0 / 6.0)) <= 0.05

    elapsed = time.perf_counter() - t0
    assert report(7, "classifier-sanity", ok)
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"


def test_acceptance_8_reproducibility(tmp_path):
    """Identical results regardless of worker count, modulo the timestamp."""
    t0 = time.perf_counter()
    fixed = ScenarioConfig(
        population=PopulationSpec(cfo_hz=ParamDist(0.0, 40e3),
                                  iq_gain_db=ParamDist(0.0, 0.8)),
        pipeline=PipelineConfig(n_fft=64, snr_db=24.0),
        n_devices=4, per_class=24, seed=12)
    fixed = replace(fixed, estimator=replace(fixed.estimator, projected_dim=2))
    spec = SweepSpec(axis="snr_db", values=[12.0, 18.0, 24.0], fixed=fixed)

    serial = run_sweep(spec, threads=1)
    parallel = run_sweep(spec, threads=3)
    ok = serial.rows == parallel.rows and len(serial.rows) == 3

    p1, p3 = tmp_path / "t1.csv", tmp_path / "t3.csv"
    sweep_to_csv(serial, p1)
    sweep_to_csv(parallel, p3)

    def body(path):
        return "\n".join(ln for ln in path.read_text().splitlines()
                         if not ln.startswith("# timestamp:"))

    ok &= body(p1) == body(p3)

    elapsed = time.perf_counter() - t0
    assert report(8, "reproducibility", ok)
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.2f}s"
