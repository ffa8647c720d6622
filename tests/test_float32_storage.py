"""Float32 feature storage gives the estimates of its float64 upcast, bit for bit.

load_dataset returns the float32 features an .rfds file stores, and
FingerprintDataset keeps a float32 array as it is. per_feature_mi, emi_kde,
fit_lda with classify, and user_capacity compute in float64 whatever the
storage dtype, so every output on float32 features must equal the output on
the same values widened to float64. They read the rows as C-ordered float64
blocks whatever the layout, so both must also equal the output on the
C-ordered float64 copy. That must hold for C-ordered arrays, for the
row-strided even and odd halves the benchmark trains and tests on, and for
F-ordered arrays. Writing a loaded dataset back must reproduce its file
byte for byte. The examples are derandomized so the suite runs the same
inputs every time.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rffcap.capacity import user_capacity  # noqa: E402
from rffcap.classifier import classify, fit_lda  # noqa: E402
from rffcap.fingerprint import (  # noqa: E402
    DatasetMeta,
    FingerprintDataset,
    load_dataset,
    save_dataset,
)
from rffcap.infotheory import emi_kde, per_feature_mi  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
# the rows each layout keeps: all of them, or the even or odd ones as a strided view
ROWS = {"C": slice(None), "even": slice(0, None, 2), "odd": slice(1, None, 2),
        "F": slice(None)}


def laid_out(x, layout):
    """x's rows for layout, F-ordered for "F"."""
    rows = x[ROWS[layout]]
    return np.asfortranarray(rows) if layout == "F" else rows


def make_ds(x, y):
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in y}))
    return FingerprintDataset(x, y, meta)


@st.composite
def float32_classes(draw):
    """Float32 features of 3-5 Gaussian classes, 40-60 rows each.

    Each value is scaled by a power of two from a span of 31-40 binades, wider
    than the 29 bits float64 has beyond float32, so a column's float64 sum
    rounds and its value depends on the order the rows are added in.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_classes = draw(st.integers(3, 5))
    per_class = draw(st.integers(40, 60))
    n_features = draw(st.integers(2, 40))
    y = np.repeat(np.arange(n_classes), per_class)
    centers = rng.normal(scale=draw(st.floats(0.1, 5.0)), size=(n_classes, n_features))
    x = (rng.normal(scale=draw(st.floats(0.1, 10.0)), size=(y.size, n_features))
         + centers[y] + draw(st.floats(-90.0, 10.0)))
    x = np.ldexp(x, rng.integers(-15, draw(st.integers(16, 25)), size=x.shape))
    return x.astype(np.float32), y


def assert_same_fields(a, b, names):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@PROPERTY_SETTINGS
@given(float32_classes(), st.sampled_from(list(ROWS)))
def test_estimators_on_float32_equal_their_float64_upcast(data, layout):
    x, y = data
    y = y[ROWS[layout]]
    x32, x64 = laid_out(x, layout), laid_out(x.astype(np.float64), layout)
    # float32, its float64 upcast and the upcast's C-ordered copy
    datasets = [make_ds(x32, y), make_ds(x64, y), make_ds(np.ascontiguousarray(x64), y)]
    assert datasets[0].features is x32 and datasets[1].features.dtype == np.float64

    def assert_all_same(results, names):
        for result in results[:-1]:
            assert_same_fields(result, results[-1], names)

    assert_all_same([per_feature_mi(ds, bins=16) for ds in datasets], ("per_bin_mi", "h_x"))

    emis = [emi_kde(ds, projected_dim=2) for ds in datasets]
    assert_all_same(emis, ("emi_bits", "emi_bits_clamped", "projected_dim", "bandwidths",
                           "rank", "loo_floor_hits"))
    for threshold in (0.01, 0.1):
        assert_all_same([user_capacity(emi.emi_bits_clamped, threshold, 1000) for emi in emis],
                        ("n_c", "saturated", "below_min", "trace"))

    ldas = [fit_lda(ds) for ds in datasets]
    assert_all_same(ldas, ("projection", "class_means", "pooled_cov_inv", "class_ids",
                           "kappa_eff", "ridge"))
    assert_all_same([classify(lda, ds) for lda, ds in zip(ldas, datasets)],
                    ("pe", "per_class_errors", "min_distance_scores", "confusion",
                     "assigned_ids"))


@PROPERTY_SETTINGS
@given(float32_classes(), st.sampled_from(list(ROWS)),
       st.sampled_from([np.float32, np.float64]))
def test_a_loaded_dataset_is_written_back_byte_for_byte(tmp_path_factory, data, layout,
                                                         dtype):
    x, y = data
    ds = make_ds(laid_out(x.astype(dtype), layout), y[ROWS[layout]])
    first = tmp_path_factory.mktemp("rfds") / "first.rfds"
    again = first.with_name("again.rfds")
    save_dataset(ds, first)
    back = load_dataset(first)
    assert back.features.dtype == np.float32 and back.features.flags.c_contiguous
    assert np.array_equal(back.features, ds.features.astype(np.float32))
    save_dataset(back, again)
    assert again.read_bytes() == first.read_bytes()


def test_per_feature_mi_bins_float32_as_float64_at_stored_analysis_size():
    # a float32 width can round across a bin edge for a few of millions of
    # values, which the small examples above rarely reach
    rng = np.random.default_rng(5)
    y = np.repeat(np.arange(40), 150)
    x = (rng.normal(scale=3.0, size=(y.size, 512)) + rng.normal(size=(40, 512))[y]
         - 40.0).astype(np.float32)
    mi32 = per_feature_mi(make_ds(x, y), bins=64)
    mi64 = per_feature_mi(make_ds(x.astype(np.float64), y), bins=64)
    assert_same_fields(mi32, mi64, ("per_bin_mi", "h_x"))


def test_emi_kde_on_f_ordered_float64_features_equals_the_c_ordered_copy():
    # float64 values whose column sums round: NumPy sums an F-ordered matrix's columns
    # pairwise and a C-ordered one's row after row, and emi_kde must center
    # F-ordered rows, over two row blocks here, by the latter mean
    rng = np.random.default_rng(7)
    y = np.repeat(np.arange(5), 300)
    x = rng.normal(size=(y.size, 16)) + rng.normal(size=(5, 16))[y] - 40.0
    assert_same_fields(emi_kde(make_ds(np.asfortranarray(x), y)), emi_kde(make_ds(x, y)),
                       ("emi_bits", "projected_dim", "bandwidths", "rank", "loo_floor_hits"))
