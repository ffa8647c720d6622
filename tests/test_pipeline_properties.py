"""Invariants of the receive-chain kernels and the file formats, for all inputs.

The quantizer reproduces any in-range sample within half a step and is a
no-op on its own output; acquisition returns exactly `window` samples from
an onset inside each record, whatever the record lengths, the window and
the threshold; a dataset written by save_dataset reads back as its float32
image, and a scenario written by save_config reads back equal; a
PipelineConfig either fails construction with ValueError or builds finite
features. The examples are derandomized so the suite runs the same inputs
every time.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rffcap.config import (  # noqa: E402
    SWEEP_AXES,
    CapacityConfig,
    ClassifierConfig,
    EstimatorConfig,
    ScenarioConfig,
    SweepConfig,
    load_config,
    save_config,
)
from rffcap.fingerprint import (  # noqa: E402
    DatasetMeta,
    FingerprintDataset,
    PipelineConfig,
    _acquire_rows,
    build_dataset,
    load_dataset,
    save_dataset,
)
from rffcap.harness import (  # noqa: E402
    AbortedPoint,
    SweepResult,
    SweepRow,
    read_sweep_rows,
    sweep_to_csv,
)
from rffcap.signal_model import (  # noqa: E402
    ParamDist,
    PopulationSpec,
    _as_complex,
    _as_rails,
    _quantise,
    sample_profiles,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(seeds, st.integers(4, 24), st.integers(1, 50))
def test_quantise_within_half_step_and_idempotent(seed, q_bits, n):
    step = 2.0 / 2.0 ** q_bits
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    rails = _as_rails(x)
    clipped = _quantise(rails, q_bits)
    q = _as_complex(rails)
    assert not clipped.any()
    # half a step, plus the rounding of x / step and of the product back
    tol = step / 2.0 * (1.0 + 1e-9)
    assert np.all(np.abs(q.real - x.real) <= tol)
    assert np.all(np.abs(q.imag - x.imag) <= tol)
    again = rails.copy()
    clipped_again = _quantise(again, q_bits)
    assert np.array_equal(again, rails)
    assert not clipped_again.any()


@st.composite
def records(draw):
    """Rows of noise, some carrying a louder burst, zero-padded to one width."""
    seed = draw(seeds)
    rows = draw(st.integers(1, 6))
    window = draw(st.integers(1, 120))
    lengths = np.array(draw(st.lists(st.integers(window, 300), min_size=rows,
                                     max_size=rows)))
    rng = np.random.default_rng(seed)
    x = np.zeros((rows, int(lengths.max())), dtype=np.complex128)
    for r, n in enumerate(lengths):
        x[r, :n] = rng.normal(size=n) + 1j * rng.normal(size=n)
        start = int(rng.integers(0, n))
        x[r, start:n] *= draw(st.sampled_from([1.0, 3.0, 30.0]))
    return x, lengths, window


@PROPERTY_SETTINGS
@given(records(), st.floats(0.01, 100.0))
def test_acquire_rows_returns_window_inside_each_record(data, threshold_factor):
    x, lengths, window = data
    bursts, onsets, flagged = _acquire_rows(x, lengths, window, threshold_factor)
    assert bursts.shape == (x.shape[0], window)
    assert flagged.shape == (x.shape[0],)
    assert np.all((0 <= onsets) & (onsets <= lengths - window))
    for r, onset in enumerate(onsets):
        assert np.array_equal(bursts[r], x[r, onset:onset + window])


@PROPERTY_SETTINGS
@given(seeds, st.integers(1, 40), st.integers(1, 20),
       st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=5, unique=True),
       st.one_of(st.floats(-50.0, 50.0), st.just("noiseless")),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_dataset_save_load_round_trip(tmp_path_factory, seed, n_rows, n_bins,
                                      class_ids, snr_db, frac):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, len(class_ids), n_rows)
    features = rng.normal(scale=30.0, size=(n_rows, n_bins))
    meta = DatasetMeta(fs_hz=4e6, n_fft=n_bins, snr_db=snr_db, q_bits=12,
                       class_ids=class_ids, onset_flagged_frac=frac, clip_frac=frac)
    ds = FingerprintDataset(features, labels, meta)
    path = tmp_path_factory.mktemp("rfds") / "ds.rfds"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.features, features.astype(np.float32).astype(np.float64))
    assert np.array_equal(back.labels, labels)
    assert back.meta == meta


finite = st.floats(-1e6, 1e6)


@st.composite
def scenarios(draw):
    """Scenario configs over every section, with values of each field's type."""
    dists = {name: ParamDist(draw(finite), draw(st.floats(0.0, 1e6)))
             for name in PopulationSpec.__dataclass_fields__}
    lead_lo = draw(st.integers(0, 500))
    pipeline = PipelineConfig(
        fs_hz=draw(st.floats(2e6, 2e8)), n_symbols=draw(st.integers(1, 16)),
        # the effective SNR, snr_db shifted by at most 20 dB, stays >= -1000
        snr_db=draw(st.one_of(st.floats(-980.0, 1e6), st.just("noiseless"))),
        snr_ref_fs_hz=draw(st.one_of(st.none(), st.floats(2e6, 2e8))),
        q_bits=draw(st.integers(4, 24)), n_fft=2 ** draw(st.integers(6, 12)),
        threshold_factor=draw(st.floats(0.1, 100.0)),
        lead_pad=(lead_lo, lead_lo + draw(st.integers(0, 500))),
        tail_pad=draw(st.integers(0, 500)), adc_backoff_db=draw(st.floats(-1e3, 1e3)))
    classifier = ClassifierConfig(
        kappa=draw(st.integers(1, 500)), ridge=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
        train_per_class=draw(st.integers(2, 500)), test_per_class=draw(st.integers(2, 500)),
        max_devices=draw(st.integers(4, 100)))
    return ScenarioConfig(
        population=PopulationSpec(**dists), pipeline=pipeline,
        n_devices=draw(st.integers(2, 100)), per_class=draw(st.integers(2, 1000)),
        estimator=EstimatorConfig(bins=draw(st.integers(2, 256)),
                                  projected_dim=draw(st.integers(1, 20))),
        classifier=classifier, capacity=CapacityConfig(n_max=draw(st.integers(3, 10**6))),
        sweep=SweepConfig(axis=draw(st.sampled_from(SWEEP_AXES)),
                          # strictly ordered, as SweepConfig requires
                          values=sorted(draw(st.lists(finite, min_size=1, max_size=5,
                                                      unique=True)))),
        seed=draw(st.integers(0, 2**63 - 1)))


@PROPERTY_SETTINGS
@given(scenarios())
def test_config_save_load_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("config") / "scenario.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def wide(lo, hi):
    """Finite floats in [lo, hi] and the non-finite ones."""
    return st.one_of(st.floats(lo, hi), non_finite)


def counts(lo, hi):
    """Integers, fractions and non-finite floats, for an integer field."""
    return st.one_of(st.integers(lo, hi), st.floats(lo, hi), non_finite)


# each PipelineConfig field: (ordinary values, wide values). Sizes stay small
# enough to build: at most 8 symbols at 40 MHz and lead/tail pads of 300.
PIPELINE_FIELDS = {
    "fs_hz": (st.floats(2e6, 2e7), wide(-1e7, 4e7)),
    "n_symbols": (st.integers(1, 8), counts(-3, 8)),
    "snr_db": (st.one_of(st.floats(-20.0, 60.0), st.just("noiseless")),
               st.one_of(wide(-1e4, 1e4), st.just("loud"))),
    "snr_ref_fs_hz": (st.one_of(st.none(), st.floats(1e6, 1e8)), wide(-1e7, 1e300)),
    "q_bits": (st.integers(4, 24), counts(-2, 40)),
    "n_fft": (st.sampled_from([2 ** k for k in range(6, 13)]), counts(-64, 8192)),
    "threshold_factor": (st.floats(1.0, 20.0), wide(-10.0, 1e6)),
    "lead_pad": (st.tuples(st.integers(0, 50), st.integers(50, 200)),
                 st.tuples(counts(-10, 300), counts(-10, 300))),
    "tail_pad": (st.integers(0, 100), counts(-50, 300)),
    "adc_backoff_db": (st.floats(-20.0, 20.0), wide(-1e7, 1e7)),
}


@st.composite
def pipeline_fields(draw):
    """PipelineConfig keywords: ordinary values, with up to three fields drawn
    from their wide values instead."""
    kw = {name: draw(ordinary) for name, (ordinary, _) in PIPELINE_FIELDS.items()}
    for name in draw(st.lists(st.sampled_from(sorted(PIPELINE_FIELDS)), max_size=3,
                              unique=True)):
        kw[name] = draw(PIPELINE_FIELDS[name][1])
    return kw


def _numbers(kw):
    for value in kw.values():
        yield from value if isinstance(value, tuple) else [value]


TWO_PROFILES = sample_profiles(PopulationSpec(), 2, seed=3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pipeline_fields())
@example({"snr_ref_fs_hz": 0.0})
@example({"adc_backoff_db": -1e6})
@example({"threshold_factor": float("nan")})
@example({"tail_pad": -40})
def test_pipeline_config_is_rejected_or_builds_finite_features(kw):
    """Construction raises ValueError, or the config holds no NaN or infinity
    and 2 profiles x 2 captures build into finite features."""
    try:
        pipeline = PipelineConfig(**kw)
    except ValueError:
        return
    assert all(np.isfinite(v) for v in _numbers(kw) if isinstance(v, float))
    ds = build_dataset(TWO_PROFILES, 2, pipeline, master_seed=1)
    assert ds.features.shape == (4, pipeline.n_fft)
    assert np.isfinite(ds.features).all()


any_float = st.floats(allow_nan=False)  # includes +-inf, -0.0 and subnormals


@st.composite
def sweep_rows(draw):
    """Rows with every field drawn, the optional ones possibly None."""
    def optional(strategy):
        return draw(st.one_of(st.none(), strategy))
    return SweepRow(
        axis=draw(st.sampled_from(SWEEP_AXES)), value=draw(any_float),
        seed=draw(st.integers(0, 2**64 - 1)), emi_bits=draw(any_float),
        emi_bits_clamped=draw(any_float), nc_1pct=draw(st.integers(2, 10**6)),
        nc_10pct=draw(st.integers(2, 10**6)), saturated=draw(st.booleans()),
        below_min=draw(st.booleans()), n_classes_tested=optional(st.integers(3, 10**4)),
        pe_empirical=optional(any_float), pe_above_capacity=optional(any_float),
        emi_bits_classifier=optional(any_float), fano_lower=optional(any_float),
        fano_upper_raw=optional(any_float), fano_consistent=optional(st.booleans()))


@PROPERTY_SETTINGS
@given(st.lists(sweep_rows(), max_size=4),
       st.lists(st.builds(AbortedPoint, any_float, st.text()), max_size=2))
def test_sweep_csv_round_trip(tmp_path_factory, rows, aborted):
    path = tmp_path_factory.mktemp("sweep") / "rows.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=rows, aborted=aborted), path)
    back = read_sweep_rows(path)
    # repr tells -0.0 from 0.0 and True from 1, which == does not
    assert back == rows
    assert repr(back) == repr(rows)
