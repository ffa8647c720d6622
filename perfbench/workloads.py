"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from a seed in ``__init__`` (untimed set-up),
runs one operation in ``op`` (timed) and turns the op's return value into an
``Outcome`` in ``outcome`` (untimed). Op ``i`` runs input ``i % cycle``. Everything goes through rffcap's public
functions, looked up on the package at call time so a tracer can wrap them.

Why these three:

- ``snr_sweep``: one ``run_sweep`` point per op over snr_db 5/10/20/30 on the
  default population (12 devices x 150 captures, fs 4 MHz, n_fft 256).
  Capture synthesis is about 90% of the time and the captures are short, so
  per-capture Python overhead dominates. The 5 dB point drives the
  acquisition fallback and ADC clipping.
- ``classifier_bracket``: one ``with_classifier=True`` point (fs 10 MHz,
  n_fft 1024, snr_db 16 referenced to 4 MHz, 200/200 captures per class):
  the same capture layer on long records and large FFTs, an SVD over 1024
  columns in ``emi_kde``, and the five ``build_dataset`` calls per point.
  ``max_devices`` is 7 rather than the default 40, so the bracket is pinned
  at n_lo = 6 for almost every population: with 40 the bracket follows the
  population's capacity (n_lo from 4 to 11 over 40 seeds) and the work per
  op, hence its time, varies by up to 60% from seed to seed. BENCHMARK.json
  leaves this workload out of the timed set: its set-up and 8 s ops would
  cost the other two the run length they need to be steady on a 2-CPU
  machine. Run it by hand for the classifier path and the per-point
  dataset cost.
- ``stored_analysis``: the dataset (40 devices x 150 captures, default
  pipeline) is built and saved once in set-up; each op loads it and runs the
  estimators and the classifier, so capture synthesis does no timed work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import rffcap
from rffcap.config import ClassifierConfig, ScenarioConfig

THRESHOLDS = (0.01, 0.10)
BOUND_SLACK = 0.2  # the default of `rffcap validate --slack`


@dataclass
class Outcome:
    """What one op produced, from its return value."""

    key: str                # ops with the same key must give identical outputs
    outputs: dict           # values compared across ops and with the reference
    captures: int           # captures behind the result, synthesised or loaded
    rows: int               # feature rows given to emi_kde
    problems: list = field(default_factory=list)


def _check_row(row, n_classes: int) -> list[str]:
    problems = []
    if not 0.0 <= row.emi_bits_clamped <= math.log2(n_classes):
        problems.append(f"emi_bits_clamped {row.emi_bits_clamped} outside "
                        f"[0, log2 {n_classes}]")
    for name in ("pe_empirical", "pe_above_capacity"):
        pe = getattr(row, name)
        if pe is not None and not 0.0 <= pe <= 1.0:
            problems.append(f"{name} {pe} outside [0, 1]")
    return problems


def _bounds_ok(rows) -> bool:
    """Whether every classifier row passes ``validate_bounds`` at the CLI's slack.

    Recorded as an output rather than counted as a failure: for some
    populations (about one seed in five) the ensemble MI estimate falls more
    than the slack below what the classifier achieves, so the outcome depends
    on the seed. At the default seed it must match the reference like any
    output.
    """
    return all(c.passed for c in rffcap.validate_bounds(rows, slack=BOUND_SLACK))


def _sweep_row(result, value) -> tuple:
    """The single row of a one-point sweep, or None with the problems."""
    problems = [f"aborted point {a.value}: {a.reason}" for a in result.aborted]
    if len(result.rows) != 1:
        problems.append(f"expected 1 sweep row for {value}, got {len(result.rows)}")
        return None, problems
    return result.rows[0], problems


class SnrSweep:
    name = "snr_sweep"
    values = (5.0, 10.0, 20.0, 30.0)
    cycle = len(values)

    def __init__(self, seed: int, workdir: Path, n_devices: int = 12,
                 per_class: int = 150, n_fft: int = 256):
        self.scenario = ScenarioConfig(pipeline=rffcap.PipelineConfig(n_fft=n_fft),
                                       n_devices=n_devices, per_class=per_class, seed=seed)

    def op(self, i: int):
        spec = rffcap.SweepSpec("snr_db", [self.values[i % len(self.values)]],
                                self.scenario)
        return rffcap.run_sweep(spec, with_classifier=False, threads=1)

    def outcome(self, i: int, result) -> Outcome:
        value = self.values[i % len(self.values)]
        row, problems = _sweep_row(result, value)
        n = self.scenario.n_devices * self.scenario.per_class
        if row is None:
            return Outcome(f"snr_db={value:g}", {}, n, n, problems)
        problems += _check_row(row, self.scenario.n_devices)
        outputs = {"emi_bits": row.emi_bits, "emi_bits_clamped": row.emi_bits_clamped,
                   "nc_1pct": row.nc_1pct, "nc_10pct": row.nc_10pct}
        return Outcome(f"snr_db={value:g}", outputs, n, n, problems)


class ClassifierBracket:
    name = "classifier_bracket"
    snr_db = 16.0
    cycle = 1

    def __init__(self, seed: int, workdir: Path, n_devices: int = 12,
                 per_class: int = 150, fs_hz: float = 10e6, n_fft: int = 1024,
                 train_per_class: int = 200, test_per_class: int = 200,
                 max_devices: int = 7):
        pipeline = rffcap.PipelineConfig(fs_hz=fs_hz, n_fft=n_fft, snr_db=self.snr_db,
                                         snr_ref_fs_hz=4e6)
        classifier = ClassifierConfig(train_per_class=train_per_class,
                                      test_per_class=test_per_class,
                                      max_devices=max_devices)
        self.scenario = ScenarioConfig(pipeline=pipeline, n_devices=n_devices,
                                       per_class=per_class, classifier=classifier,
                                       seed=seed)

    def op(self, i: int):
        spec = rffcap.SweepSpec("snr_db", [self.snr_db], self.scenario)
        return rffcap.run_sweep(spec, with_classifier=True, threads=1)

    def outcome(self, i: int, result) -> Outcome:
        key = f"snr_db={self.snr_db:g}"
        row, problems = _sweep_row(result, self.snr_db)
        if row is None:
            return Outcome(key, {}, 0, 0, problems)
        problems += _check_row(row, self.scenario.n_devices)
        if not 0.0 <= row.emi_bits_classifier <= math.log2(row.n_classes_tested):
            problems.append(f"emi_bits_classifier {row.emi_bits_classifier} outside "
                            f"[0, log2 {row.n_classes_tested}]")
        # one dataset for the EMI point, then train and test sets for the
        # bracket's n_lo and n_lo + 1 classes; EMI runs on the point's
        # dataset and on the n_lo training set
        sc, cls, n_lo = self.scenario, self.scenario.classifier, row.n_classes_tested
        point = sc.n_devices * sc.per_class
        captures = point + (2 * n_lo + 1) * (cls.train_per_class + cls.test_per_class)
        rows = point + n_lo * cls.train_per_class
        outputs = {"emi_bits": row.emi_bits, "emi_bits_clamped": row.emi_bits_clamped,
                   "nc_1pct": row.nc_1pct, "nc_10pct": row.nc_10pct,
                   "n_classes_tested": n_lo, "pe_empirical": row.pe_empirical,
                   "pe_above_capacity": row.pe_above_capacity,
                   "emi_bits_classifier": row.emi_bits_classifier,
                   "bounds_ok": _bounds_ok([row]), "fano_consistent": row.fano_consistent}
        return Outcome(key, outputs, captures, rows, problems)


class StoredAnalysis:
    name = "stored_analysis"
    cycle = 1

    def __init__(self, seed: int, workdir: Path, n_devices: int = 40,
                 per_class: int = 150, n_fft: int = 512):
        self.seed = seed
        self.n_classes = n_devices
        profiles = rffcap.sample_profiles(rffcap.PopulationSpec(), n_devices, seed)
        dataset = rffcap.build_dataset(profiles, per_class,
                                       rffcap.PipelineConfig(n_fft=n_fft), master_seed=seed)
        self.path = Path(workdir) / "stored_analysis.rfds"
        rffcap.save_dataset(dataset, self.path)

    def op(self, i: int):
        ds = rffcap.load_dataset(self.path)
        mi = rffcap.per_feature_mi(ds, bins=64)
        emi = rffcap.emi_kde(ds, projected_dim=10)
        caps = [rffcap.user_capacity(emi.emi_bits_clamped, t) for t in THRESHOLDS]
        train = rffcap.FingerprintDataset(ds.features[0::2], ds.labels[0::2], ds.meta)
        test = rffcap.FingerprintDataset(ds.features[1::2], ds.labels[1::2], ds.meta)
        report = rffcap.classify(rffcap.fit_lda(train), test)
        return ds.n_samples, mi, emi, caps, report

    def outcome(self, i: int, result) -> Outcome:
        n_rows, mi, emi, caps, report = result
        row = rffcap.SweepRow(
            axis="stored", value=0.0, seed=self.seed, emi_bits=emi.emi_bits,
            emi_bits_clamped=emi.emi_bits_clamped, nc_1pct=caps[0].n_c,
            nc_10pct=caps[1].n_c, saturated=any(c.saturated for c in caps),
            below_min=any(c.below_min for c in caps), n_classes_tested=self.n_classes,
            pe_empirical=report.pe)
        problems = _check_row(row, self.n_classes)
        outputs = {"mi_bits_sum": float(mi.per_bin_mi.sum()), "emi_bits": emi.emi_bits,
                   "emi_bits_clamped": emi.emi_bits_clamped, "nc_1pct": caps[0].n_c,
                   "nc_10pct": caps[1].n_c, "pe": report.pe, "bounds_ok": _bounds_ok([row]),
                   "fano_consistent": rffcap.check_fano_consistency(
                       emi.emi_bits_clamped, self.n_classes, report.pe)}
        return Outcome("stored", outputs, n_rows, n_rows, problems)


WORKLOADS = {w.name: w for w in (SnrSweep, ClassifierBracket, StoredAnalysis)}

# Outputs that are recorded but are not a pass/fail check.
RECORDED_ONLY = ("fano_consistent",)


def compare(outputs: dict, expected: dict, what: str) -> list[str]:
    """Differences between outputs and expected values (floats to 1e-9 relative)."""
    problems = []
    for name, want in expected.items():
        if name in RECORDED_ONLY:
            continue
        got = outputs.get(name)
        if isinstance(want, float) and isinstance(got, float):
            same = math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        else:
            same = got == want
        if not same:
            problems.append(f"{what}: {name} is {got!r}, expected {want!r}")
    return problems
