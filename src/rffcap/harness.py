"""Parameter sweeps tying the pipeline, estimators, and classifier together.

Each sweep point builds a fresh device population and dataset, estimates the
ensemble MI, derives user capacities at the 1% and 10% error thresholds, and
optionally brackets the capacity with empirical classifier runs. Points are
independently seeded by hashing (master seed, axis, value), so results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

import concurrent.futures
import json
import zlib
from dataclasses import MISSING, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .capacity import check_fano_consistency, fano_lower_bound, fano_upper_bound, user_capacity
from .classifier import error_rate_experiment
from .config import SWEEP_AXES, ScenarioConfig
from .fingerprint import build_dataset
from .infotheory import emi_kde
from .signal_model import sample_profiles

SWEEP_THRESHOLDS = (0.01, 0.10)

CSV_COLUMNS = [
    "axis", "value", "seed", "emi_bits", "emi_bits_clamped",
    "nc_1pct", "nc_10pct", "saturated", "below_min",
    "n_classes_tested", "pe_empirical", "pe_above_capacity",
    "emi_bits_classifier", "fano_lower", "fano_upper_raw", "fano_consistent",
]


@dataclass
class SweepSpec:
    """One varying axis over a fixed scenario."""

    axis: str
    values: list
    fixed: ScenarioConfig

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}: {self.axis}")
        vals = list(self.values)
        if not vals:
            raise ValueError("values must be non-empty")
        diffs = np.diff(np.asarray(vals, dtype=float))
        if len(vals) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("values must be strictly ordered")
        for v in vals:
            _check_axis_value(self.axis, v)
        self.values = vals


def _check_axis_value(axis: str, value) -> None:
    if axis == "n_train_devices":
        if int(value) != value or value < 1:
            raise ValueError(f"n_train_devices values must be integers >= 1: {value}")
    elif axis == "snr_db":
        if not np.isfinite(value):
            raise ValueError(f"snr_db values must be finite: {value}")
    elif axis == "q_bits":
        if int(value) != value or not 4 <= value <= 24:
            raise ValueError(f"q_bits values must be integers in [4, 24]: {value}")
    elif axis == "n_fft":
        v = int(value)
        if v != value or not 64 <= v <= 2048 or v & (v - 1):
            raise ValueError(f"n_fft values must be powers of two in [64, 2048]: {value}")
    elif axis == "fs_hz":
        if not 2e6 <= value <= 10e6:
            raise ValueError(f"fs_hz values must be in [2e6, 10e6]: {value}")


@dataclass
class SweepRow:
    axis: str
    value: float
    seed: int
    emi_bits: float
    emi_bits_clamped: float
    nc_1pct: int
    nc_10pct: int
    saturated: bool
    below_min: bool
    n_classes_tested: int | None = None
    pe_empirical: float | None = None
    pe_above_capacity: float | None = None
    emi_bits_classifier: float | None = None
    fano_lower: float | None = None
    fano_upper_raw: float | None = None
    fano_consistent: bool | None = None


@dataclass
class AbortedPoint:
    value: float
    reason: str


@dataclass
class SweepResult:
    spec_axis: str
    rows: list = field(default_factory=list)
    aborted: list = field(default_factory=list)


def point_seed_sequence(master_seed: int, axis: str, value) -> np.random.SeedSequence:
    """Deterministic per-point seed from (master, axis, value)."""
    axis_key = zlib.crc32(axis.encode())
    value_key = int(np.float64(value).view(np.uint64))
    return np.random.SeedSequence(master_seed, spawn_key=(axis_key, value_key))


def _scenario_at(base: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    if axis == "n_train_devices":
        return replace(base, n_devices=int(value))
    if axis == "snr_db":
        return replace(base, pipeline=replace(base.pipeline, snr_db=float(value)))
    if axis == "q_bits":
        return replace(base, pipeline=replace(base.pipeline, q_bits=int(value)))
    if axis == "n_fft":
        return replace(base, pipeline=replace(base.pipeline, n_fft=int(value)))
    if axis == "fs_hz":
        return replace(base, pipeline=replace(base.pipeline, fs_hz=float(value)))
    raise ValueError(f"unknown axis: {axis}")


def _run_point(spec: SweepSpec, value, with_classifier: bool) -> SweepRow:
    scenario = _scenario_at(spec.fixed, spec.axis, value)
    ss = point_seed_sequence(scenario.seed, spec.axis, value)
    seeds = ss.generate_state(4, np.uint64)
    profiles_seed, dataset_seed, cls_lo_seed, cls_hi_seed = (int(s) for s in seeds)

    n_avail = max(scenario.n_devices, scenario.classifier.max_devices if with_classifier else 0)
    profiles = sample_profiles(scenario.population, n_avail, profiles_seed)

    ds = build_dataset(profiles[:scenario.n_devices], scenario.per_class,
                       scenario.pipeline, dataset_seed)
    emi = emi_kde(ds, scenario.estimator.projected_dim)
    cap = {t: user_capacity(emi.emi_bits_clamped, t, scenario.capacity.n_max)
           for t in SWEEP_THRESHOLDS}

    row = SweepRow(
        axis=spec.axis, value=float(value), seed=profiles_seed,
        emi_bits=emi.emi_bits, emi_bits_clamped=emi.emi_bits_clamped,
        nc_1pct=cap[0.01].n_c, nc_10pct=cap[0.10].n_c,
        saturated=any(c.saturated for c in cap.values()),
        below_min=any(c.below_min for c in cap.values()))

    if with_classifier:
        max_dev = scenario.classifier.max_devices
        n_lo = int(np.clip(cap[0.01].n_c, 3, max_dev - 1))
        n_hi = n_lo + 1
        rep_lo, train_lo, _ = error_rate_experiment(
            profiles, n_lo, scenario.pipeline,
            train_per_class=scenario.classifier.train_per_class,
            test_per_class=scenario.classifier.test_per_class,
            kappa=scenario.classifier.kappa, ridge=scenario.classifier.ridge,
            master_seed=cls_lo_seed, return_datasets=True)
        rep_hi = error_rate_experiment(
            profiles, n_hi, scenario.pipeline,
            train_per_class=scenario.classifier.train_per_class,
            test_per_class=scenario.classifier.test_per_class,
            kappa=scenario.classifier.kappa, ridge=scenario.classifier.ridge,
            master_seed=cls_hi_seed)
        emi_cls = emi_kde(train_lo, scenario.estimator.projected_dim)
        row.n_classes_tested = n_lo
        row.pe_empirical = rep_lo.pe
        row.pe_above_capacity = rep_hi.pe
        row.emi_bits_classifier = emi_cls.emi_bits_clamped
        row.fano_lower = fano_lower_bound(emi_cls.emi_bits_clamped, n_lo, rep_lo.pe).value
        row.fano_upper_raw = fano_upper_bound(emi_cls.emi_bits_clamped, n_lo).raw
        row.fano_consistent = check_fano_consistency(
            emi_cls.emi_bits_clamped, n_lo, rep_lo.pe)
    return row


def run_sweep(spec: SweepSpec, with_classifier: bool = False,
              threads: int = 1) -> SweepResult:
    """Evaluate every axis value; failed points are recorded, not fatal."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    result = SweepResult(spec_axis=spec.axis)
    outcomes: list = [None] * len(spec.values)
    if threads == 1 or len(spec.values) == 1:
        for i, value in enumerate(spec.values):
            try:
                outcomes[i] = _run_point(spec, value, with_classifier)
            except Exception as exc:  # noqa: BLE001 - point isolation is the contract
                outcomes[i] = AbortedPoint(float(value), f"{type(exc).__name__}: {exc}")
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(_run_point, spec, v, with_classifier): i
                       for i, v in enumerate(spec.values)}
            for fut, i in futures.items():
                try:
                    outcomes[i] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    outcomes[i] = AbortedPoint(float(spec.values[i]),
                                               f"{type(exc).__name__}: {exc}")
    for out in outcomes:
        (result.rows if isinstance(out, SweepRow) else result.aborted).append(out)
    return result


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Deterministic CSV; only the leading timestamp comment varies per run."""
    lines = [f"# timestamp: {datetime.now(timezone.utc).isoformat()}"]
    for ab in result.aborted:
        # backslash-escape line breaks and other control characters so the
        # reason stays on its comment line
        reason = ab.reason.encode("unicode_escape").decode("ascii")
        lines.append(f"# aborted: value={ab.value!r} reason={reason}")
    lines.append(",".join(CSV_COLUMNS))
    for row in result.rows:
        lines.append(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def sweep_to_json(result: SweepResult, path) -> None:
    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "axis": result.spec_axis,
        "rows": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in result.rows],
        "aborted": [{"value": a.value, "reason": a.reason} for a in result.aborted],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _parse_cell(col: str, text: str):
    if text == "":
        return None
    if col in ("saturated", "below_min", "fano_consistent"):
        return text == "true"
    if col in ("nc_1pct", "nc_10pct", "n_classes_tested", "seed"):
        return int(text)
    if col == "axis":
        return text
    return float(text)


_ROW_KEYS = {f.name for f in fields(SweepRow)}
_REQUIRED_ROW_KEYS = [f.name for f in fields(SweepRow) if f.default is MISSING]


def _json_sweep_rows(path, payload: dict) -> list[SweepRow]:
    if not isinstance(payload.get("rows"), list):
        raise ValueError(f"{path}: no 'rows' list")
    rows = []
    for i, row in enumerate(payload["rows"]):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        unknown = sorted(set(row) - _ROW_KEYS)
        if unknown:
            raise ValueError(f"{path}: row {i} has unknown keys {unknown}")
        missing = [name for name in _REQUIRED_ROW_KEYS if name not in row]
        if missing:
            raise ValueError(f"{path}: row {i} lacks keys {missing}")
        rows.append(SweepRow(**row))
    return rows


def read_sweep_rows(path) -> list[SweepRow]:
    """Load rows from a sweep CSV or JSON file."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return _json_sweep_rows(path, json.loads(text))
    rows = []
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
             if ln and not ln.startswith("#")]
    if not lines:
        return rows
    header = lines[0][1].split(",")
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, "
                             f"the header has {len(header)}")
        data = {col: _parse_cell(col, cell) for col, cell in zip(header, cells)}
        rows.append(SweepRow(**data))
    return rows


@dataclass
class BoundCheck:
    value: float
    n_classes: int
    pe: float
    emi_bits: float
    slacked_lower: float
    margin: float
    passed: bool


def validate_bounds(rows, slack: float = 0.2) -> list[BoundCheck]:
    """Check every empirical row against its slack-adjusted error lower bound.

    For each row with an empirical error rate, requires
    fano_lower(emi + slack, n, pe) <= pe, using the EMI measured on the
    classifier's own training set when available. The margin is pe minus the
    slacked bound (negative margin = failure).
    """
    checks = []
    for row in rows:
        if row.pe_empirical is None or row.n_classes_tested is None:
            continue
        emi = row.emi_bits_classifier
        if emi is None:
            emi = row.emi_bits_clamped
        bound = fano_lower_bound(emi + slack, row.n_classes_tested,
                                 row.pe_empirical).value
        checks.append(BoundCheck(
            value=row.value, n_classes=row.n_classes_tested, pe=row.pe_empirical,
            emi_bits=emi, slacked_lower=bound, margin=row.pe_empirical - bound,
            passed=bound <= row.pe_empirical))
    if not checks:
        raise ValueError("no rows carry an empirical error rate to validate")
    return checks


def bound_checks_to_csv(checks: list[BoundCheck], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("value,n_classes,pe,emi_bits,slacked_lower,margin,passed\n")
        for c in checks:
            fh.write(f"{c.value!r},{c.n_classes},{c.pe!r},{c.emi_bits!r},"
                     f"{c.slacked_lower!r},{c.margin!r},"
                     f"{'true' if c.passed else 'false'}\n")
