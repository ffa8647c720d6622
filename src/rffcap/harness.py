"""Parameter sweeps tying the pipeline, estimators, and classifier together.

Each sweep point builds a fresh device population and dataset, estimates the
ensemble MI, derives user capacities at the 1% and 10% error thresholds, and
optionally brackets the capacity with empirical classifier runs. Points are
independently seeded by hashing (master seed, axis, value), so results do not
depend on evaluation order or worker count.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import json
import os
import zlib
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from ._records import _check_count, _check_real, read_record
from .capacity import (
    MIN_USERS,
    fano_lower_bound,
    fano_upper_bound,
    user_capacity,
)
from .classifier import error_rate_experiment
from .config import ConfigError, ScenarioConfig, SweepConfig
from .fingerprint import build_dataset
from .infotheory import emi_kde
from .signal_model import sample_profiles

SWEEP_THRESHOLDS = (0.01, 0.10)
BOUND_SLACK = 0.2  # EMI slack in bits that validate_bounds adds by default


@dataclass
class SweepSpec:
    """One varying axis over a fixed scenario; every point's scenario is built at construction."""

    axis: str
    values: list
    fixed: ScenarioConfig

    def __post_init__(self):
        """A rejected axis, value list or point raises ConfigError naming the sweep."""
        vals = list(self.values)
        try:
            SweepConfig(self.axis, vals)
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None
        for v in vals:
            try:
                _scenario_at(self.fixed, self.axis, v)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep: {self.axis} = {v!r}: {exc}") from None
        self.values = vals


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


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


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
    """base with the axis set to value; 10.5 reaches an int field as is, not truncated."""
    if axis in ("snr_db", "fs_hz"):
        value = float(value)
    elif float(value).is_integer():
        value = int(value)
    if axis == "n_train_devices":
        return replace(base, n_devices=value)
    return replace(base, pipeline=replace(base.pipeline, **{axis: value}))


def _run_point(spec: SweepSpec, value, with_classifier: bool) -> SweepRow:
    scenario = _scenario_at(spec.fixed, spec.axis, value)
    seeds = point_seed_sequence(scenario.seed, spec.axis, value).generate_state(4, np.uint64)
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
        n_lo = int(np.clip(cap[0.01].n_c, MIN_USERS, scenario.classifier.max_devices - 1))
        rep_lo, train_lo, _ = error_rate_experiment(
            profiles, n_lo, scenario.pipeline, scenario.classifier, master_seed=cls_lo_seed,
            return_datasets=True)
        rep_hi = error_rate_experiment(profiles, n_lo + 1, scenario.pipeline,
                                       scenario.classifier, master_seed=cls_hi_seed)
        emi_cls = emi_kde(train_lo, scenario.estimator.projected_dim)
        row.n_classes_tested = n_lo
        row.pe_empirical = rep_lo.pe
        row.pe_above_capacity = rep_hi.pe
        row.emi_bits_classifier = emi_cls.emi_bits_clamped
        row.fano_lower = fano_lower_bound(emi_cls.emi_bits_clamped, n_lo, rep_lo.pe).value
        row.fano_upper_raw = fano_upper_bound(emi_cls.emi_bits_clamped, n_lo).raw
        row.fano_consistent = row.fano_lower <= rep_lo.pe
    return row


def run_sweep(spec: SweepSpec, with_classifier: bool = False,
              threads: int = 1) -> SweepResult:
    """Evaluate every axis value; failed points are recorded, not fatal."""
    _check_count("threads", threads, 1)
    result = SweepResult(spec_axis=spec.axis)
    with (concurrent.futures.ProcessPoolExecutor(max_workers=threads)
          if threads > 1 and len(spec.values) > 1 else contextlib.nullcontext()) as pool:
        # each point as a call: its future's result, or the point itself, run in process
        points = [pool.submit(_run_point, spec, v, with_classifier).result if pool
                  else partial(_run_point, spec, v, with_classifier) for v in spec.values]
        for value, point in zip(spec.values, points):
            try:
                result.rows.append(point())
            except Exception as exc:  # noqa: BLE001 - point isolation is the contract
                result.aborted.append(AbortedPoint(float(value), f"{type(exc).__name__}: {exc}"))
    return result


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(target, columns, rows, comments=()) -> None:
    """CSV to a path or an open text stream: '# ' comment lines, a header, rows.

    Cells are formatted by _cell: empty for None, true/false for booleans,
    repr(float(v)) for floats and str(int(v)) for integers, NumPy scalars
    included, so every float reads back bit for bit.
    """
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", newline="") as fh:
            write_table(fh, columns, rows, comments)
        return
    for comment in comments:
        target.write(f"# {comment}\n")
    target.write(",".join(columns) + "\n")
    for row in rows:
        target.write(",".join(map(_cell, row)) + "\n")


def sweep_to_csv(result: SweepResult, path) -> None:
    """Deterministic CSV; only the leading timestamp comment varies per run."""
    comments = [f"timestamp: {datetime.now(timezone.utc).isoformat()}"]
    for ab in result.aborted:
        # backslash-escape line breaks and other control characters so the
        # reason stays on its comment line
        reason = ab.reason.encode("unicode_escape").decode("ascii")
        comments.append(f"aborted: value={ab.value!r} reason={reason}")
    write_table(path, CSV_COLUMNS, (astuple(row) for row in result.rows), comments)


def sweep_to_json(result: SweepResult, path) -> None:
    payload = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "axis": result.spec_axis,
        "rows": [asdict(r) for r in result.rows],
        "aborted": [{"value": a.value, "reason": a.reason} for a in result.aborted],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false: {text!r}")
    return text == "true"


_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}
# per SweepRow field, the parser of its CSV cells
_ROW_PARSERS = {f.name: _PARSERS[f.type.split(" | ")[0]] for f in fields(SweepRow)}


def read_sweep_rows(path) -> list[SweepRow]:
    """Load rows from a sweep CSV or JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if text.lstrip().startswith(("{", "[")):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        rows = payload.get("rows") if isinstance(payload, dict) else None
        if not isinstance(rows, list):
            raise ValueError(f"{path}: no 'rows' list")
        return [read_record(SweepRow, row, f"{path}: rows[{i}]") for i, row in enumerate(rows)]
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), start=1)
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no header line")
    header = lines[0][1].split(",")
    rows = []
    for number, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: line {number} has {len(cells)} cells, "
                             f"the header has {len(header)}")
        data = {}
        for column, cell in zip(header, cells):
            try:
                data[column] = None if cell == "" else _ROW_PARSERS.get(column, str)(cell)
            except ValueError:  # kept as text, for read_record to reject
                data[column] = cell
        rows.append(read_record(SweepRow, data, f"{path}: line {number}"))
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


def _check_slack(slack: float) -> float:
    return _check_real("slack", slack)


def validate_bounds(rows, slack: float = BOUND_SLACK) -> list[BoundCheck]:
    """Check every empirical row against its slack-adjusted error lower bound.

    For each row with an empirical error rate, requires
    fano_lower(emi + slack, n, pe) <= pe, using the EMI measured on the
    classifier's own training set when available. The margin is pe minus the
    slacked bound (negative margin = failure). A non-finite slack, and a row
    whose EMI is not finite (named as rows[i]), raise ValueError rather than pass.
    """
    _check_slack(slack)
    checks = []
    for i, row in enumerate(rows):
        if row.pe_empirical is None or row.n_classes_tested is None:
            continue
        emi = row.emi_bits_classifier
        if emi is None:
            emi = row.emi_bits_clamped
        try:
            bound = fano_lower_bound(emi + slack, row.n_classes_tested,
                                     row.pe_empirical).value
        except ValueError as exc:
            raise ValueError(f"rows[{i}] (value={row.value!r}): {exc}") from None
        checks.append(BoundCheck(
            value=row.value, n_classes=row.n_classes_tested, pe=row.pe_empirical,
            emi_bits=emi, slacked_lower=bound, margin=row.pe_empirical - bound,
            passed=bound <= row.pe_empirical))
    if not checks:
        raise ValueError("no rows carry an empirical error rate to validate")
    return checks

