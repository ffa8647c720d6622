"""Sweep orchestration: seeding, execution, serialization, bound validation."""

import dataclasses
import json
import re

import numpy as np
import pytest

import rffcap.harness
from rffcap.cli import main
from rffcap.config import (
    ClassifierConfig,
    ConfigError,
    EstimatorConfig,
    ScenarioConfig,
    SweepConfig,
)
from rffcap.fingerprint import PipelineConfig
from rffcap.harness import (
    AbortedPoint,
    SweepResult,
    SweepRow,
    SweepSpec,
    point_seed_sequence,
    read_sweep_rows,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
    validate_bounds,
)
from rffcap.signal_model import ParamDist, PopulationSpec


def small_scenario(seed=0, **pipeline_kw):
    pipeline_kw.setdefault("n_fft", 64)
    pipeline_kw.setdefault("snr_db", 24.0)
    return ScenarioConfig(
        population=PopulationSpec(cfo_hz=ParamDist(0.0, 40e3),
                                  iq_gain_db=ParamDist(0.0, 0.8)),
        pipeline=PipelineConfig(**pipeline_kw),
        n_devices=4,
        per_class=24,
        estimator=EstimatorConfig(projected_dim=2),
        seed=seed,
    )


def strip_timestamp(text):
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("# timestamp:"))


def test_point_seed_sequence_is_stable_and_distinct():
    a = point_seed_sequence(7, "snr_db", 10.0).generate_state(4)
    b = point_seed_sequence(7, "snr_db", 10.0).generate_state(4)
    assert np.array_equal(a, b)
    other_value = point_seed_sequence(7, "snr_db", 20.0).generate_state(4)
    other_axis = point_seed_sequence(7, "q_bits", 10.0).generate_state(4)
    other_master = point_seed_sequence(8, "snr_db", 10.0).generate_state(4)
    assert not np.array_equal(a, other_value)
    assert not np.array_equal(a, other_axis)
    assert not np.array_equal(a, other_master)


def test_sweep_spec_validation():
    base = small_scenario()
    with pytest.raises(ValueError):
        SweepSpec(axis="bandwidth", values=[1.0], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="snr_db", values=[], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="snr_db", values=[10.0, 30.0, 20.0], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="q_bits", values=[4, 30], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="n_fft", values=[96], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="fs_hz", values=[1e6], fixed=base)
    with pytest.raises(ValueError):
        SweepSpec(axis="n_train_devices", values=[0, 4], fixed=base)
    # an integer axis is never truncated: a fraction reaches the config and fails
    with pytest.raises(ValueError, match=r"q_bits must be >= 4, <= 24 and an integer: 10\.5"):
        SweepSpec(axis="q_bits", values=[8, 10.5], fixed=base)
    with pytest.raises(ValueError, match="n_devices must be >= 2 and an integer: 2.5"):
        SweepSpec(axis="n_train_devices", values=[2.5, 4], fixed=base)
    with pytest.raises(ValueError, match="n_devices must be >= 2"):
        SweepSpec(axis="n_train_devices", values=[1, 4], fixed=base)
    # a YAML boolean is not a value, though float(True) is 1.0
    with pytest.raises(ConfigError, match="sweep: values must be finite: True"):
        SweepSpec(axis="snr_db", values=[True, 30.0], fixed=base)
    # a capture too long to build (the point was aborted in an OverflowError)
    with pytest.raises(ConfigError, match=r"^sweep: fs_hz = 1e\+308: capture samples must be "
                                          r"<= 1048576 and finite: inf$"):
        SweepSpec(axis="fs_hz", values=[4e6, 1e308], fixed=base)
    # the pipeline's own limits, not narrower ones
    assert SweepSpec(axis="n_fft", values=[4096], fixed=base).values == [4096]
    assert SweepSpec(axis="fs_hz", values=[20e6], fixed=base).values == [20e6]
    assert SweepSpec(axis="q_bits", values=[8.0, 10.0], fixed=base).values == [8.0, 10.0]
    # a constructed config stays valid
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.pipeline.n_fft = 96
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.n_devices = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        base.estimator.projected_dim = 2


def test_single_point_sweep_and_csv_roundtrip(tmp_path):
    spec = SweepSpec(axis="snr_db", values=[24.0], fixed=small_scenario(seed=2))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.aborted == []
    row = result.rows[0]
    assert row.axis == "snr_db"
    assert row.value == 24.0
    assert row.nc_1pct >= 2
    assert row.pe_empirical is None
    assert row.fano_consistent is None

    path = tmp_path / "sweep.csv"
    sweep_to_csv(result, path)
    text = path.read_text()
    assert text.startswith("# timestamp:")
    back = read_sweep_rows(path)
    assert back == [row]


def test_sweep_rows_follow_axis_order(tmp_path):
    spec = SweepSpec(axis="snr_db", values=[10.0, 18.0, 26.0],
                     fixed=small_scenario(seed=3))
    result = run_sweep(spec)
    assert [r.value for r in result.rows] == [10.0, 18.0, 26.0]
    json_path = tmp_path / "sweep.json"
    sweep_to_json(result, json_path)
    assert read_sweep_rows(json_path) == result.rows


def test_thread_count_does_not_change_results(tmp_path):
    spec = SweepSpec(axis="snr_db", values=[12.0, 24.0],
                     fixed=small_scenario(seed=4))
    serial = run_sweep(spec, threads=1)
    parallel = run_sweep(spec, threads=2)
    p1 = tmp_path / "serial.csv"
    p2 = tmp_path / "parallel.csv"
    sweep_to_csv(serial, p1)
    sweep_to_csv(parallel, p2)
    assert strip_timestamp(p1.read_text()) == strip_timestamp(p2.read_text())
    with pytest.raises(ValueError):
        run_sweep(spec, threads=0)
    with pytest.raises(ValueError, match="threads must be >= 1 and an integer: True"):
        run_sweep(spec, threads=True)


def test_a_point_that_raises_in_a_pool_worker_is_aborted():
    # 24 rows a class, short of the 10 * projected_dim that emi_kde needs
    fixed = dataclasses.replace(small_scenario(seed=5),
                                estimator=EstimatorConfig(projected_dim=3))
    spec = SweepSpec(axis="snr_db", values=[12.0, 24.0], fixed=fixed)
    pooled = run_sweep(spec, threads=2)
    assert pooled.rows == []
    assert [a.value for a in pooled.aborted] == [12.0, 24.0]
    assert pooled.aborted[0].reason == (
        "ValueError: every class needs >= 10*projected_dim = 30 samples (smallest has 24); "
        "reduce projected_dim")
    assert pooled.aborted == run_sweep(spec, threads=1).aborted


def test_aborted_point_is_isolated(tmp_path, monkeypatch):
    # a point that fails while it runs: the estimator rejects the 2-device dataset
    emi_kde = rffcap.harness.emi_kde

    def failing_at_two_devices(ds, *args):
        if ds.n_classes == 2:
            raise ValueError("no estimate for 2 devices")
        return emi_kde(ds, *args)

    monkeypatch.setattr(rffcap.harness, "emi_kde", failing_at_two_devices)
    spec = SweepSpec(axis="n_train_devices", values=[2, 4],
                     fixed=small_scenario(seed=5))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.rows[0].value == 4.0
    assert len(result.aborted) == 1
    assert result.aborted[0].value == 2.0
    assert "ValueError" in result.aborted[0].reason

    path = tmp_path / "partial.csv"
    sweep_to_csv(result, path)
    text = path.read_text()
    assert "# aborted: value=2.0" in text
    assert len(read_sweep_rows(path)) == 1


def _csv_row(value):
    return SweepRow(axis="snr_db", value=value, seed=3, emi_bits=1.5,
                    emi_bits_clamped=1.5, nc_1pct=4, nc_10pct=9,
                    saturated=False, below_min=False)


def test_aborted_reason_with_line_breaks_stays_on_its_comment_line(tmp_path):
    reason = "LinAlgError: bad\nsecond line\r\nthird\\line"
    result = SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0)],
                         aborted=[AbortedPoint(5.0, reason)])
    path = tmp_path / "sweep.csv"
    sweep_to_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[1] == ("# aborted: value=5.0 reason="
                        "LinAlgError: bad\\nsecond line\\r\\nthird\\\\line")
    assert lines[2].startswith("axis,value,")
    assert read_sweep_rows(path) == result.rows


def test_read_sweep_rows_rejects_wrong_cell_count(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0), _csv_row(20.0)]),
                 path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop the last cell of the second row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4 has 15 cells, the header has 16"):
        read_sweep_rows(path)
    lines[3] += ",,"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4 has 17 cells"):
        read_sweep_rows(path)


def test_read_sweep_rows_rejects_unknown_and_missing_columns(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0)]), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[1].replace("emi_bits,", "emi_nats,", 1), lines[2]]))
    with pytest.raises(ValueError, match=r"sweep\.csv: line 2: unknown keys \['emi_nats'\]"):
        read_sweep_rows(path)
    header, row = lines[1].split(","), lines[2].split(",")
    path.write_text(",".join(header[1:]) + "\n" + ",".join(row[1:]) + "\n")
    with pytest.raises(ValueError, match=r"sweep\.csv: line 2: missing keys \['axis'\]"):
        read_sweep_rows(path)


def test_read_sweep_rows_rejects_empty_required_cell(tmp_path):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0)]), path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = ""  # emi_bits
    path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
    with pytest.raises(ValueError, match=r"sweep\.csv: line 3\.emi_bits: expected float, got None"):
        read_sweep_rows(path)


@pytest.mark.parametrize("column, cell, annotation", [
    ("nc_1pct", "4.0", "int"), ("emi_bits", "x", "float"), ("saturated", "yes", "bool")])
def test_read_sweep_rows_names_file_line_and_column_of_a_bad_cell(tmp_path, column, cell,
                                                                  annotation):
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0)]), path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[1].split(",").index(column)] = cell
    path.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"sweep.csv: line 3.{column}: expected {annotation}, got {cell!r}")):
        read_sweep_rows(path)


def _json_sweep(tmp_path, edit):
    path = tmp_path / "sweep.json"
    sweep_to_json(SweepResult(spec_axis="snr_db", rows=[_csv_row(10.0), _csv_row(20.0)]),
                  path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


def test_read_sweep_rows_json_roundtrip(tmp_path):
    path = _json_sweep(tmp_path, lambda payload: None)
    assert read_sweep_rows(path) == [_csv_row(10.0), _csv_row(20.0)]


def test_read_sweep_rows_json_rejects_unknown_key(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p["rows"][1].update(emi_nats=1.0))
    with pytest.raises(ValueError, match=r"sweep\.json: rows\[1\]: unknown keys \['emi_nats'\]"):
        read_sweep_rows(path)


def test_read_sweep_rows_json_rejects_missing_key(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p["rows"][0].pop("emi_bits"))
    with pytest.raises(ValueError, match=r"sweep\.json: rows\[0\]: missing keys \['emi_bits'\]"):
        read_sweep_rows(path)


def test_read_sweep_rows_json_rejects_missing_rows(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p.pop("rows"))
    with pytest.raises(ValueError, match=r"sweep\.json: no 'rows' list"):
        read_sweep_rows(path)


@pytest.mark.parametrize("name, text, message", [
    # a JSON list is not read as a one-column CSV
    ("sweep.json", "[]\n", r"sweep\.json: no 'rows' list"),
    ("sweep.json", '[\n  {"axis": "snr_db"}\n]\n', r"sweep\.json: no 'rows' list"),
    ("sweep.json", '{"rows": [}\n', r"sweep\.json: invalid JSON: "),
    ("sweep.csv", "", r"sweep\.csv: no header line"),
    ("sweep.csv", "# timestamp: 0\n\n", r"sweep\.csv: no header line"),
])
def test_read_sweep_rows_rejects_a_malformed_file(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_sweep_rows(path)


def test_read_sweep_rows_reads_a_header_only_csv_as_no_rows(tmp_path):
    # every point aborted: comments and a header, no rows
    path = tmp_path / "sweep.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db", rows=[]), path)
    assert read_sweep_rows(path) == []


def test_read_sweep_rows_json_rejects_non_object_row(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p["rows"].append([1, 2]))
    with pytest.raises(ValueError, match=r"sweep\.json: rows\[2\]: expected a mapping, got list"):
        read_sweep_rows(path)


@pytest.mark.parametrize("key, value, annotation", [
    ("pe_empirical", "x", "float | None"),
    ("emi_bits", "1.5", "float"),
    ("emi_bits", None, "float"),
    ("emi_bits", True, "float"),
    ("nc_1pct", 4.0, "int"),
    ("nc_1pct", False, "int"),
    ("saturated", 0, "bool"),
    ("fano_consistent", "true", "bool | None"),
    ("axis", 3, "str"),
])
def test_read_sweep_rows_json_rejects_wrongly_typed_value(tmp_path, key, value, annotation):
    path = _json_sweep(tmp_path, lambda p: p["rows"][1].update({key: value}))
    with pytest.raises(ValueError, match=re.escape(
            f"sweep.json: rows[1].{key}: expected {annotation}, got {value!r}")):
        read_sweep_rows(path)


def test_read_sweep_rows_json_accepts_an_int_for_a_float_and_none_when_optional(tmp_path):
    def edit(payload):
        payload["rows"][0].update(value=10, pe_empirical=None)
        payload["rows"][1].update(emi_bits=2, pe_empirical=0, n_classes_tested=3,
                                  fano_consistent=True)

    rows = read_sweep_rows(_json_sweep(tmp_path, edit))
    assert rows[0] == _csv_row(10.0)
    assert (rows[1].emi_bits, rows[1].pe_empirical, rows[1].fano_consistent) == (2, 0, True)
    assert [c.pe for c in validate_bounds(rows)] == [0]


def test_snr_trend_in_ensemble_information():
    """Averaged over scenario seeds, more SNR can only help the fingerprint."""
    means = []
    for snr in (10.0, 20.0, 30.0):
        vals = []
        for seed in (0, 1, 2):
            fixed = ScenarioConfig(
                n_devices=12, per_class=100,
                pipeline=PipelineConfig(n_fft=256), seed=seed)
            spec = SweepSpec(axis="snr_db", values=[snr], fixed=fixed)
            vals.append(run_sweep(spec).rows[0].emi_bits_clamped)
        means.append(float(np.mean(vals)))
    assert means[0] < means[1] < means[2]
    assert means == pytest.approx([2.755, 3.301, 3.470], abs=0.2)


def test_spectral_resolution_trend_in_capacity():
    """Finer spectral resolution supports at least as many users, per seed."""
    nc = {}
    for n_fft in (64, 512):
        per_seed = []
        for seed in (0, 1, 2):
            fixed = ScenarioConfig(
                n_devices=12, per_class=100,
                pipeline=PipelineConfig(n_fft=n_fft, snr_db=24.0), seed=seed)
            spec = SweepSpec(axis="n_fft", values=[n_fft], fixed=fixed)
            per_seed.append(run_sweep(spec).rows[0].nc_1pct)
        nc[n_fft] = per_seed
    assert all(hi > lo for lo, hi in zip(nc[64], nc[512]))


def test_sweep_with_classifier_populates_error_fields():
    # widely spread hardware so the KDE estimate saturates and the Fano
    # consistency flag is expected to hold
    wide = PopulationSpec(
        cfo_hz=ParamDist(0.0, 40e3), iq_gain_db=ParamDist(0.0, 0.8),
        iq_phase_deg=ParamDist(0.0, 6.0), clock_jitter_ppm=ParamDist(0.0, 40.0),
        pa_alpha3=ParamDist(-0.08, 0.1), dc_offset_re=ParamDist(0.0, 0.04),
        dc_offset_im=ParamDist(0.0, 0.04))
    fixed = ScenarioConfig(
        population=wide,
        pipeline=PipelineConfig(n_fft=64, snr_db=30.0),
        n_devices=6, per_class=48,
        estimator=EstimatorConfig(projected_dim=4),
        classifier=ClassifierConfig(train_per_class=48, test_per_class=30,
                                    max_devices=8),
        seed=8,
    )
    spec = SweepSpec(axis="snr_db", values=[30.0], fixed=fixed)
    result = run_sweep(spec, with_classifier=True)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.n_classes_tested is not None
    assert 3 <= row.n_classes_tested <= 7
    assert 0.0 <= row.pe_empirical <= 1.0
    assert 0.0 <= row.pe_above_capacity <= 1.0
    assert row.emi_bits_classifier is not None
    assert row.fano_lower is not None
    assert row.fano_upper_raw is not None
    assert row.fano_consistent
    assert row.fano_lower <= row.pe_empirical


def test_validate_bounds_and_csv(tmp_path):
    def row(pe, emi_cls, n=8, value=1.0):
        return SweepRow(axis="snr_db", value=value, seed=0, emi_bits=emi_cls,
                        emi_bits_clamped=max(0.0, emi_cls), nc_1pct=3,
                        nc_10pct=3, saturated=False, below_min=False,
                        n_classes_tested=n, pe_empirical=pe,
                        emi_bits_classifier=emi_cls)

    impossible = row(pe=0.0, emi_cls=0.0)           # no information, no errors
    chance = row(pe=0.875, emi_cls=0.0, value=2.0)  # no information, chance pe
    informed = row(pe=0.01, emi_cls=3.0, value=3.0)
    skipped = SweepRow(axis="snr_db", value=4.0, seed=0, emi_bits=1.0,
                       emi_bits_clamped=1.0, nc_1pct=3, nc_10pct=4,
                       saturated=False, below_min=False)

    checks = validate_bounds([impossible, chance, informed, skipped], slack=0.2)
    assert len(checks) == 3
    assert not checks[0].passed
    assert checks[0].margin < 0
    assert checks[1].passed
    assert checks[2].passed
    assert checks[2].slacked_lower == 0.0

    rows = tmp_path / "rows.csv"
    sweep_to_csv(SweepResult(spec_axis="snr_db",
                             rows=[impossible, chance, informed, skipped]), rows)
    path = tmp_path / "checks.csv"
    assert main(["validate", "--rows", str(rows), "--format", "csv",
                 "--out", str(path)]) == 1
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "value,n_classes,pe,emi_bits,slacked_lower,margin,passed"
    assert lines[1].endswith(",false")
    assert lines[2].endswith(",true")

    with pytest.raises(ValueError):
        validate_bounds([skipped])


@pytest.mark.parametrize("emi", [float("nan"), float("inf")])
def test_validate_bounds_rejects_a_non_finite_emi(emi):
    # a NaN EMI gave a NaN bound, which max(0.0, nan) turned into a pass
    row = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=1.0,
                   emi_bits_clamped=1.0, nc_1pct=3, nc_10pct=3, saturated=False,
                   below_min=False, n_classes_tested=8, pe_empirical=0.01,
                   emi_bits_classifier=emi)
    with pytest.raises(ValueError, match="emi_bits must be finite"):
        validate_bounds([row])


@pytest.mark.parametrize("slack", [float("nan"), float("inf"), -float("inf")])
def test_validate_bounds_rejects_a_non_finite_slack(slack):
    row = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=0.0,
                   emi_bits_clamped=0.0, nc_1pct=3, nc_10pct=3, saturated=False,
                   below_min=False, n_classes_tested=8, pe_empirical=0.0,
                   emi_bits_classifier=0.0)
    with pytest.raises(ValueError, match="slack must be finite"):
        validate_bounds([row], slack=slack)


def test_validate_bounds_falls_back_to_ensemble_emi():
    fallback = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=3.1,
                        emi_bits_clamped=3.0, nc_1pct=3, nc_10pct=3,
                        saturated=False, below_min=False,
                        n_classes_tested=8, pe_empirical=0.01)
    checks = validate_bounds([fallback])
    assert checks[0].emi_bits == 3.0
    assert checks[0].passed
