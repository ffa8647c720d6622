"""Sweep orchestration: seeding, execution, serialization, bound validation."""

import json

import numpy as np
import pytest

from rffcap.config import (
    ClassifierConfig,
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
    bound_checks_to_csv,
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


def test_aborted_point_is_isolated(tmp_path):
    # a single-device population cannot define identity information
    spec = SweepSpec(axis="n_train_devices", values=[1, 4],
                     fixed=small_scenario(seed=5))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.rows[0].value == 4.0
    assert len(result.aborted) == 1
    assert result.aborted[0].value == 1.0
    assert "ValueError" in result.aborted[0].reason

    path = tmp_path / "partial.csv"
    sweep_to_csv(result, path)
    text = path.read_text()
    assert "# aborted: value=1.0" in text
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
    with pytest.raises(ValueError, match=r"sweep\.json: row 1 has unknown keys \['emi_nats'\]"):
        read_sweep_rows(path)


def test_read_sweep_rows_json_rejects_missing_key(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p["rows"][0].pop("emi_bits"))
    with pytest.raises(ValueError, match=r"sweep\.json: row 0 lacks keys \['emi_bits'\]"):
        read_sweep_rows(path)


def test_read_sweep_rows_json_rejects_missing_rows(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p.pop("rows"))
    with pytest.raises(ValueError, match=r"sweep\.json: no 'rows' list"):
        read_sweep_rows(path)


def test_read_sweep_rows_json_rejects_non_object_row(tmp_path):
    path = _json_sweep(tmp_path, lambda p: p["rows"].append([1, 2]))
    with pytest.raises(ValueError, match=r"sweep\.json: row 2 is not an object"):
        read_sweep_rows(path)


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

    path = tmp_path / "checks.csv"
    bound_checks_to_csv(checks, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "value,n_classes,pe,emi_bits,slacked_lower,margin,passed"
    assert lines[1].endswith(",false")
    assert lines[2].endswith(",true")

    with pytest.raises(ValueError):
        validate_bounds([skipped])


def test_validate_bounds_falls_back_to_ensemble_emi():
    fallback = SweepRow(axis="snr_db", value=1.0, seed=0, emi_bits=3.1,
                        emi_bits_clamped=3.0, nc_1pct=3, nc_10pct=3,
                        saturated=False, below_min=False,
                        n_classes_tested=8, pe_empirical=0.01)
    checks = validate_bounds([fallback])
    assert checks[0].emi_bits == 3.0
    assert checks[0].passed
