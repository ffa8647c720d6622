"""The typed-record reader, checked over every field of every record read from a file.

The records are the sections of a scenario file (nested ones included), a
sweep row and the .rfds meta block. Each property iterates the fields, so a
field added later is covered without a new test. The round trips are
derandomized hypothesis tests, so the suite runs the same inputs every time.
"""

import re
from dataclasses import MISSING, asdict, fields, is_dataclass

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rffcap._records import read_record  # noqa: E402
from rffcap.config import ScenarioConfig  # noqa: E402
from rffcap.fingerprint import DatasetMeta  # noqa: E402
from rffcap.harness import SweepRow  # noqa: E402

ROW = SweepRow(axis="snr_db", value=10.0, seed=3, emi_bits=1.5, emi_bits_clamped=1.5,
               nc_1pct=4, nc_10pct=9, saturated=False, below_min=False)
META = DatasetMeta(fs_hz=4e6, n_fft=64, snr_db=24.0, q_bits=14, class_ids=[3, 7])


def _sections(cls):
    """cls and every record class nested in it, as read_record finds them."""
    yield cls
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if is_dataclass(default):
            yield from _sections(type(default))


# (record class, a valid mapping of it); a scenario section takes {} for its defaults
RECORDS = [(cls, {}) for cls in dict.fromkeys(_sections(ScenarioConfig))] + [
    (SweepRow, asdict(ROW)), (DatasetMeta, META.to_dict())]
FIELDS = [(cls, data, f.name, f.type) for cls, data in RECORDS for f in fields(cls)]


def _ids(case):
    return f"{case[0].__name__}.{case[2]}"


def _rejects(cls, data, name, value, message):
    with pytest.raises(ValueError, match=re.escape(f"rec.{name}: {message}")):
        read_record(cls, data | {name: value}, "rec")


def test_records_cover_every_scenario_section():
    names = {cls.__name__ for cls, _ in RECORDS}
    assert names >= {"ScenarioConfig", "PopulationSpec", "ParamDist", "PipelineConfig",
                     "EstimatorConfig", "ClassifierConfig", "CapacityConfig", "SweepConfig",
                     "SweepRow", "DatasetMeta"}
    for cls, data in RECORDS:
        assert isinstance(read_record(cls, data, "rec"), cls)


@pytest.mark.parametrize("case", [c for c in FIELDS if {"int", "float"} & set(c[3].split(" | "))],
                         ids=_ids)
@pytest.mark.parametrize("value", [True, False])
def test_every_numeric_field_rejects_a_bool(case, value):
    cls, data, name, annotation = case
    _rejects(cls, data, name, value, f"expected {annotation}, got {value!r}")


@pytest.mark.parametrize("case", [c for c in FIELDS if "int" in c[3].split(" | ")], ids=_ids)
def test_every_int_field_rejects_an_integral_float(case):
    cls, data, name, annotation = case
    _rejects(cls, data, name, 4.0, f"expected {annotation}, got 4.0")


def test_every_float_field_stores_an_integer_as_a_float():
    checked = 0
    for cls, data, name, annotation in FIELDS:
        value = getattr(read_record(cls, data, "rec"), name)
        if "float" in annotation.split(" | ") and isinstance(value, float) and value.is_integer():
            read = getattr(read_record(cls, data | {name: int(value)}, "rec"), name)
            assert type(read) is float and read == value, f"{cls.__name__}.{name}"
            checked += 1
    assert checked >= 9


@pytest.mark.parametrize("case", [c for c in FIELDS if "None" not in c[3].split(" | ")],
                         ids=_ids)
def test_every_non_optional_field_rejects_null(case):
    cls, data, name, _ = case
    _rejects(cls, data, name, None, "expected")


PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
WORDS = {"int": st.integers(), "float": st.floats(allow_nan=False), "bool": st.booleans(),
         "str": st.text(), "None": st.none()}


def _records(cls, **overrides):
    """Records of cls with each field drawn from the words of its annotation."""
    return st.builds(cls, **{f.name: overrides[f.name] if f.name in overrides else st.one_of(
        *(WORDS[word] for word in f.type.split(" | "))) for f in fields(cls)})


FRACTIONS = st.floats(0.0, 1.0) | st.none()


@PROPERTY_SETTINGS
@given(_records(DatasetMeta, fs_hz=st.floats(min_value=0.0, allow_infinity=False),
                snr_db=st.floats(min_value=-1000.0, allow_infinity=False) | st.just("noiseless"),
                q_bits=st.integers(4, 24), class_ids=st.lists(st.integers(min_value=0)),
                onset_flagged_frac=FRACTIONS, clip_frac=FRACTIONS))
def test_dataset_meta_reads_back_equal(meta):
    assert read_record(DatasetMeta, meta.to_dict(), "meta") == meta


@PROPERTY_SETTINGS
@given(_records(SweepRow))
def test_sweep_row_reads_back_equal(row):
    assert read_record(SweepRow, asdict(row), "row") == row
