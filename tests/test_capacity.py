"""Fano bounds and the supportable-user-count scan."""

import numpy as np
import pytest

from rffcap.capacity import (
    MAX_USERS,
    check_fano_consistency,
    fano_lower_bound,
    fano_upper_bound,
    user_capacity,
)
from rffcap.cli import main


def test_fano_lower_bound_values():
    # (log2 4 - 0 - 0) / log2 3
    b = fano_lower_bound(0.0, 4, 0.0)
    assert abs(b.value - 1.261859507142915) < 1e-12
    assert b.value == b.raw
    b = fano_lower_bound(3.5, 12, 0.01)
    assert abs(b.value - 0.0012052167190653264) < 1e-15
    # plenty of information: raw goes negative, value clamps to zero
    b = fano_lower_bound(10.0, 4, 0.0)
    assert b.raw < 0.0
    assert b.value == 0.0


def test_fano_lower_bound_validation():
    with pytest.raises(ValueError):
        fano_lower_bound(1.0, 2, 0.0)
    with pytest.raises(ValueError):
        fano_lower_bound(1.0, 4, 1.5)  # pe outside [0, 1]


def test_fano_upper_bound_values():
    b = fano_upper_bound(3.5, 12)
    assert abs(b.raw - 0.04248125036057804) < 1e-15
    assert b.value == b.raw
    b = fano_upper_bound(4.0, 12)
    assert abs(b.raw - (-0.20751874963942196)) < 1e-15
    assert b.value == 0.0
    assert fano_upper_bound(0.0, 1024).value == 1.0  # clamped at certainty
    with pytest.raises(ValueError):
        fano_upper_bound(1.0, 1)


def test_check_fano_consistency():
    # 12 users, 3.5 bits: bound is ~0.0012, so pe = 0.01 is consistent
    assert check_fano_consistency(3.5, 12, 0.01)
    # 8 users, no information: pe must be large; 0.01 is impossible
    assert not check_fano_consistency(0.0, 8, 0.01)
    # chance-level error with no information is consistent
    assert check_fano_consistency(0.0, 8, 0.875)


BOUNDS = [
    lambda emi, n: fano_lower_bound(emi, n, 0.1),
    lambda emi, n: fano_upper_bound(emi, n),
    lambda emi, n: check_fano_consistency(emi, n, 0.1),
]


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("emi", [float("nan"), float("inf"), -float("inf"), np.nan])
def test_fano_bounds_reject_a_non_finite_emi(bound, emi):
    # max(0.0, nan) is 0.0: a NaN EMI read as a met bound, so
    # check_fano_consistency(nan, 10, 0.1) was True
    with pytest.raises(ValueError, match="emi_bits must be finite"):
        bound(emi, 10)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("n_users", [10.5, 10.0, True, "10"])
def test_fano_bounds_reject_a_non_integer_n_users(bound, n_users):
    with pytest.raises(ValueError, match=rf"^n_users must be >= [23] and an integer: {n_users!r}$"):
        bound(2.0, n_users)


@pytest.mark.parametrize("bound", BOUNDS)
def test_fano_bounds_take_a_numpy_integer_n_users(bound):
    assert bound(2.0, np.int64(10)) == bound(2.0, 10)


def test_user_capacity_boundary_is_exact():
    res = user_capacity(3.5, 0.01)
    assert res.n_c == 12
    assert not res.saturated
    assert not res.below_min
    assert res.threshold == 0.01
    assert res.emi_bits == 3.5
    # trace index N-3: N=12 passes, N=13 violates
    assert abs(res.trace[9] - 0.0012052167190653264) < 1e-15
    assert abs(res.trace[10] - 0.03337457008856096) < 1e-15
    assert res.trace[9] <= 0.01 < res.trace[10]
    assert res.trace.size == 10_000 - 2


def test_user_capacity_edge_regimes():
    floor = user_capacity(0.0, 0.01)
    assert floor.n_c == 2
    assert floor.below_min
    assert not floor.saturated
    ceiling = user_capacity(20.0, 0.01)
    assert ceiling.n_c == 10_000
    assert ceiling.saturated
    small = user_capacity(20.0, 0.01, n_max=50)
    assert small.n_c == 50
    assert small.saturated
    largest = user_capacity(30.0, 0.01, n_max=MAX_USERS)
    assert (largest.n_c, largest.saturated, largest.trace.size) == (MAX_USERS, True, MAX_USERS - 2)


def test_user_capacity_monotonicity():
    caps = [user_capacity(e, 0.01).n_c for e in (1.0, 2.0, 3.0, 4.0, 5.0)]
    assert caps == sorted(caps)
    assert caps[-1] > caps[0]
    loose = user_capacity(3.5, 0.10).n_c
    strict = user_capacity(3.5, 0.01).n_c
    assert loose >= strict


def test_user_capacity_validation():
    with pytest.raises(ValueError):
        user_capacity(3.5, 0.0)
    with pytest.raises(ValueError):
        user_capacity(3.5, 0.5)
    with pytest.raises(ValueError):
        user_capacity(3.5, 0.01, n_max=2)


@pytest.mark.parametrize("n_max", [100.5, True, 100.0, "100"])
def test_user_capacity_rejects_a_non_integer_n_max(n_max):
    # 100.5 once scanned N up to 101 and returned n_c 101, unsaturated
    with pytest.raises(ValueError,
                       match=rf"^n_max must be >= 3, <= 1000000 and an integer: {n_max!r}$"):
        user_capacity(20.0, 0.01, n_max=n_max)


def test_user_capacity_takes_a_numpy_integer_n_max():
    got = user_capacity(20.0, 0.01, n_max=np.int64(100))
    assert (got.n_c, got.saturated) == (100, True)
    assert np.array_equal(got.trace, user_capacity(20.0, 0.01, n_max=100).trace)
    for bad in (2, MAX_USERS + 1):
        with pytest.raises(ValueError, match=rf"^n_max must be >= 3, <= 1000000 and an integer: "
                                             rf"np.int64\({bad}\)$"):
            user_capacity(20.0, 0.01, n_max=np.int64(bad))


@pytest.mark.parametrize("emi_bits", [float("nan"), float("inf"), -float("inf")])
def test_user_capacity_rejects_non_finite_emi(emi_bits):
    with pytest.raises(ValueError, match="emi_bits must be finite"):
        user_capacity(emi_bits, 0.01)


def test_capacity_csv_row(tmp_path):
    path = tmp_path / "cap.csv"
    for emi in (2.0, 3.0, 3.5):
        assert main(["capacity", "--emi", str(emi), "--format", "csv",
                     "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "parameter,emi_bits,nc_at_1pct,nc_at_10pct,saturated,below_min"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[1]) == emi
        assert int(row[2]) == user_capacity(emi, 0.01).n_c
        assert int(row[3]) == user_capacity(emi, 0.10).n_c
        assert row[4] == "false"
        assert row[5] == "false"
    assert int(row[2]) == 12


def test_lower_bound_tightens_with_users():
    """At fixed information the bound ratio rises as the population grows."""
    emi = 3.0
    vals = [fano_lower_bound(emi, n, 0.01).raw for n in (4, 8, 16, 64, 256)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert np.isfinite(vals).all()
