"""Error-probability bounds and information-theoretic user capacity.

Given an estimate of the mutual information between fingerprints and device
identity, these routines bound the achievable identification error via Fano's
inequality and derive the largest user population whose error lower bound
stays below a target threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._records import _check_count, _check_real
from .infotheory import binary_entropy

# the smallest population the capacity scan evaluates, and the largest n_max
# it takes: the scan holds a few arrays of n_max values, 8 MB each at the limit
MIN_USERS = 3
MAX_USERS = 1_000_000


class BoundValue(NamedTuple):
    """A bound with its clamped value and the raw pre-clamp quantity."""

    value: float
    raw: float


def _check_emi(emi_bits: float) -> float:
    """emi_bits if finite: max(0.0, nan) is 0.0, so a NaN bound would read as met."""
    return _check_real("emi_bits", emi_bits)


def fano_lower_bound(emi_bits: float, n_users: int, pe: float) -> BoundValue:
    """Fano lower bound on identification error probability.

    raw = (log2(n) - emi - H(pe)) / log2(n - 1); value clamps negatives to 0.
    Only defined for three or more users (log2(n-1) must be positive); a
    non-finite emi_bits, a non-integer n_users or a pe outside [0, 1] raises ValueError.
    """
    _check_emi(emi_bits)
    _check_count("n_users", n_users, MIN_USERS)
    _check_real("pe", pe, 0.0, 1.0)
    raw = (np.log2(n_users) - emi_bits - binary_entropy(pe)) / np.log2(n_users - 1)
    return BoundValue(value=max(0.0, float(raw)), raw=float(raw))


def fano_upper_bound(emi_bits: float, n_users: int) -> BoundValue:
    """Upper bound pe <= (log2(n) - emi) / 2; value clamped into [0, 1].

    A non-finite emi_bits or a non-integer n_users raises ValueError.
    """
    _check_emi(emi_bits)
    _check_count("n_users", n_users, 2)
    raw = 0.5 * (np.log2(n_users) - emi_bits)
    return BoundValue(value=float(np.clip(raw, 0.0, 1.0)), raw=float(raw))


def check_fano_consistency(emi_bits: float, n_users: int, observed_pe: float) -> bool:
    """True when the observed error rate is not below its Fano lower bound.

    Raises ValueError for the inputs fano_lower_bound rejects.
    """
    return fano_lower_bound(emi_bits, n_users, observed_pe).value <= observed_pe


@dataclass
class CapacityResult:
    """Largest supportable user count at an error threshold.

    n_c = 2 with below_min set means even the smallest evaluated population
    (3 users) violates the threshold; saturated means the scan hit n_max.
    trace holds the bound ratio for every evaluated N (N = 3 .. n_max).
    """

    n_c: int
    threshold: float
    emi_bits: float
    saturated: bool
    below_min: bool
    trace: np.ndarray


def _check_threshold(threshold: float) -> float:
    return _check_real("threshold", threshold, 0.0, 0.5, strict=True)


@dataclass(frozen=True)
class CapacityConfig:
    n_max: int = 10_000

    def __post_init__(self):
        _check_count("n_max", self.n_max, MIN_USERS, MAX_USERS)


def user_capacity(emi_bits: float, threshold: float,
                  n_max: int = CapacityConfig.n_max) -> CapacityResult:
    """Largest N in [3, n_max] whose Fano error lower bound stays <= threshold.

    The scan evaluates (log2(N) - emi - H(threshold)) / log2(N-1) for every
    candidate N and keeps the largest satisfying one. A NaN or infinite
    emi_bits, and an n_max that is not an integer (a bool included) or lies
    outside [3, MAX_USERS], raise ValueError.
    """
    _check_threshold(threshold)
    _check_emi(emi_bits)
    _check_count("n_max", n_max, MIN_USERS, MAX_USERS)
    n = np.arange(MIN_USERS, n_max + 1)
    ratio = (np.log2(n) - emi_bits - binary_entropy(threshold)) / np.log2(n - 1)
    ok = np.flatnonzero(ratio <= threshold)
    if ok.size == 0:
        return CapacityResult(n_c=2, threshold=threshold, emi_bits=emi_bits,
                              saturated=False, below_min=True, trace=ratio)
    n_c = int(n[ok[-1]])
    return CapacityResult(n_c=n_c, threshold=threshold, emi_bits=emi_bits,
                          saturated=n_c == n_max, below_min=False, trace=ratio)
