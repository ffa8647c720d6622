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

from .infotheory import binary_entropy
from .signal_model import _is_count

# the smallest population the capacity scan evaluates
MIN_USERS = 3


class BoundValue(NamedTuple):
    """A bound with its clamped value and the raw pre-clamp quantity."""

    value: float
    raw: float


def fano_lower_bound(emi_bits: float, n_users: int, pe: float) -> BoundValue:
    """Fano lower bound on identification error probability.

    raw = (log2(n) - emi - H(pe)) / log2(n - 1); value clamps negatives to 0.
    Only defined for three or more users (log2(n-1) must be positive).
    """
    if n_users < 3:
        raise ValueError(f"n_users must be >= 3: {n_users}")
    raw = (np.log2(n_users) - emi_bits - binary_entropy(pe)) / np.log2(n_users - 1)
    return BoundValue(value=max(0.0, float(raw)), raw=float(raw))


def fano_upper_bound(emi_bits: float, n_users: int) -> BoundValue:
    """Upper bound pe <= (log2(n) - emi) / 2; value clamped into [0, 1]."""
    if n_users < 2:
        raise ValueError(f"n_users must be >= 2: {n_users}")
    raw = 0.5 * (np.log2(n_users) - emi_bits)
    return BoundValue(value=float(np.clip(raw, 0.0, 1.0)), raw=float(raw))


def check_fano_consistency(emi_bits: float, n_users: int, observed_pe: float) -> bool:
    """True when the observed error rate is not below its Fano lower bound."""
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
    if not 0.0 < threshold < 0.5:
        raise ValueError(f"threshold must be in (0, 0.5): {threshold}")
    return threshold


def _check_emi(emi_bits: float) -> float:
    if not np.isfinite(emi_bits):
        raise ValueError(f"emi_bits must be finite: {emi_bits}")
    return emi_bits


def user_capacity(emi_bits: float, threshold: float, n_max: int = 10_000) -> CapacityResult:
    """Largest N in [3, n_max] whose Fano error lower bound stays <= threshold.

    The scan evaluates (log2(N) - emi - H(threshold)) / log2(N-1) for every
    candidate N and keeps the largest satisfying one. A NaN or infinite
    emi_bits, and an n_max that is not an integer (a bool included), raise
    ValueError.
    """
    _check_threshold(threshold)
    _check_emi(emi_bits)
    if not _is_count(n_max):
        raise ValueError(f"n_max must be an integer: {n_max!r}")
    if n_max < MIN_USERS:
        raise ValueError(f"n_max must be >= {MIN_USERS}: {n_max}")
    n = np.arange(MIN_USERS, n_max + 1)
    ratio = (np.log2(n) - emi_bits - binary_entropy(threshold)) / np.log2(n - 1)
    ok = np.flatnonzero(ratio <= threshold)
    if ok.size == 0:
        return CapacityResult(n_c=2, threshold=threshold, emi_bits=emi_bits,
                              saturated=False, below_min=True, trace=ratio)
    n_c = int(n[ok[-1]])
    return CapacityResult(n_c=n_c, threshold=threshold, emi_bits=emi_bits,
                          saturated=n_c == n_max, below_min=False, trace=ratio)
