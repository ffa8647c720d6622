"""End-to-end checks on populations whose answer is known.

k device profiles are each given to several devices that differ only in
their device_id. Copies of a profile differ only in their capture noise, so
the identity information is at most log2 k bits, through synthesis, the ADC,
acquisition and the Welch features alike. Within a group of copies a
classifier can do no better than chance, so its error rate cannot beat
1 - k/N; when it reaches that floor, the k profiles are told apart.
"""

import dataclasses
import math

import numpy as np
import pytest

from rffcap import PipelineConfig, emi_kde, error_rate_experiment, sample_profiles
from rffcap.classifier import ClassifierConfig
from rffcap.signal_model import PopulationSpec

K, COPIES, PER_CLASS = 4, 3, 100


def copied_population(profiles, copies: int):
    """len(profiles) * copies devices: device d has profile d % len(profiles)."""
    k = len(profiles)
    return [dataclasses.replace(profiles[d % k], device_id=d) for d in range(k * copies)]


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_copies_of_k_profiles_carry_at_most_log2_k_bits(seed):
    devices = copied_population(sample_profiles(PopulationSpec(), K, seed), COPIES)
    n = len(devices)
    report, train, _ = error_rate_experiment(
        devices, n, PipelineConfig(n_fft=256, snr_db=20.0),
        ClassifierConfig(train_per_class=PER_CLASS, test_per_class=PER_CLASS),
        master_seed=seed, return_datasets=True)

    assert emi_kde(train).emi_bits <= math.log2(K)

    # LDA at its floor, two-sided: below it the copies would be told apart,
    # above it the k profiles would not
    floor = 1.0 - K / n
    assert abs(report.pe - floor) <= 4.0 * math.sqrt(floor * (1.0 - floor) / report.n_test)

    # noise is keyed by device_id: no capture of a copy repeats its original's
    rows = train.features.reshape(n, PER_CLASS, -1)
    for copy in range(1, COPIES):
        assert (rows[copy * K:(copy + 1) * K] != rows[:K]).any(axis=-1).all()
