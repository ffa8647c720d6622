"""What several test modules build their cases from; it imports no scipy,
hypothesis or mpmath, so every test module can import it."""

import numpy as np

from rffcap.fingerprint import DatasetMeta, FingerprintDataset

NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def make_ds(x, y):
    """A dataset of features x and labels y, one class per distinct label value.

    FingerprintDataset keeps float32 features as they are and makes any other
    dtype float64.
    """
    x = np.asarray(x)
    meta = DatasetMeta(fs_hz=4e6, n_fft=x.shape[1], snr_db=24.0, q_bits=14,
                       class_ids=sorted({int(v) for v in np.asarray(y)}))
    return FingerprintDataset(x, np.asarray(y), meta)
