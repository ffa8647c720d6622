"""The package imports NumPy and PyYAML only; scipy is loaded on first use.

`_welch_db` builds its Hann window and FFT with NumPy. scipy stays a
test-only oracle here: both must equal scipy's bit for bit, so datasets are
the same as when `_welch_db` called scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.signal
from numpy.lib.stride_tricks import sliding_window_view

import rffcap
from rffcap import infotheory
from rffcap.fingerprint import _hann

PACKAGE_ROOT = str(Path(rffcap.__file__).resolve().parent.parent)
N_FFTS = [2**k for k in range(6, 13)]


def test_import_loads_no_scipy():
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    probe = ("import sys, rffcap, rffcap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("n_fft", N_FFTS)
def test_hann_window_equals_scipy(n_fft):
    assert np.array_equal(_hann(n_fft), scipy.signal.get_window("hann", n_fft))


@pytest.mark.parametrize("n_fft", N_FFTS)
def test_numpy_fft_equals_scipy_on_a_welch_stack(n_fft):
    rng = np.random.default_rng(n_fft)
    x = rng.normal(size=(3, 4 * n_fft)) + 1j * rng.normal(size=(3, 4 * n_fft))
    stack = _hann(n_fft) * sliding_window_view(x, n_fft, axis=1)[:, :: n_fft // 2]
    assert np.array_equal(np.fft.fft(stack, axis=-1), scipy.fft.fft(stack, axis=-1))


def test_infotheory_cdist_resolves_lazily_to_scipys():
    from scipy.spatial.distance import cdist

    assert infotheory.cdist is cdist
    assert "cdist" not in vars(infotheory)
    with pytest.raises(AttributeError):
        infotheory.no_such_name  # noqa: B018
