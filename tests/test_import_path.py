"""The package needs NumPy and PyYAML only; scipy is a test-only oracle.

`_welch_db` builds its Hann window and FFT with NumPy, and both must equal
scipy's bit for bit, so datasets are the same as when `_welch_db` called
scipy. The estimators and the classifier run with scipy made unimportable.
"""

import json
import os
import subprocess
import sys
import textwrap
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


def run_python(source, cwd=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True)


def test_import_loads_no_scipy():
    probe = ("import sys, rffcap, rffcap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(probe).stdout.strip() == "[]"


SCENARIO_YAML = """\
pipeline: {n_fft: 64, snr_db: 24.0}
n_devices: 4
per_class: 30
estimator: {projected_dim: 2}
classifier: {train_per_class: 30, test_per_class: 30, max_devices: 4}
seed: 5
"""


def test_pipeline_and_cli_run_with_scipy_blocked(tmp_path):
    (tmp_path / "scenario.yaml").write_text(SCENARIO_YAML)
    probe = textwrap.dedent("""\
        import json, sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        import rffcap
        from rffcap.cli import main

        profiles = rffcap.sample_profiles(rffcap.PopulationSpec(), 4, 5)
        ds = rffcap.build_dataset(profiles, 40, rffcap.PipelineConfig(n_fft=64), 5)
        mi = rffcap.per_feature_mi(ds)
        emi = rffcap.emi_kde(ds, projected_dim=3)
        report = rffcap.classify(rffcap.fit_lda(ds), ds)
        print(json.dumps({"mi": float(mi.per_bin_mi.sum()), "emi": emi.emi_bits,
                          "pe": report.pe}))
        sys.exit(main(["classify", "--config", "scenario.yaml"]))
        """)
    lines = run_python(probe, cwd=tmp_path).stdout.splitlines()
    library = json.loads(lines[0])
    assert library["mi"] > 0 and library["emi"] > 0 and 0 <= library["pe"] <= 1
    assert json.loads("\n".join(lines[1:]))["n_classes"] == 4


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
