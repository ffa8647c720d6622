"""build_dataset's two-process path: when it forks, that a failing child
changes no result, and that no child process outlives a build.

A test kernel fails in one process only, told apart by os.getpid() against
the pid of the process that started the build. After every build, successful
or not, os.waitpid(-1, WNOHANG) must find no child at all.
"""

import concurrent.futures
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from rffcap import fingerprint
from rffcap.fingerprint import PipelineConfig, build_dataset
from rffcap.signal_model import PopulationSpec, sample_profiles

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

# 4 x 40 rows in 71-row blocks, forked from two blocks up: the split falls
# at row 71, inside device 1
PIPELINE = PipelineConfig(n_fft=64, snr_db=20.0)
PER_CLASS = 40


@pytest.fixture
def profiles():
    return sample_profiles(PopulationSpec(), 4, seed=8)


@pytest.fixture
def forced_fork(monkeypatch):
    monkeypatch.setattr(fingerprint, "_FORK_MIN_BLOCKS", 2)
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: True)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in(monkeypatch, where, action):
    """Make the Welch kernel run action() in the child or in the parent only."""
    parent = os.getpid()
    welch = fingerprint._welch_db

    def kernel(x, n_fft):
        if (os.getpid() != parent) == (where == "child"):
            action()
        return welch(x, n_fft)

    monkeypatch.setattr(fingerprint, "_welch_db", kernel)


def test_a_successful_forked_build_leaves_no_child(profiles, forced_fork, forks):
    ds = build_dataset(profiles, PER_CLASS, PIPELINE, 3)
    assert len(forks) == 1
    assert np.isfinite(ds.features).all()
    assert_no_child_left()


@pytest.mark.parametrize("n_devices, per_class, n_forks", [(3, 189, 0), (4, 142, 1)])
def test_a_build_forks_from_eight_blocks(monkeypatch, forks, n_devices, per_class, n_forks):
    # 71-row blocks: 567 rows are under eight blocks and stay in one
    # process, 568 are eight and fork
    width = PIPELINE.lead_pad[1] + PIPELINE.window() + PIPELINE.tail_pad
    block = fingerprint._SYNTH_BLOCK_BYTES // (width * 16)
    assert (block, fingerprint._FORK_MIN_BLOCKS * block) == (71, 568)
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: True)
    profiles = sample_profiles(PopulationSpec(), n_devices, seed=8)
    build_dataset(profiles, per_class, PIPELINE, 3)
    assert len(forks) == n_forks
    assert_no_child_left()


def raise_it(exc):
    def action():
        raise exc
    return action


@pytest.mark.parametrize("action", [
    raise_it(ValueError("samples must be finite")),
    raise_it(ZeroDivisionError("in one block")),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
    lambda: os._exit(3),
], ids=["ValueError", "ZeroDivisionError", "SIGKILL", "exit3"])
def test_a_child_only_failure_gives_the_one_process_build(profiles, forced_fork, forks,
                                                          monkeypatch, action):
    fail_in(monkeypatch, "child", action)
    forked = build_dataset(profiles, PER_CLASS, PIPELINE, 3)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.setattr(fingerprint, "_may_fork", lambda: False)
    one = build_dataset(profiles, PER_CLASS, PIPELINE, 3)
    assert len(forks) == 1
    assert forked.features.tobytes() == one.features.tobytes()
    assert np.array_equal(forked.labels, one.labels)
    assert forked.meta == one.meta


def test_an_error_the_rows_cause_is_raised_forked_as_unforked(profiles, forks,
                                                              monkeypatch):
    # the device sorted last, whose rows are all the child's, gets a burst
    # holding inf
    last = max(p.device_id for p in profiles)
    preamble = fingerprint.generate_preamble

    def generate_preamble(profile, fs_hz, n_symbols):
        burst = preamble(profile, fs_hz, n_symbols)
        if profile.device_id == last:
            burst[0] = np.inf
        return burst

    monkeypatch.setattr(fingerprint, "generate_preamble", generate_preamble)
    monkeypatch.setattr(fingerprint, "_FORK_MIN_BLOCKS", 2)
    raised = []
    for may_fork in [True, False]:
        monkeypatch.setattr(fingerprint, "_may_fork", lambda: may_fork)
        with pytest.raises(Exception) as info:
            build_dataset(profiles, PER_CLASS, PIPELINE, 3)
        raised.append((type(info.value), str(info.value)))
        assert_no_child_left()
    assert len(forks) == 1
    assert raised == [(ValueError, "samples must be finite")] * 2


def test_a_forked_build_records_no_deprecation_warning(profiles, forced_fork, forks,
                                                       monkeypatch):
    # os.fork warns so on Python 3.12 and later when the process has another
    # OS thread; this fork warns so on every version
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                      f"fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_dataset(profiles, PER_CLASS, PIPELINE, 3)
    assert len(forks) == 1
    assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert_no_child_left()


def test_the_parent_half_raising_kills_and_reaps_the_child(profiles, forced_fork,
                                                          monkeypatch):
    def raise_it():
        raise ValueError("in the parent's half")

    fail_in(monkeypatch, "parent", raise_it)
    with pytest.raises(ValueError, match="in the parent's half"):
        build_dataset(profiles, PER_CLASS, PIPELINE, 3)
    assert_no_child_left()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_may_fork_needs_a_second_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert fingerprint._may_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not fingerprint._may_fork()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
def test_may_fork_not_beside_another_python_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert not fingerprint._may_fork()
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert fingerprint._may_fork()


def test_may_fork_not_in_a_pool_worker():
    # run_sweep's workers come from such a pool
    with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(fingerprint._may_fork).result(timeout=60) is False
