"""Tests of the benchmark's tracer: self times, clean removal, no effect on results.

Run from the root of the checkout: python3 -m pytest perfbench/tests
"""

import importlib

import pytest

import run
import tracing
import workloads

# workload sizes small enough for a test, large enough for every estimator
SMALL = {
    "snr_sweep": dict(n_devices=3, per_class=100, n_fft=64),
    "classifier_bracket": dict(n_devices=3, per_class=100, fs_hz=4e6, n_fft=64,
                               train_per_class=100, test_per_class=20, max_devices=5),
    "stored_analysis": dict(n_devices=3, per_class=100, n_fft=64),
}


def _tracer_with_ticks(*ticks):
    clock = iter(ticks)
    return tracing.Tracer(clock=lambda: next(clock))


def test_self_times_of_nested_spans():
    tracer = _tracer_with_ticks(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0)
    tracer.op_id = 1
    with tracer.span(tracing.ROOT_SPAN):                      # 0 .. 10
        with tracer.span("fingerprint.build_dataset"):        # 1 .. 5
            with tracer.span("signal_model.apply_awgn"):      # 2 .. 4
                pass
        with tracer.span("infotheory.emi_kde"):               # 6 .. 9
            pass
    assert [sp.parent for sp in tracer.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 2.0, 3.0]

    m = tracing.layer_metrics(tracer.spans)
    assert m["fingerprint.build_dataset.self_s"][0] == 2.0
    assert m["signal_model.self_s"][0] == 2.0
    assert m["infotheory.self_s"][0] == 3.0
    assert m["bench.residual_s"][0] == 3.0
    assert m["bench.traced_op_s"][0] == 10.0
    assert m["bench.synthesis_share"][0] == pytest.approx(0.4)
    assert m["bench.accounted_share"][0] == pytest.approx(1.0)


def _module_attributes():
    modules = [importlib.import_module(name) for name in tracing.PATCHED_MODULES]
    return {(mod.__name__, attr): value for mod in modules for attr, value in vars(mod).items()}


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _module_attributes()
    wl = workloads.SnrSweep(5, tmp_path, **SMALL["snr_sweep"])
    tracer = tracing.Tracer()
    run.run_op(wl, 0, tracer)
    assert {"fingerprint.acquire", "infotheory.cdist", "harness.run_sweep"} <= {
        sp.name for sp in tracer.spans}
    after = _module_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrappers_are_removed_when_an_op_raises():
    before = _module_attributes()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert importlib.import_module("rffcap.harness").build_dataset \
                is not before[("rffcap.harness", "build_dataset")]
            raise RuntimeError("op failed")
    after = _module_attributes()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_ops_give_identical_results(name, tmp_path):
    wl = workloads.WORKLOADS[name](9, tmp_path, **SMALL[name])
    _, raw = run.run_op(wl, 1)
    plain = wl.outcome(1, raw)
    tracer = tracing.Tracer()
    _, raw = run.run_op(wl, 1, tracer)
    traced = wl.outcome(1, raw)
    assert plain.outputs and traced.outputs == plain.outputs
    assert (traced.captures, traced.rows) == (plain.captures, plain.rows)
    assert run._trace_count_problems(tracer.spans, traced) == []


class _Cycling:
    """A workload stand-in that does no work and cycles over four inputs."""

    cycle = 4

    def op(self, i):
        return i % self.cycle

    def outcome(self, i, raw):
        return workloads.Outcome(f"input={raw}", {"input": raw}, 0, 0)


def test_traced_and_untraced_ops_cover_the_same_inputs():
    wl = _Cycling()
    tally = run.Tally()
    tracer = run.measure(wl, run.Checker("snr_sweep", seed=7), tally, 0.0, trace=True)
    traced = [sp.op_id for sp in tracer.spans if sp.name == tracing.ROOT_SPAN]
    assert traced == [5, 6, 7, 8]
    assert len(tally.times[False]) == len(tally.times[True]) == 4
    assert {i % wl.cycle for i in traced} == {0, 1, 2, 3}
    assert tally.failed == 0
