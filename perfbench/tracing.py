"""In-memory span tracing of rffcap, driven entirely from the benchmark.

The tracer wraps rffcap's public functions at the module attributes through
which the package's own modules call each other (``rffcap.harness.build_dataset``,
``rffcap.fingerprint.acquire``, ``rffcap.infotheory.cdist`` and so on), records
one span per call and puts the original functions back when tracing ends.
Nothing inside the package is edited. Counters come from the wrapped calls'
arguments and return values, never from the package's internals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

ROOT_SPAN = "bench.op"

# Every module whose attributes are patched: a function is wrapped under every
# name that refers to it, so calls through the package, harness, classifier,
# fingerprint, infotheory and cli all land in the same span name.
PATCHED_MODULES = (
    "rffcap", "rffcap.signal_model", "rffcap.fingerprint", "rffcap.infotheory",
    "rffcap.capacity", "rffcap.classifier", "rffcap.harness", "rffcap.cli",
)

LAYERS = ("signal_model", "fingerprint", "infotheory", "classifier", "capacity", "harness")

# Functions whose own self time is reported; the other traced functions only
# count towards their layer's total.
REPORTED_SELF_S = (
    "signal_model.sample_profiles", "signal_model.generate_preamble",
    "signal_model.apply_awgn", "signal_model.adc_sample",
    "fingerprint.build_dataset", "fingerprint.acquire",
    "fingerprint.extract_spectral_feature", "fingerprint.load_dataset",
    "infotheory.emi_kde", "infotheory.per_feature_mi",
    "classifier.fit_lda", "classifier.classify",
    "capacity.user_capacity", "harness.run_sweep",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(name, self.clock(), float("nan"),
                  self._stack[-1] if self._stack else None, self.op_id)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, kwargs, result) -> counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, kwargs, result))
            return result
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span are disjoint and
    their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, covered)]


# -- counters, taken from the traced calls' arguments and return values ------

def _dataset_rows(args, kwargs, ds):
    return {"calls": 1, "captures": ds.n_samples}


def _clip_fraction(args, kwargs, capture):
    return {"calls": 1, "clip_fraction": capture.diagnostics["clip_fraction"]}


def _onset_flagged(args, kwargs, capture):
    return {"calls": 1, "flagged": int(capture.diagnostics["onset_flagged"])}


def _file_bytes(args, kwargs, ds):
    path = args[0] if args else kwargs["path"]
    return {"calls": 1, "bytes": os.path.getsize(path)}


def _emi_counts(args, kwargs, est):
    return {"calls": 1, "rows": est.n_samples, "projected_dim": est.projected_dim,
            "kernel_pairs": est.n_samples ** 2}


def _calls(args, kwargs, result):
    return {"calls": 1}


# (layer, attribute of rffcap.<layer>, counter). cdist is scipy's function as
# imported into infotheory: its span is the kernel-distance part of emi_kde.
TRACED = (
    ("signal_model", "sample_profiles", None),
    ("signal_model", "generate_preamble", None),
    ("signal_model", "apply_awgn", None),
    ("signal_model", "adc_sample", _clip_fraction),
    ("fingerprint", "build_dataset", _dataset_rows),
    ("fingerprint", "acquire", _onset_flagged),
    ("fingerprint", "extract_spectral_feature", None),
    ("fingerprint", "load_dataset", _file_bytes),
    ("infotheory", "cdist", None),
    ("infotheory", "emi_kde", _emi_counts),
    ("infotheory", "per_feature_mi", None),
    ("classifier", "error_rate_experiment", None),
    ("classifier", "fit_lda", None),
    ("classifier", "classify", None),
    ("capacity", "user_capacity", _calls),
    ("capacity", "fano_lower_bound", None),
    ("capacity", "fano_upper_bound", None),
    ("capacity", "check_fano_consistency", None),
    ("harness", "run_sweep", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every TRACED function for the duration of the block, then restore."""
    modules = [importlib.import_module(m) for m in PATCHED_MODULES]
    patches = []
    try:
        for layer, attr, count in TRACED:
            fn = getattr(importlib.import_module(f"rffcap.{layer}"), attr)
            wrapper = tracer.wrap(f"{layer}.{attr}", fn, count)
            for mod in modules:
                for name in [n for n, v in vars(mod).items() if v is fn]:
                    patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)
        yield tracer
    finally:
        for mod, name, fn in reversed(patches):
            setattr(mod, name, fn)


def median_or_zero(values) -> float:
    """Median, or 0.0 when there is nothing to take it of (no op of that kind ran)."""
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics from the spans of traced ops, as {name: (value, unit)}.

    Times are medians over ops of each op's total; counts and fractions are
    pooled over all traced ops. ``bench.residual_s`` is the benchmark's own
    time inside an op, so the layer self times plus it add up to the op.
    """
    selfs = self_times(spans)
    ops = sorted({sp.op_id for sp in spans if sp.name == ROOT_SPAN})
    per_op = {op: defaultdict(float) for op in ops}
    pooled: dict = defaultdict(float)
    for sp, s in zip(spans, selfs):
        if sp.op_id not in per_op:
            continue
        acc = per_op[sp.op_id]
        if sp.name == ROOT_SPAN:
            acc["bench.traced_op_s"] += sp.end - sp.start
            acc["bench.self_s"] += s
            continue
        layer = sp.name.split(".", 1)[0]
        acc[f"{sp.name}.self_s"] += s
        acc[f"{layer}.self_s"] += s
        acc[f"{sp.name}.total_s"] += sp.end - sp.start
        if sp.name == "infotheory.cdist" and sp.parent is not None \
                and spans[sp.parent].name == "infotheory.emi_kde":
            acc["infotheory.emi_kde.cdist_s"] += sp.end - sp.start
        for key, value in sp.counts.items():
            acc[f"{sp.name}.{key}"] += value
            pooled[f"{sp.name}.{key}"] += value

    def med(key):
        return median_or_zero([per_op[op][key] for op in ops])

    def share(*layers):
        return median_or_zero([sum(per_op[op][f"{l}.self_s"] for l in layers)
                               / per_op[op]["bench.traced_op_s"] for op in ops])

    def ratio(num, den):
        return pooled[num] / pooled[den] if pooled[den] else 0.0

    m = {f"{name}.self_s": (med(f"{name}.self_s"), "s") for name in REPORTED_SELF_S}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
    m["signal_model.adc_sample.clip_frac"] = (
        ratio("signal_model.adc_sample.clip_fraction", "signal_model.adc_sample.calls"),
        "fraction")
    m["fingerprint.build_dataset.calls"] = (med("fingerprint.build_dataset.calls"), "count")
    m["fingerprint.build_dataset.captures"] = (
        med("fingerprint.build_dataset.captures"), "count")
    build_s = sum(per_op[op]["fingerprint.build_dataset.total_s"] for op in ops)
    captures = pooled["fingerprint.build_dataset.captures"]
    m["fingerprint.build_dataset.us_per_capture"] = (
        1e6 * build_s / captures if captures else 0.0, "us")
    m["fingerprint.acquire.flagged_frac"] = (
        ratio("fingerprint.acquire.flagged", "fingerprint.acquire.calls"), "fraction")
    m["fingerprint.load_dataset.bytes"] = (med("fingerprint.load_dataset.bytes"), "bytes")
    m["infotheory.emi_kde.cdist_s"] = (med("infotheory.emi_kde.cdist_s"), "s")
    m["infotheory.emi_kde.rows"] = (med("infotheory.emi_kde.rows"), "count")
    m["infotheory.emi_kde.projected_dim"] = (
        ratio("infotheory.emi_kde.projected_dim", "infotheory.emi_kde.calls"), "count")
    m["infotheory.emi_kde.kernel_pairs"] = (med("infotheory.emi_kde.kernel_pairs"), "count")
    m["capacity.user_capacity.calls"] = (med("capacity.user_capacity.calls"), "count")
    m["bench.traced_op_s"] = (med("bench.traced_op_s"), "s")
    m["bench.residual_s"] = (med("bench.self_s"), "s")
    m["bench.synthesis_share"] = (share("signal_model", "fingerprint"), "fraction")
    m["bench.analysis_share"] = (share("infotheory", "classifier"), "fraction")
    m["bench.accounted_share"] = (share(*LAYERS, "bench"), "fraction")
    m["bench.traced_ops"] = (len(ops), "count")
    return m
