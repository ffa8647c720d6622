#!/usr/bin/env python3
"""rffcap benchmark: one workload in one fresh process, as a closed loop.

Run from the root of an rffcap source checkout:

    python3 perfbench/run.py --workload snr_sweep --seed 1234 --seconds 20 --trace 0

One caller runs one op at a time until --seconds have passed; sweeps use
threads=1 and BLAS keeps its default thread count (recorded). The set-up
(import, input generation from --seed, one untimed warm-up op) comes first.
Every op's outputs are checked: invariants on every seed, equality across ops
with the same inputs, and, at the default seed, equality with
perfbench/reference.json.

--trace 0 reports the end-to-end metrics. --trace 1 alternates blocks of
untraced and traced ops, each block one pass over the workload's inputs, and
reports per-layer metrics from the traced ones, plus the tracing overhead. The last line of stdout is the JSON result; a fuller record
(environment, outputs, op times) and, for traced runs, the spans go to
.perfbench/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1234
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("snr_sweep", "classifier_bracket", "stored_analysis"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = fn()
                break
    return threads


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "sweep_threads": 1,
    }


def run_op(workload, i, tracer=None):
    """Run op i, traced when a tracer is given; returns (seconds, raw result)."""
    if tracer is None:
        t = time.perf_counter()
        raw = workload.op(i)
        return time.perf_counter() - t, raw
    tracer.op_id = i
    with tracing.installed(tracer), tracer.span(tracing.ROOT_SPAN) as root:
        raw = workload.op(i)
    tracer.op_id = None
    return root.end - root.start, raw


class Checker:
    """Checks each outcome; equal inputs must give equal outputs."""

    def __init__(self, workload_name: str, seed: int):
        import workloads

        self.compare = workloads.compare
        self.first: dict = {}
        self.reference = None
        if seed == DEFAULT_SEED:
            ref = json.loads((HERE / "reference.json").read_text())
            self.reference = ref["workloads"][workload_name]

    def problems(self, outcome) -> list[str]:
        problems = list(outcome.problems)
        first = self.first.setdefault(outcome.key, outcome.outputs)
        if outcome.outputs != first:
            problems.append(f"{outcome.key}: outputs {outcome.outputs} differ from an "
                            f"earlier op's {first}")
        if self.reference is not None:
            if outcome.key not in self.reference:
                problems.append(f"{outcome.key}: no reference outputs")
            else:
                problems += self.compare(outcome.outputs, self.reference[outcome.key],
                                         outcome.key)
        return problems


def _trace_count_problems(spans, outcome) -> list[str]:
    """The counts the workload derives must match what the traced calls returned."""
    captures = sum(sp.counts.get("captures", 0) for sp in spans
                   if sp.name == "fingerprint.build_dataset")
    loaded = sum(1 for sp in spans if sp.name == "fingerprint.load_dataset")
    rows = sum(sp.counts.get("rows", 0) for sp in spans if sp.name == "infotheory.emi_kde")
    problems = []
    if not loaded and captures != outcome.captures:
        problems.append(f"traced build_dataset made {captures} captures, "
                        f"the workload counts {outcome.captures}")
    if rows != outcome.rows:
        problems.append(f"traced emi_kde saw {rows} rows, the workload counts {outcome.rows}")
    return problems


@dataclass
class Tally:
    """What the ops of one run did."""

    times: dict = field(default_factory=lambda: {False: [], True: []})
    work: dict = field(default_factory=lambda: {"captures": 0, "rows": 0})
    bounds_ok: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def add(self, label: str, problems: list, outcome=None):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed ({label}): {p}", file=sys.stderr)
        if outcome is not None and "bounds_ok" in outcome.outputs:
            self.bounds_ok.append(outcome.outputs["bounds_ok"])


def measure(workload, checker, tally: Tally, seconds: float, trace: bool):
    """Closed loop of ops for `seconds`, at least one op.

    A traced run alternates a block of untraced ops with a block of traced
    ones, each block one pass over the workload's inputs (``workload.cycle``
    ops), and ends on a whole pair of blocks, so traced and untraced ops run
    the same inputs equally often.
    """
    tracer = tracing.Tracer() if trace else None
    times = tally.times
    pair = 2 * workload.cycle
    i = 0
    start = time.perf_counter()
    while not i or time.perf_counter() - start < seconds or (trace and i % pair):
        i += 1
        traced = trace and (i - 1) // workload.cycle % 2 == 1
        n_spans = len(tracer.spans) if traced else 0
        try:
            dt, raw = run_op(workload, i, tracer if traced else None)
            outcome = workload.outcome(i, raw)
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            tally.add(f"op {i}", [traceback.format_exc()])
            continue
        problems = checker.problems(outcome)
        if traced:
            problems += _trace_count_problems(tracer.spans[n_spans:], outcome)
        tally.add(f"op {i}", problems, outcome)
        times[traced].append(dt)
        if not traced:
            tally.work["captures"] += outcome.captures
            tally.work["rows"] += outcome.rows
    return tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rffcap" / "__init__.py").is_file():
        print(f"error: {root} is not the root of an rffcap checkout (no src/rffcap)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rffcap.cli  # noqa: F401  (traced runs patch the names cli calls through)
    import workloads
    import_s = time.perf_counter() - _T0

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    cls = workloads.WORKLOADS[args.workload]
    tally = Tally()
    try:
        t = time.perf_counter()
        workload = cls(args.seed, workdir)
        gen_s = time.perf_counter() - t
        checker = Checker(args.workload, args.seed)
        warmup_s, raw = run_op(workload, 0)
        setup_s = time.perf_counter() - _T0
        warm = workload.outcome(0, raw)
        tally.add("warm-up op", checker.problems(warm), warm)
        tracer = measure(workload, checker, tally, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = tally.times
    if tally.bounds_ok and not all(tally.bounds_ok):
        print(f"note: {tally.bounds_ok.count(False)} of {len(tally.bounds_ok)} ops have "
              f"classifier rows that fail validate_bounds at slack {workloads.BOUND_SLACK} "
              "(recorded, not counted as failures)", file=sys.stderr)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans)
        untraced = tracing.median_or_zero(times[False])
        metrics["bench.untraced_op_s"] = (untraced, "s")
        metrics["bench.trace_overhead"] = (
            tracing.median_or_zero(times[True]) / untraced if untraced else 0.0, "ratio")
        metrics["bench.failed_frac"] = (tally.failed / tally.attempted, "fraction")
        metrics["bench.bound_violation_frac"] = (
            tally.bounds_ok.count(False) / len(tally.bounds_ok) if tally.bounds_ok else 0.0,
            "fraction")
        spans_path = out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w") as fh:
            for sp in tracer.spans:
                fh.write(json.dumps({"name": sp.name, "start": sp.start, "end": sp.end,
                                     "parent": sp.parent, "op_id": sp.op_id,
                                     "counts": sp.counts}) + "\n")
    else:
        busy = sum(times[False])
        metrics = {
            "op_s": (tracing.median_or_zero(times[False]), "s"),
            "captures_per_s": (tally.work["captures"] / busy if busy else 0.0, "1/s"),
            "rows_per_s": (tally.work["rows"] / busy if busy else 0.0, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup": {"import_s": import_s, "input_generation_s": gen_s, "warmup_op_s": warmup_s},
        "op_s": times[False], "traced_op_s": times[True],
        "outputs": checker.first,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": tally.attempted, "failed": tally.failed,
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
