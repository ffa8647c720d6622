"""Command-line interface: simulate, mi, emi, capacity, classify, sweep, validate."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .capacity import MIN_USERS, _check_emi, _check_threshold, user_capacity
from .classifier import error_rate_experiment
from .config import ConfigError, ScenarioConfig, load_config
from ._records import _check_count
from .fingerprint import build_dataset, feature_bin_frequencies, load_dataset, save_dataset
from .harness import (BOUND_SLACK, SWEEP_THRESHOLDS, SweepSpec, _check_slack, read_sweep_rows,
                      run_sweep, sweep_to_csv, sweep_to_json, validate_bounds, write_table)
from .infotheory import emi_kde, per_feature_mi
from .signal_model import sample_profiles


def _add_common(parser: argparse.ArgumentParser, fmt_choices=("csv", "json"),
                scenario=True) -> None:
    """--out and --format, and --config, the only source of scenario values."""
    if scenario:
        parser.add_argument("--config", type=Path,
                            help="scenario YAML file (default: the built-in scenario)")
    parser.add_argument("--out", type=Path, help="output file path")
    parser.add_argument("--format", choices=fmt_choices, default=fmt_choices[0],
                        help=f"output format (default {fmt_choices[0]})")


def _usage_checked(convert):
    """argparse type= running convert, whose ValueError becomes a usage error (exit 2)."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _scenario(args) -> ScenarioConfig:
    return load_config(args.config) if args.config else ScenarioConfig()


def emit(args, columns, rows, payload, out: Path | None = None) -> None:
    """Write rows under columns as CSV, or payload as JSON, as --format asks.

    The output goes to out, else to --out, else to stdout.
    """
    out = out or args.out
    if args.format == "csv":
        write_table(out or sys.stdout, columns, rows)
        return
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)


def _rejected(source: Path | None, call, *args, **kwargs):
    """call(*args, **kwargs), whose ValueError on a command's input becomes a ConfigError
    prefixed with source, the input's file; None for no file or one the message names."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}" if source else str(exc)) from None


def _dataset(args, cfg: ScenarioConfig):
    """The --data file if one is given, else the scenario's dataset."""
    if getattr(args, "data", None):
        return _rejected(None, load_dataset, args.data)
    profiles = sample_profiles(cfg.population, cfg.n_devices, cfg.seed)
    return build_dataset(profiles, cfg.per_class, cfg.pipeline, cfg.seed)


def cmd_simulate(args) -> int:
    cfg = _scenario(args)
    ds = _dataset(args, cfg)
    out = args.out or Path(f"dataset.{ 'rfds' if args.format == 'bin' else args.format }")
    if args.format == "bin":
        save_dataset(ds, out)
    else:
        payload = ({"meta": ds.meta.to_dict(), "features": ds.features.tolist(),
                    "labels": ds.labels.tolist()} if args.format == "json" else None)
        emit(args, [f"bin_{m}" for m in range(ds.n_bins)] + ["label"],
             (row.tolist() + [int(label)] for row, label in zip(ds.features, ds.labels)),
             payload, out)
    print(f"wrote {ds.n_samples} samples x {ds.n_bins} bins "
          f"({ds.n_classes} devices) to {out}")
    return 0


def cmd_mi(args) -> int:
    cfg = _scenario(args)
    ds = _dataset(args, cfg)
    report = _rejected(args.data, per_feature_mi, ds, bins=cfg.estimator.bins)
    mi = report.per_bin_mi.tolist()
    freqs = (feature_bin_frequencies(len(mi), ds.meta.fs_hz).tolist() if ds.meta.fs_hz
             else [None] * len(mi))
    out = args.out or Path(f"mi_report.{args.format}")
    emit(args, ["bin_index", "freq_hz", "mi_bits"], zip(range(len(mi)), freqs, mi),
         {"bins": report.bins, "mi_bits": mi, "h_x": report.h_x.tolist()}, out)
    if args.format == "csv":
        print(f"wrote per-bin MI for {len(mi)} bins to {out}")
    return 0


def cmd_emi(args) -> int:
    cfg = _scenario(args)
    ds = _dataset(args, cfg)
    est = _rejected(args.data, emi_kde, ds, projected_dim=cfg.estimator.projected_dim)
    summary = {"emi_bits": est.emi_bits, "emi_bits_clamped": est.emi_bits_clamped,
               "projected_dim": est.projected_dim, "n_samples": est.n_samples,
               "n_classes": ds.n_classes}
    emit(args, list(summary), [summary.values()],
         summary | {"bandwidths": est.bandwidths.tolist()})
    if args.format == "csv" and args.out:
        print(f"wrote EMI summary to {args.out}")
    return 0


def cmd_capacity(args) -> int:
    n_max = _scenario(args).capacity.n_max
    results = {t: user_capacity(args.emi, t, n_max) for t in args.thresholds}
    # the CSV row takes the thresholds in ascending order and sets a flag when
    # any threshold's result has it; the JSON keeps the order they were given in
    ascending = sorted(results)
    row = ([0.0, args.emi] + [results[t].n_c for t in ascending]
           + [any(r.saturated for r in results.values()),
              any(r.below_min for r in results.values())])
    emit(args, ["parameter", "emi_bits"] + [f"nc_at_{t * 100:g}pct" for t in ascending]
         + ["saturated", "below_min"], [row],
         {"emi_bits": args.emi, "n_max": n_max,
          "capacity": {f"{t:g}": {"n_c": r.n_c, "saturated": r.saturated,
                                  "below_min": r.below_min}
                       for t, r in results.items()}})
    if args.format == "csv" and args.out:
        print(f"wrote capacity table to {args.out}")
    return 0


def cmd_classify(args) -> int:
    cfg = _scenario(args)
    n_classes = (min(cfg.n_devices, cfg.classifier.max_devices) if args.n_classes is None
                 else args.n_classes)
    profiles = sample_profiles(cfg.population, max(n_classes, cfg.n_devices), cfg.seed)
    report = _rejected(
        None, error_rate_experiment, profiles, n_classes, cfg.pipeline, cfg.classifier,
        master_seed=cfg.seed, shuffle_train_labels=args.shuffle_labels)
    summary = {"n_classes": n_classes, "pe": report.pe,
               "n_test": report.n_test,
               "per_class_errors": report.per_class_errors.tolist(),
               "unseen_labels": report.unseen_labels}
    if args.out:
        emit(args, ["sample_index", "min_distance", "assigned_id", "true_id"],
             zip(range(report.n_test), report.min_distance_scores.tolist(),
                 report.assigned_ids.tolist(), report.true_ids.tolist()),
             summary | {"confusion": report.confusion.tolist(),
                        "assigned_ids": report.assigned_ids.tolist(),
                        "true_ids": report.true_ids.tolist()})
        print(f"wrote classification report to {args.out}")
    print(json.dumps(summary, indent=2))
    return 0


def cmd_sweep(args) -> int:
    cfg = _scenario(args)
    spec = SweepSpec(axis=cfg.sweep.axis, values=cfg.sweep.values, fixed=cfg)
    result = run_sweep(spec, with_classifier=args.with_classifier,
                       threads=args.threads)
    out = args.out or Path(f"sweep_{spec.axis}.{args.format}")
    (sweep_to_csv if args.format == "csv" else sweep_to_json)(result, out)
    print(f"wrote {len(result.rows)} rows ({len(result.aborted)} aborted) to {out}")
    for ab in result.aborted:
        print(f"  aborted value={ab.value!r}: {ab.reason}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    rows = _rejected(None, read_sweep_rows, args.rows)
    checks = _rejected(args.rows, validate_bounds, rows, slack=args.slack)
    if args.out:
        emit(args, list(vars(checks[0])), (vars(c).values() for c in checks),
             {"slack": args.slack, "checks": [vars(c) for c in checks]})
    failures = [c for c in checks if not c.passed]
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status} value={c.value:g} n={c.n_classes} pe={c.pe:.4f} "
              f"bound={c.slacked_lower:.4f} margin={c.margin:+.4f}")
    print(f"{len(checks) - len(failures)}/{len(checks)} bound checks passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rffcap",
        description="RF-fingerprint capacity analysis: simulate devices, estimate "
                    "identity information, derive user capacity, and cross-check "
                    "with an empirical classifier.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="build a labeled fingerprint dataset")
    _add_common(p, fmt_choices=("bin", "csv", "json"))
    p.add_argument("--data", type=Path, help="existing dataset file (.rfds) to convert")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mi", help="per-feature-bin mutual information")
    _add_common(p)
    p.add_argument("--data", type=Path, help="existing dataset file (.rfds)")
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("emi", help="ensemble mutual information (KDE)")
    _add_common(p, fmt_choices=("json", "csv"))
    p.add_argument("--data", type=Path, help="existing dataset file (.rfds)")
    p.set_defaults(func=cmd_emi)

    p = sub.add_parser("capacity", help="user capacity from an EMI value")
    _add_common(p, fmt_choices=("json", "csv"))
    p.add_argument("--emi", type=_usage_checked(lambda text: _check_emi(float(text))),
                   required=True, help="EMI estimate in bits")
    p.add_argument("--thresholds", default=SWEEP_THRESHOLDS,
                   type=_usage_checked(lambda text: [_check_threshold(float(t))
                                                     for t in text.split(",")]),
                   help="comma-separated error thresholds "
                        f"(default {','.join(f'{t:g}' for t in SWEEP_THRESHOLDS)})")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("classify", help="train/test error-rate experiment")
    _add_common(p)
    p.add_argument("--n-classes", type=_usage_checked(
                       lambda text: _check_count("n_classes", int(text), MIN_USERS)),
                   help="devices to classify (default config)")
    p.add_argument("--shuffle-labels", action="store_true",
                   help="shuffle training labels to measure chance level")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    _add_common(p)
    p.add_argument("--with-classifier", action="store_true",
                   help="bracket each capacity with empirical error rates")
    p.add_argument("--threads", default=1,
                   type=_usage_checked(lambda text: _check_count("threads", int(text), 1)),
                   help="worker processes (default 1)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check sweep rows against error bounds")
    _add_common(p, scenario=False)
    p.add_argument("--rows", type=Path, required=True, help="sweep CSV/JSON file")
    p.add_argument("--slack", default=BOUND_SLACK,
                   type=_usage_checked(lambda text: _check_slack(float(text))),
                   help=f"EMI slack in bits (default {BOUND_SLACK:g})")
    p.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        # rejected user input is not a fault: one line
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
