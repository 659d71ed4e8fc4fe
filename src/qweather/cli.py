"""Command-line entry point for dataset utilities and experiment runs.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 training
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .bench import (
    ConfigError,
    NoPredictionsError,
    PipelineError,
    _csv,
    compare,
    emit_plot_data,
    load_config,
    report_from_json,
    report_to_json,
    run,
)
from .optim import OptimizationAbortedError
from .qkernel import IllConditionedKernelError
from .weather import (
    DataFormatError,
    DegenerateScaleError,
    EmptyDatasetError,
    EmptySelectionError,
    UndefinedCorrelationError,
    correlation_report,
    load_csv,
    save_csv,
    synth_generate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4


def _exit_code(err) -> int:
    if isinstance(err, PipelineError):
        err = err.cause
    if isinstance(err, (ConfigError, NoPredictionsError)):
        return EXIT_CONFIG
    if isinstance(
        err,
        (
            DataFormatError,
            EmptyDatasetError,
            EmptySelectionError,
            UndefinedCorrelationError,
            DegenerateScaleError,
            OSError,
        ),
    ):
        return EXIT_DATA
    if isinstance(err, (OptimizationAbortedError, IllConditionedKernelError)):
        return EXIT_TRAINING
    if isinstance(err, (ValueError, TypeError, KeyError)):
        return EXIT_CONFIG
    return EXIT_TRAINING


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qweather",
        description="Quantum and classical model benchmarks on weather series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic monthly dataset CSV")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-months", type=int, default=1000)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--out-dir", help="directory for a default-named CSV")

    p = sub.add_parser("ingest", help="validate a CSV and print its summary")
    p.add_argument("--csv", required=True)

    p = sub.add_parser("correlate", help="rank features by |r| against the target")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", help="also write the full-precision table as CSV")

    p = sub.add_parser("run", help="execute one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="artifact directory (report printed if omitted)")
    p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("compare", help="run several configs and tabulate them")
    p.add_argument(
        "--config", action="append", required=True, help="repeat once per experiment"
    )
    p.add_argument("--out-dir")
    p.add_argument("--seed", type=int, help="override every config seed")

    p = sub.add_parser("plotdata", help="dump a report's prediction series as CSV")
    p.add_argument("--report", required=True, help="path to a report.json")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--probabilities",
        action="store_true",
        help="write per-class probabilities instead of a value series",
    )
    return parser


def _cmd_synth(args) -> int:
    if args.out:
        path = args.out
    elif args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, f"synth_seed{args.seed}.csv")
    else:
        raise ConfigError("synth needs --out or --out-dir")
    dataset = synth_generate(args.seed, args.n_months)
    save_csv(dataset, path)
    print(f"wrote {dataset.n_rows} rows to {path}")
    return EXIT_OK


def _cmd_ingest(args) -> int:
    _, report = load_csv(args.csv)
    print(json.dumps(report.as_dict(), sort_keys=True, indent=1))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    dataset, _ = load_csv(args.csv)
    report = correlation_report(dataset)
    print("feature        r")
    print("-------        -")
    for name in report.ranking():
        print(f"{name:<12}  {report.correlations[name]: .4f}")
    if args.out:
        rows = [(name, report.correlations[name]) for name in report.ranking()]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_csv(["feature", "r"], rows))
    return EXIT_OK


def _with_seed(config, seed):
    return config if seed is None else replace(config, seed=seed)


def _cmd_run(args) -> int:
    config = _with_seed(load_config(args.config), args.seed)
    report = run(config, out_dir=args.out_dir)
    if args.out_dir:
        print(f"run artifacts written to {args.out_dir}")
        for name, value in sorted(report.metrics.items()):
            print(f"{name}: {value:.4f}")
    else:
        print(report_to_json(report))
    return EXIT_OK


def _cmd_compare(args) -> int:
    configs = [_with_seed(load_config(path), args.seed) for path in args.config]
    text, _, _ = compare(configs, out_dir=args.out_dir)
    print(text, end="")
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    with open(args.report, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise DataFormatError(f"report is not UTF-8 text: {err}") from None
    report = report_from_json(text)
    emit_plot_data(report, args.out, probabilities=args.probabilities)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "correlate": _cmd_correlate,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on bad usage, which matches the config-error code
        return int(err.code) if err.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except Exception as err:  # noqa: BLE001 - boundary turns errors into codes
        code = _exit_code(err)
        print(f"error: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
