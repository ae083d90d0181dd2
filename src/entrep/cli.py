"""Command-line entry point.

Two subcommands:

``entrep run``
    Compute one named experiment and write its CSV dataset plus the
    key-value manifest that reproduces it.  Parameters come from the
    experiment's defaults, optionally updated by a flat ``key = value``
    config file and/or ``key=value`` pairs on the command line.
``entrep validate``
    Run the cross-model validation suites and print a JSON report.

Exit codes: 0 success, 1 a validation suite failed, 2 bad input or a
model error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigInvalid, ModelError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    manifest_path_for,
    read_config_file,
    run_experiment,
)
from .spins import SIDE_BUDGET
from .validate import SUITE_NAMES, report_to_json, run_all, run_suite

#: Config-file keys that steer the run itself rather than the model.
_RESERVED_KEYS = ("experiment", "out", "seed", "workers")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrep",
        description=(
            "Steady-state entanglement replication in driven cavity and "
            "spin arrays: experiment datasets and validation suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compute one experiment dataset")
    run_parser.add_argument(
        "--experiment",
        choices=sorted(EXPERIMENTS),
        help="experiment to run (may also be set in the config file)",
    )
    run_parser.add_argument(
        "--config",
        type=Path,
        help="flat 'key = value' file with parameter overrides",
    )
    run_parser.add_argument(
        "--out", type=Path, help="output CSV path (default: <experiment>.csv)"
    )
    run_parser.add_argument(
        "--seed", type=int, help="random seed for sampled experiments (default 0)"
    )
    run_parser.add_argument(
        "--workers", type=int, help="parallel sweep-point processes (default 1)"
    )
    run_parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="single parameter override; repeatable",
    )

    val_parser = sub.add_parser("validate", help="run cross-model validation suites")
    val_parser.add_argument(
        "--suite",
        choices=(*SUITE_NAMES, "all"),
        default="all",
        help="which suite to run (default: all)",
    )
    val_parser.add_argument(
        "--budget",
        type=int,
        default=SIDE_BUDGET,
        help="largest admissible superoperator side; larger solves are skipped",
    )
    return parser


def _parse_set_pairs(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key or not value.strip():
            raise ConfigInvalid(f"--set needs KEY=VALUE, got {pair!r}")
        if key in overrides:
            raise ConfigInvalid(f"--set repeats key {key!r}")
        overrides[key] = value.strip()
    return overrides


def _int_entry(entries: dict[str, str], key: str, default: int) -> int:
    """Integer value of a config-file ``key``, or ``default`` when absent."""
    try:
        return int(entries.get(key, default))
    except ValueError as exc:
        raise ConfigInvalid(
            f"config file {key} = {entries[key]!r} is not an integer"
        ) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    file_entries = read_config_file(args.config) if args.config else {}
    reserved = {key: file_entries.pop(key) for key in _RESERVED_KEYS if key in file_entries}

    experiment = args.experiment or reserved.get("experiment")
    if experiment is None:
        raise ConfigInvalid("no experiment named on the command line or in the config file")
    if args.experiment and "experiment" in reserved and reserved["experiment"] != args.experiment:
        raise ConfigInvalid(
            f"--experiment {args.experiment} conflicts with config file "
            f"experiment = {reserved['experiment']}"
        )

    out = args.out if args.out is not None else reserved.get("out")
    seed = args.seed if args.seed is not None else _int_entry(reserved, "seed", 0)
    workers = args.workers if args.workers is not None else _int_entry(reserved, "workers", 1)

    overrides = dict(file_entries)
    for key, value in _parse_set_pairs(args.set).items():
        overrides[key] = value

    cfg = ExperimentConfig(
        experiment=experiment,
        overrides=overrides,
        out=out,
        seed=seed,
        workers=workers,
    )
    table = run_experiment(cfg)
    print(
        f"wrote {cfg.out_path} and {manifest_path_for(cfg.out_path)} "
        f"({len(table.rows)} rows)"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise ConfigInvalid(f"budget must be positive, got {args.budget}")
    if args.suite == "all":
        reports = run_all(args.budget)
    else:
        reports = (run_suite(args.suite, args.budget),)
    sys.stdout.write(report_to_json(reports, args.budget))
    return 1 if any(report.status == "failed" for report in reports) else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_validate(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
