#!/usr/bin/env python3
"""Regenerate every figure dataset with its default parameters.

Each experiment writes ``<outdir>/<name>.csv`` plus the matching
``.manifest``; rerunning with the same seed reproduces the files byte for
byte.  The script prints each dataset's wall time, the total, and the BLAS
thread settings (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS``) the timings were taken under.

Usage:
    python3 scripts/run_all_figures.py --outdir figure_data --workers 2
    python3 scripts/run_all_figures.py --only fig2a fig5b
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from entrep.experiments import EXPERIMENTS, ExperimentConfig, run_experiment

FIGURES = tuple(name for name in sorted(EXPERIMENTS) if name != "custom")

#: The environment variables that set how many threads BLAS may start.
THREAD_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("figure_data"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--only",
        nargs="+",
        choices=FIGURES,
        metavar="NAME",
        help=f"subset to run (default: all of {', '.join(FIGURES)})",
    )
    args = parser.parse_args(argv)

    names = tuple(args.only) if args.only else FIGURES
    args.outdir.mkdir(parents=True, exist_ok=True)
    total = time.perf_counter()
    for name in names:
        started = time.perf_counter()
        cfg = ExperimentConfig(
            experiment=name,
            out=args.outdir / f"{name}.csv",
            seed=args.seed,
            workers=args.workers,
        )
        table = run_experiment(cfg)
        print(
            f"{name:6s}  {len(table.rows):5d} rows  "
            f"{time.perf_counter() - started:6.1f} s  -> {cfg.out_path}"
        )
    print(f"done: {len(names)} datasets in {time.perf_counter() - total:.1f} s")
    print("threads: " + " ".join(f"{key}={os.environ.get(key, 'unset')}" for key in THREAD_SETTINGS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
