#!/usr/bin/env python3
"""Write the golden datasets that ``tests/test_golden.py`` compares against.

Every Gaussian and output figure runs at its defaults (fig3a with seed
0); the two spin sweeps, fig3b and fig3c, run on reduced grids so that
the gate stays a few seconds long.  Each dataset is one CSV plus its
manifest under ``tests/golden/``.  Regenerate only when a change is meant
to move the numbers beyond the gate's tolerances, and say so in the
change.

Usage:
    python3 scripts/make_golden.py            # writes tests/golden/
    python3 scripts/make_golden.py --outdir /tmp/golden
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from entrep.experiments import ExperimentConfig, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"

#: Dataset name -> (experiment, overrides).  Names are the file stems.
GOLDEN = {
    "fig2a": ("fig2a", {}),
    "fig2b": ("fig2b", {}),
    "fig2c": ("fig2c", {}),
    "fig2d": ("fig2d", {}),
    "fig2e": ("fig2e", {}),
    "fig3a": ("fig3a", {}),
    "fig3b-g3": ("fig3b", {"grid_points": 3}),
    "fig3c-g5": ("fig3c", {"grid_points": 5}),
    "fig5a": ("fig5a", {}),
    "fig5b": ("fig5b", {}),
}

#: Experiments whose value columns come from the spin steady-state solve.
SPIN_EXPERIMENTS = frozenset({"fig3b", "fig3c"})

SEED = 0


def golden_config(name: str, outdir: Path) -> ExperimentConfig:
    experiment, overrides = GOLDEN[name]
    return ExperimentConfig(
        experiment=experiment, overrides=overrides, out=outdir / f"{name}.csv", seed=SEED
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=GOLDEN_DIR)
    args = parser.parse_args(argv)
    for name in GOLDEN:
        cfg = golden_config(name, args.outdir)
        table = run_experiment(cfg)
        print(f"{name:9s} {len(table.rows):5d} rows -> {cfg.out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
