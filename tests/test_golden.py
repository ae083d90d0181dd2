"""Every figure dataset against its stored golden copy.

``scripts/make_golden.py`` wrote the copies in ``tests/golden/``.  Each
dataset is regenerated here and compared cell by cell with
``|got - ref| <= atol + rtol * |ref|``: ``rtol = 1e-9, atol = 1e-12`` for
Gaussian and output columns, ``rtol = 1e-6, atol = 1e-8`` for the spin
sweeps.  Headers, sweep values, pair labels and manifests must match
exactly.  Byte identity across worker counts is tested separately, in
``test_experiments.py``.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", _SCRIPT)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

GAUSSIAN_TOL = (1e-9, 1e-12)  # (rtol, atol)
SPIN_TOL = (1e-6, 1e-8)


def _read(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], np.array(rows[1:], dtype=float)


@pytest.mark.parametrize("name", sorted(make_golden.GOLDEN))
def test_dataset_matches_golden_copy(name, tmp_path):
    cfg = make_golden.golden_config(name, tmp_path)
    make_golden.run_experiment(cfg)
    ref_csv = make_golden.GOLDEN_DIR / f"{name}.csv"
    ref_manifest = ref_csv.with_suffix(".manifest")
    got_manifest = cfg.out_path.with_suffix(".manifest")
    assert got_manifest.read_bytes() == ref_manifest.read_bytes()

    got_header, got = _read(cfg.out_path)
    ref_header, ref = _read(ref_csv)
    assert got_header == ref_header
    assert got.shape == ref.shape
    # sweep value and pair label identify the row and must not move
    assert np.array_equal(got[:, :2], ref[:, :2])
    spin = cfg.experiment in make_golden.SPIN_EXPERIMENTS
    rtol, atol = SPIN_TOL if spin else GAUSSIAN_TOL
    excess = np.abs(got[:, 2:] - ref[:, 2:]) - (atol + rtol * np.abs(ref[:, 2:]))
    worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
    assert excess.max() <= 0.0, (
        f"{name}: row {worst[0]}, column {got_header[2 + worst[1]]}: "
        f"got {got[worst[0], 2 + worst[1]]!r}, golden {ref[worst[0], 2 + worst[1]]!r}"
    )
