#!/usr/bin/env python3
"""Write the benchmark's reference outputs into ``perfbench/reference/``.

Runs every dataset of every workload once at the reference seed, with the
BLAS thread variables pinned to 1, and stores its CSV; stores the status,
value and threshold of every validation check.  Run it only when a change
is meant to move the outputs, and say so in that change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from run import PINNED  # noqa: E402

os.environ.update(PINNED)  # before numpy loads its BLAS

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(__file__).resolve().parent.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="reference-", dir=work))
    try:
        for name, ops in workloads.WORKLOADS.items():
            for outcome in workloads.run_pass(ops, workloads.REFERENCE_SEED, out_dir):
                if outcome.error:
                    print(f"{name}/{outcome.op.key}: {outcome.error}", file=sys.stderr)
                    return 1
                target = workloads.REFERENCE_DIR / outcome.op.key
                if isinstance(outcome.op, workloads.Validation):
                    payload = workloads.reports_to_reference(outcome.output)
                    target.with_suffix(".json").write_text(
                        json.dumps(payload, indent=1) + "\n", encoding="utf-8"
                    )
                else:
                    shutil.copyfile(outcome.output, target.with_suffix(".csv"))
                print(f"{name}/{outcome.op.key}: written", flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
