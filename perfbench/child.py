"""The measured process: import entrep, then run passes of one workload.

Started by ``run.py`` with the BLAS thread variables pinned.  The first
thing it does is import the package; the time at which that is done is
the end of set-up.  With ``--setup-only`` it prints that time and exits.

``--program frozen`` imports the copy of the package kept in
``frozen/`` instead of ``src/`` (see ``run.py`` for why).

With ``--serve`` it runs one untimed warm-up pass at smoke-test size (so
that what the first call loads lazily is not charged to a timed pass),
then answers ``run.py`` over its standard input and output, one JSON
line per request: ``op <i>`` runs and checks the workload's operation
``i``, ``done`` reports peak memory and the environment and exits.  Anything
the program prints goes to standard error.

With ``--trace 1`` it runs the traced measurement on its own: untraced
and traced passes alternate until the next pair would end past
``--seconds``, so the tracing overhead is measured against passes taken
under the same conditions.  The result goes to ``<run-dir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAMS = {"current": HERE.parent / "src", "frozen": HERE / "frozen"}


def _program() -> str:
    """``--program`` from the command line, read before entrep is imported."""
    argv = sys.argv[1:]
    return argv[argv.index("--program") + 1] if "--program" in argv[:-1] else "current"


sys.path[:0] = [str(PROGRAMS.get(_program(), PROGRAMS["current"])), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import entrep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

READY = time.perf_counter()

def environment(ops) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "entrep": entrep.__version__,
        "package": str(Path(entrep.__file__).parent),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workers": workloads.worker_counts(ops),
    }


def peak_rss_mb() -> float:
    """Larger of this process's peak and its (waited-for) pool workers' peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


class Loop:
    """Closed-loop passes of one workload, with their checks."""

    def __init__(self, ops, seed: int, run_dir: Path, use_reference: bool) -> None:
        self.ops = ops
        self.seed = seed
        self.out_dir = run_dir / "outputs"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.use_reference = use_reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer: tracing.Tracer | None = None, ops=None) -> tuple[float, list]:
        """Wall seconds of one pass (tracing as given) and its spans.

        With ``ops``, the pass runs only those operations of the workload.
        """
        spans = []
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            outcomes = workloads.run_pass(self.ops if ops is None else ops, self.seed, self.out_dir)
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
                spans = tracer.collect()
        attempted, failed, problems = workloads.check_pass(outcomes, self.seed, self.use_reference)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        return wall, spans


def serve(loop: Loop, tiny_ops, warm_up_dir: Path, proto) -> None:
    """Answer ``op <i>`` (run and check operation ``i``) and ``done`` requests."""

    def reply(payload: dict) -> None:
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    if max(workloads.worker_counts(loop.ops), default=1) == 1:
        # A serial workload runs on one CPU, the same in both programs, so
        # that the two are not timed on CPUs that the host slows unequally.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workloads.run_pass(tiny_ops, loop.seed, warm_up_dir)
    reply({"ready": READY, "ops": len(loop.ops)})
    for line in sys.stdin:
        request = line.split()
        if request[:1] == ["op"] and len(request) == 2:
            before = (loop.attempted, loop.failed, len(loop.problems))
            wall, _ = loop.one_pass(ops=(loop.ops[int(request[1])],))
            reply({
                "wall": wall,
                "attempted": loop.attempted - before[0],
                "failed": loop.failed - before[1],
                "problems": loop.problems[before[2]:][:10],
            })
        elif request == ["done"]:
            reply({"peak_rss_mb": peak_rss_mb(), "environment": environment(loop.ops)})
            return
        else:
            raise SystemExit(f"unknown request {line!r}")


def measure_traced(loop: Loop, seconds: float, spill_dir: Path) -> dict:
    tracer = tracing.Tracer(spill_dir)
    walls, traced_walls, per_pass = [], [], []
    start = time.perf_counter()
    while True:
        wall, _ = loop.one_pass()
        walls.append(wall)
        traced_wall, spans = loop.one_pass(tracer)
        traced_walls.append(traced_wall)
        per_pass.append(tracing.layer_metrics(spans))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(walls) + statistics.fmean(traced_walls) > seconds:
            break
    layers = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    layers["tracing.overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
    return {"walls": walls, "traced_walls": traced_walls, "layers": layers, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--program", choices=sorted(PROGRAMS), default="current")
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, invariants only")
    parser.add_argument("--run-dir", type=Path)
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"ready": READY, "package": str(Path(entrep.__file__).parent)}))
        return 0
    if args.workload is None or args.run_dir is None or args.serve == bool(args.trace):
        parser.error("--workload, --run-dir and one of --serve and --trace 1 are required")

    table = workloads.TINY_WORKLOADS if args.tiny else workloads.WORKLOADS
    ops = table[args.workload]
    # The frozen program is only a timing reference: it is held to the
    # invariants, not to references that a later change may update.
    use_reference = not args.tiny and args.program == "current"
    loop = Loop(ops, args.seed, args.run_dir, use_reference=use_reference)
    if args.serve:
        proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
        sys.stdout = sys.stderr
        serve(loop, workloads.TINY_WORKLOADS[args.workload], args.run_dir / "warm-up", proto)
        return 0

    workloads.run_pass(workloads.TINY_WORKLOADS[args.workload], args.seed, args.run_dir / "warm-up")
    result = measure_traced(loop, args.seconds, args.run_dir / "spill")
    spans = result.pop("spans")
    (args.run_dir / "trace.json").write_text(json.dumps(spans), encoding="utf-8")
    result.update(
        ready=READY,
        peak_rss_mb=peak_rss_mb(),
        attempted=loop.attempted,
        failed=loop.failed,
        problems=loop.problems[:50],
        environment=environment(ops),
    )
    (args.run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
