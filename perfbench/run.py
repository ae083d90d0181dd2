#!/usr/bin/env python3
"""entrep benchmark: run workloads, check their outputs, print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, summary table
    python3 perfbench/run.py --workload cavity --seed 3 --seconds 20 --trace 0

Each workload run starts fresh child processes (``child.py``) with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set
to 1; pool workers inherit the setting.  The children call the public
API in a closed loop with one caller and write their outputs to a
temporary directory under ``.perfbench/``.

``--trace 0`` starts two children: the program under test (``src/``) and
a frozen copy of the program as it was when the benchmark was written
(``frozen/``).  They never run at once: each operation of a pass runs in
one and then the other, and which goes first alternates.  It reports:

* ``wall_s``: the current program's mean pass time times
  ``FROZEN_PASS_S / (the frozen program's mean pass time in the same
  run)``, i.e. the current program's pass time on a host where the
  frozen program takes ``FROZEN_PASS_S``.  The host this was written on
  drifts in speed by 20-30% over minutes, alike for both programs, so
  raw pass times of runs minutes apart differ by that much while the
  ratio of interleaved pass times does not.  Raw pass times of both
  programs are printed and recorded beside it;
* ``setup_s``: median over several fresh processes of the time from
  process start until ``import entrep`` is done, rescaled the same way
  by the frozen program's median over as many processes, started in
  turn with the current program's;
* ``peak_rss_mb``: of the current program's process and its workers.

Operations attempted and failed, of the current program, are the
result's ``attempted`` and ``failed``.  ``--trace 1`` runs the current
program alone and reports the per-layer metrics from traced passes (see
``tracing.py``) plus ``tracing.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of each
run, with its environment and every pass time, is kept in
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Same names, in the same order, as ``workloads.WORKLOADS`` (not imported
#: here, so that this process never loads entrep).
WORKLOADS = ("cavity", "spectra", "spin-chains", "validation")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Fresh import-only processes per run, besides the two workload processes.
SETUP_ORDER = ("current", "frozen", "frozen", "current") * 2
#: Median set-up time in seconds of the frozen program on the same host.
FROZEN_SETUP_S = 0.8
#: Mean pass time in seconds of the frozen program, per workload, on the
#: host the benchmark was written on (2-vCPU Xeon share, one BLAS thread).
#: It sets the scale of ``wall_s``; runs are compared through the frozen
#: program's pass time measured in each.  (``validation`` is not steady,
#: 15 to 81 s a pass; its figure is a rough one.)
FROZEN_PASS_S = {"cavity": 2.2, "spectra": 1.75, "spin-chains": 4.1, "validation": 30.0}
#: Every run, child processes included, ends within this many seconds.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(RuntimeError):
    """A run that produced no result."""


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def _src_digest(root: Path = SRC) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def _child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    return env


def _setup_sample(env: dict, deadline: float, program: str) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--setup-only", "--program", program],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - start, 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"import-only process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - start


def _traced_child(args_list: list[str], env: dict, deadline: float) -> None:
    """Run the traced measurement in one child; it writes ``result.json``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args_list],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError("workload process ran past the deadline and was killed")
    finally:
        # Pool workers share the child's session; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchmarkError(f"workload process failed:\n{stderr[-2000:]}")


class Server:
    """A child in ``--serve`` mode, answering one JSON line per request."""

    def __init__(self, program: str, child_args: list[str], env: dict, run_dir: Path) -> None:
        self.program = program
        self.stderr_path = run_dir / f"{program}.stderr"
        self.stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "--serve", "--program", program, *child_args,
             "--run-dir", str(run_dir / program)],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
            start_new_session=True,
        )

    def request(self, line: str | None) -> dict:
        """Send ``line`` (or nothing) and wait for the reply."""
        try:
            if line is not None:
                self.proc.stdin.write(line + "\n")
                self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except (BrokenPipeError, ValueError):
            reply = ""
        if not reply:
            self.stderr.flush()
            tail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchmarkError(f"{self.program} process ended without a reply:\n{tail}")
        return json.loads(reply)

    def kill(self) -> None:
        # Pool workers share the child's session; none may outlive the run.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        self.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()


def _paired_passes(child_args: list[str], env: dict, run_dir: Path, seconds: float, deadline: float) -> dict:
    """Interleaved passes of the current and the frozen program."""
    servers: dict[str, Server] = {}
    setup: dict[str, float] = {}

    def kill_all() -> None:
        for server in list(servers.values()):
            server.kill()

    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0), kill_all)
    watchdog.start()
    try:
        # One after the other, so that neither import competes with the other.
        for program in ("current", "frozen"):
            servers[program] = Server(program, child_args, env, run_dir)
            hello = servers[program].request(None)
            setup[program] = hello["ready"] - servers[program].start
            ops = hello["ops"]
        walls = {"current": [], "frozen": []}
        tally = {"attempted": 0, "failed": 0, "problems": []}
        start = time.perf_counter()
        while True:
            cycle = len(walls["current"])
            for program in walls:
                walls[program].append(0.0)
            for op in range(ops):
                # Each operation runs in both programs back to back; which goes
                # first alternates from one operation and one pass to the next.
                order = ("current", "frozen") if (cycle + op) % 2 == 0 else ("frozen", "current")
                for program in order:
                    reply = servers[program].request(f"op {op}")
                    walls[program][-1] += reply["wall"]
                    if program == "frozen" and reply["failed"]:
                        raise BenchmarkError(f"the frozen program failed: {reply['problems']}")
                    if program == "current":
                        tally["attempted"] += reply["attempted"]
                        tally["failed"] += reply["failed"]
                        tally["problems"].extend(reply["problems"])
            next_pass = statistics.fmean(walls["current"]) + statistics.fmean(walls["frozen"])
            if time.perf_counter() - start + next_pass > seconds:
                break
        final = servers["current"].request("done")
        servers["frozen"].request("done")
    finally:
        watchdog.cancel()
        for server in servers.values():
            server.close()
    if time.perf_counter() > deadline:
        raise BenchmarkError("workload processes ran past the deadline and were killed")
    return {
        "ready_s": setup,
        "walls": walls["current"],
        "frozen_walls": walls["frozen"],
        **tally,
        **final,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool, deadline: float) -> dict:
    """One measured run of one workload; returns its record."""
    WORK.mkdir(exist_ok=True)
    runs_dir = WORK / "runs"
    runs_dir.mkdir(exist_ok=True)
    env = _child_env()
    load_start = _loadavg()
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    setup: dict[str, list[float]] = {"current": [], "frozen": []}
    try:
        stamp = time.strftime("%Y%m%dT%H%M%S")
        name = f"{workload}-seed{seed}-trace{trace}-{stamp}-{os.getpid()}"
        child_args = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        if trace:
            child_args += ["--seconds", str(seconds), "--trace", "1", "--run-dir", str(run_dir)]
            _traced_child(child_args, env, deadline)
            result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
            result.pop("ready")
            shutil.move(run_dir / "trace.json", runs_dir / f"{name}.trace.json")
        else:
            for program in SETUP_ORDER:
                setup[program].append(_setup_sample(env, deadline, program))
            result = _paired_passes(child_args, env, run_dir, seconds, deadline)
            for program, ready in result.pop("ready_s").items():
                setup[program].append(ready)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "frozen_sha256": _src_digest(HERE / "frozen"),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "setup_s": setup["current"],
        "frozen_setup_s": setup["frozen"],
        **result,
    }
    (runs_dir / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its suffix."""
    if name.endswith((".calls", "_sum")):
        return "count"
    if name.endswith("unique_frac"):
        return "ratio"
    if name.endswith("csv_bytes"):
        return "B"
    return "s"


def metrics_of(record: dict) -> dict:
    if record["trace"]:
        return {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in record["layers"].items()
        }
    values = {
        "wall_s": FROZEN_PASS_S[record["workload"]]
        * statistics.fmean(record["walls"])
        / statistics.fmean(record["frozen_walls"]),
        "setup_s": FROZEN_SETUP_S
        * statistics.median(record["setup_s"])
        / statistics.median(record["frozen_setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def summary_lines(record: dict) -> list[str]:
    name = record["workload"]
    attempted, failed = record["attempted"], record["failed"]
    lines = [f"[{name}] env {json.dumps(record['environment'], sort_keys=True)}"]
    lines.append(
        f"[{name}] git {record['git_sha']} src {record['src_sha256'][:12]} "
        f"loadavg {record['loadavg_start']!r} -> {record['loadavg_end']!r}"
    )
    if not record["trace"]:
        lines.extend(
            f"[{name}] {metric:<15} {m['value']:.4f} {m['unit']}"
            for metric, m in metrics_of(record).items()
        )
    series = {"pass_wall_s": record["walls"]}
    if record["trace"]:
        series["traced_wall_s"] = record["traced_walls"]
    else:
        series["frozen_wall_s"] = record["frozen_walls"]
        series["import_s"] = record["setup_s"]
        series["frozen_import_s"] = record["frozen_setup_s"]
    for metric, values in series.items():
        q = _quartiles(values)
        lines.append(
            f"[{name}] {metric:<15} mean {q['mean']:.4f} s  median {q['median']:.4f}  "
            f"q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n={q['n']}"
        )
    lines.append(
        f"[{name}] fail_frac       {failed / max(attempted, 1):.4f} ratio  "
        f"(failed {failed} of {attempted} attempted)"
    )
    lines.extend(f"[{name}] problem: {problem}" for problem in record["problems"])
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, invariants only")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "entrep" / "__init__.py").is_file():
        print(f"entrep sources not found under {SRC}", file=sys.stderr)
        return 2

    # A terminated run still stops its children (the ``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("benchmark terminated"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, deadline)
            records.append(record)
            print("\n".join(summary_lines(record)), flush=True)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = metrics_of(records[0])
    else:
        metrics = {
            f"{r['workload']}.{metric}": value
            for r in records
            for metric, value in metrics_of(r).items()
        }
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
