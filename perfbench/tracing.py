"""Spans around the public functions of each entrep layer, installed from outside.

The package imports functions by name across modules (``output`` holds
its own ``steady_state``, ``arrays`` its own ``solve_lyapunov``), so a
wrapper must replace every module attribute bound to the original
function, not just the one in the defining module.  :meth:`Tracer.install`
does that for every ``entrep`` module and :meth:`Tracer.uninstall` puts
the originals back; nothing under ``src/`` changes.

Each span records its name, start and end (``time.perf_counter_ns``,
which is ``CLOCK_MONOTONIC`` and so comparable across processes), its own
id, its parent span and one request id per top-level dataset or suite
call.  Spans stay in memory.  Pool workers forked while tracing inherit
the open span stack, so their spans point at the span that started the
pool; each worker writes its spans to the spill directory when it exits
and :meth:`Tracer.collect` gathers them into the same trace.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

import entrep

#: Module -> public functions timed in the traced run.  ``baselines`` (closed
#: forms, microseconds) and ``cli`` (a thin wrapper) are not timed.
WRAPPED = {
    "experiments": ("run_experiment",),
    "validate": ("run_suite",),
    "arrays": ("pair_entanglement_profile", "steady_state", "disorder_sweep"),
    "gaussian": ("solve_lyapunov", "symplectic_eigenvalues", "log_negativity_gaussian"),
    "output": ("output_covariance", "output_quadrature_map", "peak_frequency"),
    "liouville": ("steady_state_dm", "logneg_qubits", "reduced_pair_dm"),
    "spins": (
        "build_xx_liouvillian",
        "build_effective_general",
        "build_effective_closed_form",
        "full_cavity_atom_oracle",
    ),
}

FUNCTIONS = tuple(f"{module}.{name}" for module, names in WRAPPED.items() for name in names)

#: A call to one of these with no open span starts a new request.
TOP_LEVEL = frozenset({"experiments.run_experiment", "validate.run_suite"})


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    span_id: str
    parent_id: str | None
    request_id: str | None
    extra: Any


def _first_arg(args, kwargs, keyword):
    return args[0] if args else kwargs[keyword]


def _config_key(args, kwargs, result):
    """Identity of the ArrayConfig, to count distinct steady-state inputs."""
    return hashlib.sha1(repr(_first_arg(args, kwargs, "cfg")).encode()).hexdigest()


def _generator_size(args, kwargs, result):
    """``[dim**2, nnz]`` of the generator handed to the steady-state solver."""
    liou = _first_arg(args, kwargs, "liouvillian")
    matrix = liou.matrix
    nnz = matrix.nnz if sp.issparse(matrix) else np.count_nonzero(matrix)
    return [liou.dim**2, int(nnz)]


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(_first_arg(args, kwargs, "cfg").out_path)


#: Per-function readings taken from call arguments and results.
OBSERVERS: dict[str, Callable] = {
    "arrays.steady_state": _config_key,
    "liouville.steady_state_dm": _generator_size,
    "experiments.run_experiment": _csv_bytes,
}


def _entrep_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "entrep" or name.startswith("entrep."))
    ]


class Tracer:
    """Installs span-recording wrappers; usable as a context manager."""

    def __init__(self, spill_dir: str | os.PathLike) -> None:
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self._stack: list[tuple[str, str | None]] = []
        self._restore: list[tuple[Any, str, Callable]] = []
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._pid = os.getpid()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    @property
    def installed(self) -> bool:
        return bool(self._restore)

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer is already installed")
        modules = _entrep_modules()
        for qualified in FUNCTIONS:
            module_name, func_name = qualified.split(".")
            original = getattr(sys.modules[f"{entrep.__name__}.{module_name}"], func_name)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, func: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                parent_id, request_id = tracer._stack[-1]
            else:
                parent_id = None
                request_id = (
                    f"{tracer._pid}:{next(tracer._requests)}" if name in TOP_LEVEL else None
                )
            span_id = f"{tracer._pid}:{next(tracer._ids)}"
            tracer._stack.append((span_id, request_id))
            start = time.perf_counter_ns()
            returned = False
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                extra = observe(args, kwargs, result) if returned and observe else None
                tracer.spans.append(Span(name, start, end, span_id, parent_id, request_id, extra))

        return wrapper

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after the finalizer registry is
        # cleared, so the spill finalizer registered here survives.
        self._pid = os.getpid()
        self.spans = []
        if self.installed:
            multiprocessing.util.Finalize(self, self._spill, exitpriority=10)

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{self._pid}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect(self) -> list[Span]:
        """Own spans plus every spilled worker span; clears both."""
        spans, self.spans = self.spans, []
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.json")):
                spans.extend(Span(*row) for row in json.loads(path.read_text(encoding="utf-8")))
                path.unlink()
        return sorted(spans, key=lambda span: span.start_ns)


def _covered_ns(span: Span, children: list[Span]) -> int:
    """Length of the union of the children's intervals, clipped to ``span``."""
    covered = 0
    cursor = span.start_ns
    intervals = sorted(
        (max(child.start_ns, span.start_ns), min(child.end_ns, span.end_ns))
        for child in children
    )
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-function calls, inclusive and self seconds, plus the layer counts.

    Self time is a span's duration minus the union of the intervals its
    direct wrapped children cover, so concurrent pool-worker spans under
    one parent are not double counted.
    """
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    metrics: dict[str, float] = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.s"] = 0.0
        metrics[f"{name}.self_s"] = 0.0
    for span in spans:
        duration = span.end_ns - span.start_ns
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.s"] += duration / 1e9
        metrics[f"{span.name}.self_s"] += (
            duration - _covered_ns(span, children[span.span_id])
        ) / 1e9

    def extras(name):
        return [span.extra for span in spans if span.name == name and span.extra is not None]

    keys = extras("arrays.steady_state")
    sizes = extras("liouville.steady_state_dm")
    metrics["arrays.steady_state.unique_frac"] = len(set(keys)) / len(keys) if keys else 0.0
    metrics["liouville.steady_state_dm.side_sum"] = sum(side for side, _ in sizes)
    metrics["liouville.steady_state_dm.nnz_sum"] = sum(nnz for _, nnz in sizes)
    metrics["experiments.csv_bytes"] = sum(extras("experiments.run_experiment"))
    return metrics
