"""Deterministic figure datasets: parameter sweeps written as CSV + manifest.

Each named experiment resolves caption defaults, sweeps one parameter,
and emits a :class:`ResultTable` whose rows are ``(sweep value, pair
label, raw entanglement, normalized entanglement, reference
entanglement, *extras)``.  Tables are persisted as UTF-8 CSV (12
significant digits) next to a flat ``key = value`` manifest holding
every resolved parameter, so a dataset is reproducible from its
manifest alone.  Identical ``(config, seed)`` always produce identical
bytes, whatever the worker count.

A run splits the sweep into one chunk per worker, dealing the points
round-robin (point ``i`` to chunk ``i mod W``, ``W`` the smaller of the
worker count and the number of points), so that a sweep whose cost grows
along it, like fig2b's chain length, spreads evenly.  Each experiment
evaluates a chunk at once: the spin sweeps (fig3b, fig3c) vary only the
drive's ``mbar``, to which their generators are affine, and build what
does not depend on it once per chunk, from the resolved parameters
alone, so that a point's result does not depend on its chunk.  The other
experiments evaluate a chunk point by point.  A chunk evaluates its
points in sweep order and stops at its first failing one; the run
reports the failing point that comes first in the sweep, which is the
same whatever the worker count, and writes nothing.

Experiment ids and their swept parameter:

========  ==============================================================
id        sweep
========  ==============================================================
fig2a     uniform per-site loss ``kappa0`` (level list), 20 pairs
fig2b     array length ``n_sites`` at fixed uniform loss
fig2c     thermal occupation ``nbar`` at maximal cross-correlation
fig2d     cross-correlation ``mbar`` at fixed ``nbar``
fig2e     end-site loss ``kappa_end`` (log grid), all other losses zero
fig3a     hopping-disorder width ``delta_xi`` (ensemble statistics)
fig3b     ``mbar`` for the effective spin model of weakly coupled atoms
fig3c     ``mbar`` for the dissipatively driven XX chain
fig5a     ``kappa_end``; rows hold the peak output-field entanglement
fig5b     output frequency ``omega`` at fixed end-site loss
custom    no sweep; pair profile of a user-supplied uniform config
========  ==============================================================
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Callable, Iterator, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Union

import numpy as np

from .arrays import (
    ArrayConfig,
    DisorderSpec,
    disorder_sweep,
    pair_entanglement_profile,
)
from .baselines import driving_entanglement, pair_amplitude, pure_pair_logneg
from .errors import ConfigInvalid, ExperimentFailed, ModelError, as_integer, as_real, as_seed
from .gaussian import check_drive, normalized_logneg, squeezing_bound
from .liouville import logneg_qubits, reduced_pair_dm
from .output import output_pair_spectrum, peak_frequency
from .spins import effective_drive_sweep, xx_drive_sweep

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentDef",
    "ResultTable",
    "read_config_file",
    "resolve_params",
    "run_experiment",
]

_SQRT2 = math.sqrt(2.0)

_BASE_COLUMNS = ("pair", "e_raw", "e_normalized", "e_reference")

ParamValue = Union[int, float, str]


# ---------------------------------------------------------------------------
# experiment table


@dataclass(frozen=True)
class ExperimentDef:
    """Static description of one named experiment.

    ``sweep`` maps the resolved parameters to the sweep values, and
    ``evaluate(values, params, seed)`` evaluates a chunk of them: it
    returns an iterator that yields each value's rows in turn, doing a
    point's work only when its rows are asked for, so that a failure
    belongs to the point being evaluated (work shared by the chunk is done
    with its first point).  A sweep point evaluates one value of
    ``point_key``, or of the swept column when that is empty; fig5b
    evaluates one ``kappa_end`` and returns a row per ``omega``.
    """

    name: str
    sweep_key: str
    defaults: Mapping[str, ParamValue]
    sweep: Callable[[Mapping[str, ParamValue]], list]
    evaluate: Callable[..., Iterator[list[tuple]]]
    extra_columns: tuple[str, ...] = ()
    point_key: str = ""

    @property
    def columns(self) -> tuple[str, ...]:
        return (self.sweep_key,) + _BASE_COLUMNS + self.extra_columns


# ---------------------------------------------------------------------------
# grid and config helpers


def _levels(p: Mapping[str, ParamValue], key: str) -> list[float]:
    """The comma-separated list ``p[key]``, sorted, each entry a finite real >= 0."""
    levels = sorted(as_real(key, token, 0.0) for token in str(p[key]).split(",") if token.strip())
    if not levels:
        raise ConfigInvalid(f"{key} must name at least one value")
    return levels


def _linear_grid(
    p: Mapping[str, ParamValue], lo_key: str, hi_key: str, count_key: str
) -> list[float]:
    lo, hi, n = p[lo_key], p[hi_key], p[count_key]
    if n < 2:
        raise ConfigInvalid(f"{count_key} must be >= 2, got {n}")
    if not lo < hi:
        raise ConfigInvalid(f"{lo_key}={lo} must be below {hi_key}={hi}")
    return [float(x) for x in np.linspace(lo, hi, n)]


def _log_grid(p: Mapping[str, ParamValue], lo_key: str, hi_key: str) -> list[float]:
    lo = as_real(lo_key, p[lo_key], 0.0, strict=True)
    hi, n = p[hi_key], p["grid_points"]
    if n < 2:
        raise ConfigInvalid(f"grid_points must be >= 2, got {n}")
    if not lo < hi:
        raise ConfigInvalid(f"{lo_key}={lo} must be below {hi_key}={hi}")
    return [float(x) for x in np.logspace(math.log10(lo), math.log10(hi), n)]


def _uniform_config(p: Mapping[str, ParamValue], **over: float) -> ArrayConfig:
    """The uniform arrays of ``p``, ``over`` replacing its values; no ``kappa`` or ``g`` is 0."""
    merged = {**p, **over}
    keys = ("eta", "kappa", "zeta", "nbar", "mbar", "g")
    rates = {key: merged[key] for key in keys if key in merged}
    return ArrayConfig.homogeneous(merged["n_sites"], **rates)


def _with_end_loss(cfg: ArrayConfig, kappa_end: float) -> ArrayConfig:
    """``cfg`` with ``kappa_end`` added to the loss of both far end sites."""
    n = cfg.n_sites
    kappa = list(cfg.kappa)
    kappa[n - 1] += kappa_end
    kappa[2 * n - 1] += kappa_end
    return replace(cfg, kappa=tuple(kappa))


def _end_damped_config(p: Mapping[str, ParamValue], kappa_end: float) -> ArrayConfig:
    return _with_end_loss(_uniform_config(p, kappa=0.0), kappa_end)


def _gaussian_rows(cfg: ArrayConfig, sweep_value: float) -> list[tuple]:
    profile = pair_entanglement_profile(cfg)
    return [
        (sweep_value, pair, raw, norm, profile.drive_raw)
        for pair, raw, norm in zip(profile.pair_labels, profile.raw, profile.normalized)
    ]


# ---------------------------------------------------------------------------
# per-experiment sweep values and evaluators; a point evaluator gets the
# sweep value, the resolved parameters and the run's seed, and a chunk
# evaluator the chunk's values in their place


def _pointwise(point: Callable[..., list[tuple]]) -> Callable[..., Iterator[list[tuple]]]:
    """The chunk evaluator that evaluates each value by ``point(value, params, seed)``."""

    def evaluate(values, p, seed):
        return (point(value, p, seed) for value in values)

    return evaluate


def _point_fig2a(value, p, seed):
    return _gaussian_rows(_uniform_config(p, kappa=value), value)


def _sweep_fig2b(p):
    lo, hi = p["n_sites_min"], p["n_sites_max"]
    if not 1 <= lo <= hi:
        raise ConfigInvalid(f"need 1 <= n_sites_min <= n_sites_max, got {lo} and {hi}")
    return list(range(lo, hi + 1))


def _point_fig2b(value, p, seed):
    return _gaussian_rows(_uniform_config(p, n_sites=value), value)


#: the one cross-correlation rule fig2c applies; its manifest records it
_FIG2C_MBAR_RULE = "sqrt(nbar*(nbar+1))"


def _sweep_fig2c(p):
    if p["mbar_rule"] != _FIG2C_MBAR_RULE:
        raise ConfigInvalid(
            f"fig2c applies mbar_rule = {_FIG2C_MBAR_RULE} only, got {p['mbar_rule']!r}"
        )
    as_real("nbar_min", p["nbar_min"], 0.0)
    return _linear_grid(p, "nbar_min", "nbar_max", "grid_points")


def _point_fig2c(value, p, seed):
    # The cross-correlation follows the occupation at its physical maximum.
    return _gaussian_rows(
        _uniform_config(p, nbar=value, mbar=squeezing_bound(value)), value
    )


def _sweep_mbar(p):
    grid = _linear_grid(p, "mbar_min", "mbar_max", "grid_points")
    check_drive(p["nbar"], grid[-1])
    return grid


def _point_fig2d(value, p, seed):
    return _gaussian_rows(_uniform_config(p, mbar=value), value)


def _sweep_log_kappa(p):
    return _log_grid(p, "kappa_end_min", "kappa_end_max")


def _point_fig2e(value, p, seed):
    return _gaussian_rows(_end_damped_config(p, value), value)


def _spin_rows(values, p, states: Iterator[np.ndarray]):
    """Each value's pair rows, from its state in ``states``."""
    n_pairs = p["n_sites"]
    reference = pure_pair_logneg(pair_amplitude(p["nbar"]))
    for value, rho in zip(values, states):
        raws = [logneg_qubits(reduced_pair_dm(rho, j, n_pairs + j)) for j in range(n_pairs)]
        yield [(value, j + 1, raw, normalized_logneg(raw), reference) for j, raw in enumerate(raws)]


def _chunk_fig3b(values, p, seed):
    yield from _spin_rows(values, p, effective_drive_sweep(_uniform_config(p), values))


def _chunk_fig3c(values, p, seed):
    states = xx_drive_sweep(p["n_sites"], p["coupling"], p["gamma"], p["nbar"], values)
    yield from _spin_rows(values, p, states)


def _omega_grid(p):
    return _linear_grid(p, "omega_min", "omega_max", "omega_points")


def _sweep_fig5a(p):
    _omega_grid(p)
    return _sweep_log_kappa(p)


def _point_fig5a(value, p, seed):
    cfg = _end_damped_config(p, value)
    omega_star, raw = peak_frequency(cfg, _omega_grid(p))
    drive = driving_entanglement(cfg.nbar, cfg.mbar)
    return [(value, cfg.n_sites, raw, normalized_logneg(raw), drive, omega_star)]


def _sweep_fig5b(p):
    _omega_grid(p)
    return [p["kappa_end"]]


def _point_fig5b(value, p, seed):
    cfg = _end_damped_config(p, value)
    spectrum = output_pair_spectrum(cfg, _omega_grid(p))
    drive = driving_entanglement(cfg.nbar, cfg.mbar)
    return [
        (float(omega), cfg.n_sites, raw, norm, drive)
        for omega, raw, norm in zip(spectrum.omegas, spectrum.raw, spectrum.normalized)
    ]


def _sweep_custom(p):
    as_real("kappa_end", p["kappa_end"], 0.0)
    return [0.0]


def _point_custom(value, p, seed):
    return _gaussian_rows(_with_end_loss(_uniform_config(p), p["kappa_end"]), value)


def _point_fig3a(value, p, seed):
    spec = DisorderSpec(
        base=_uniform_config(p), delta_xi=value, samples=p["samples"], seed=seed
    )
    result = disorder_sweep(spec)
    return [
        (
            value,
            pair,
            float(result.raw_mean[i]),
            float(result.norm_mean[i]),
            result.drive_raw,
            float(result.norm_min[i]),
            float(result.norm_max[i]),
            float(result.norm_sem[i]),
        )
        for i, pair in enumerate(result.pair_labels)
    ]


_DEFINITIONS = (
    ExperimentDef(
        name="fig2a",
        sweep_key="kappa0",
        defaults={
            "n_sites": 20,
            "eta": 1.0,
            "zeta": 1.0,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "kappa_levels": "0.0,0.02,0.1",
        },
        sweep=lambda p: _levels(p, "kappa_levels"),
        evaluate=_pointwise(_point_fig2a),
    ),
    ExperimentDef(
        name="fig2b",
        sweep_key="n_sites",
        defaults={
            "n_sites_min": 1,
            "n_sites_max": 30,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.1,
            "nbar": 1.0,
            "mbar": _SQRT2,
        },
        sweep=_sweep_fig2b,
        evaluate=_pointwise(_point_fig2b),
    ),
    ExperimentDef(
        name="fig2c",
        sweep_key="nbar",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.1,
            "nbar_min": 0.0,
            "nbar_max": 3.0,
            "grid_points": 25,
            "mbar_rule": _FIG2C_MBAR_RULE,
        },
        sweep=_sweep_fig2c,
        evaluate=_pointwise(_point_fig2c),
    ),
    ExperimentDef(
        name="fig2d",
        sweep_key="mbar",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.1,
            "nbar": 1.0,
            "mbar_min": 1.0,
            "mbar_max": _SQRT2,
            "grid_points": 25,
        },
        sweep=_sweep_mbar,
        evaluate=_pointwise(_point_fig2d),
    ),
    ExperimentDef(
        name="fig2e",
        sweep_key="kappa_end",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 1.0,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "kappa_end_min": 0.01,
            "kappa_end_max": 100.0,
            "grid_points": 31,
        },
        sweep=_sweep_log_kappa,
        evaluate=_pointwise(_point_fig2e),
    ),
    ExperimentDef(
        name="fig3a",
        sweep_key="delta_xi",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.02,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "delta_levels": "0.0,0.2,0.5",
            "samples": 500,
        },
        extra_columns=("e_norm_min", "e_norm_max", "e_norm_sem"),
        sweep=lambda p: _levels(p, "delta_levels"),
        evaluate=_pointwise(_point_fig3a),
    ),
    ExperimentDef(
        name="fig3b",
        sweep_key="mbar",
        defaults={
            "n_sites": 3,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.0,
            "g": 0.01,
            "nbar": 1.0,
            "mbar_min": 1.0,
            "mbar_max": _SQRT2,
            "grid_points": 25,
        },
        sweep=_sweep_mbar,
        evaluate=_chunk_fig3b,
    ),
    ExperimentDef(
        name="fig3c",
        sweep_key="mbar",
        defaults={
            "n_sites": 3,
            "coupling": 1.0,
            "gamma": 1.0,
            "nbar": 1.0,
            "mbar_min": 1.0,
            "mbar_max": _SQRT2,
            "grid_points": 25,
        },
        sweep=_sweep_mbar,
        evaluate=_chunk_fig3c,
    ),
    ExperimentDef(
        name="fig5a",
        sweep_key="kappa_end",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 0.5,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "kappa_end_min": 0.01,
            "kappa_end_max": 100.0,
            "grid_points": 31,
            "omega_min": -3.0,
            "omega_max": 3.0,
            "omega_points": 121,
        },
        extra_columns=("omega_peak",),
        sweep=_sweep_fig5a,
        evaluate=_pointwise(_point_fig5a),
    ),
    ExperimentDef(
        name="fig5b",
        sweep_key="omega",
        point_key="kappa_end",
        defaults={
            "n_sites": 10,
            "eta": 1.0,
            "zeta": 0.5,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "kappa_end": 0.4,
            "omega_min": -3.0,
            "omega_max": 3.0,
            "omega_points": 1201,
        },
        sweep=_sweep_fig5b,
        evaluate=_pointwise(_point_fig5b),
    ),
    ExperimentDef(
        name="custom",
        sweep_key="point",
        defaults={
            "n_sites": 2,
            "eta": 1.0,
            "zeta": 1.0,
            "kappa": 0.0,
            "kappa_end": 0.0,
            "nbar": 0.0,
            "mbar": 0.0,
        },
        sweep=_sweep_custom,
        evaluate=_pointwise(_point_custom),
    ),
)

EXPERIMENTS: dict[str, ExperimentDef] = {exp.name: exp for exp in _DEFINITIONS}

# ---------------------------------------------------------------------------
# configuration resolution


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully specified experiment request.

    ``overrides`` may replace any key of the experiment's defaults; an
    unknown key is rejected so typos cannot silently run the wrong
    sweep.  ``out`` defaults to ``<experiment>.csv`` in the working
    directory.  ``seed`` and ``workers`` may be given as integer strings
    (as a config file holds them) and are stored as ints; a fractional or
    non-numeric value is refused.
    """

    experiment: str
    overrides: Mapping[str, ParamValue] = field(default_factory=dict)
    out: str | Path | None = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigInvalid(f"unknown experiment {self.experiment!r}; choose from {known}")
        unknown = set(self.overrides) - set(EXPERIMENTS[self.experiment].defaults)
        if unknown:
            raise ConfigInvalid(
                f"unknown override keys for {self.experiment}: {sorted(unknown)}"
            )
        object.__setattr__(self, "seed", as_seed(self.seed))
        object.__setattr__(self, "workers", as_integer("workers", self.workers, 1))
        if manifest_path_for(self.out_path) == self.out_path:
            raise ConfigInvalid(f"out {self.out_path} is its own manifest path; use another suffix")

    @property
    def out_path(self) -> Path:
        return Path(self.out) if self.out is not None else Path(f"{self.experiment}.csv")


def _coerce(key: str, value: ParamValue, default: ParamValue) -> ParamValue:
    if isinstance(default, int) and not isinstance(default, bool):
        return as_integer(key, value)
    if isinstance(default, float):
        return as_real(key, value)
    return str(value)


def resolve_params(cfg: ExperimentConfig) -> dict[str, ParamValue]:
    """Defaults merged with overrides, coerced to the defaults' types.

    An integer parameter takes the rule of ``seed`` and ``workers``: a
    string must spell an int exactly and a number must be whole, so no
    value is rounded on its way in.
    """
    defaults = EXPERIMENTS[cfg.experiment].defaults
    return {
        key: _coerce(key, cfg.overrides.get(key, default), default)
        for key, default in defaults.items()
    }


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` document (UTF-8).

    ``#`` starts a comment, whether it opens the line or trails a value.
    """
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in entries:
            raise ConfigInvalid(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# table assembly and persistence


@dataclass(frozen=True)
class ResultTable:
    """Sorted sweep records plus the manifest that reproduces them."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    manifest: tuple[tuple[str, str], ...]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            cells = []
            for column, value in zip(self.columns, row):
                if column == "pair" or isinstance(value, int):
                    cells.append(str(int(value)))
                else:
                    cells.append(f"{float(value):.11e}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def manifest_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.manifest)


def _manifest_value(value: ParamValue) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _build_manifest(cfg: ExperimentConfig, params: Mapping[str, ParamValue]) -> tuple:
    entries = [("experiment", cfg.experiment), ("seed", str(cfg.seed))]
    entries.extend((key, _manifest_value(params[key])) for key in sorted(params))
    return tuple(entries)


def _write_dataset(out: Path, csv_text: str, manifest_text: str) -> None:
    """Write the CSV and its manifest via temporary files: both or neither.

    Both texts reach disk before either target is replaced, and the CSV
    is placed last; if it cannot be, the manifest just placed is removed.
    An OSError becomes ConfigInvalid naming the path that failed.
    """
    path = Path(out)
    targets = ((manifest_path_for(path), manifest_text), (path, csv_text))
    staged, placed = [], []
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        for path, text in targets:
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        for tmp, (path, _) in zip(staged, targets):
            os.replace(tmp, path)
            placed.append(path)
    except OSError as exc:
        for done in placed:
            os.unlink(done)
        raise ConfigInvalid(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def manifest_path_for(out_path: str | Path) -> Path:
    return Path(out_path).with_suffix(".manifest")


def _eval_chunk(job: tuple) -> tuple[list[tuple], tuple[int, ExperimentFailed] | None]:
    """Rows of a chunk's points, and its failure as ``(sweep index, error)`` or None.

    The chunk's points are evaluated in sweep order up to the first that
    fails; its error, a ModelError, is returned as an ExperimentFailed
    naming the point, so that the caller can pick the first failure in
    the sweep among all chunks.
    """
    experiment, point_key, first, stride, values, params, seed = job
    results = EXPERIMENTS[experiment].evaluate(values, params, seed)
    rows = []
    for offset, value in enumerate(values):
        try:
            rows.extend(next(results))
        except ModelError as exc:
            failure = ExperimentFailed(
                f"{experiment}: sweep point {point_key}={value!r} failed "
                f"({type(exc).__name__}: {exc})"
            )
            failure.__cause__ = exc
            return rows, (first + offset * stride, failure)
    return rows, None


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Compute the full dataset, then atomically write CSV and manifest.

    Nothing is written until every sweep point has succeeded, so a
    failure (reported with the first failing sweep point in sweep order)
    leaves no partial files behind; neither does a CSV or manifest that
    cannot be written.
    """
    exp = EXPERIMENTS[cfg.experiment]
    params = resolve_params(cfg)
    values = exp.sweep(params)
    point_key = exp.point_key or exp.sweep_key
    # one chunk per worker, the points dealt round-robin; the pool starts
    # every worker at once, so it gets no more than the points
    n_chunks = min(cfg.workers, len(values))
    jobs = [
        (cfg.experiment, point_key, first, n_chunks, values[first::n_chunks], params, cfg.seed)
        for first in range(n_chunks)
    ]
    if n_chunks > 1:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            chunks = list(pool.map(_eval_chunk, jobs))
    else:
        chunks = [_eval_chunk(job) for job in jobs]
    failures = [failure for _, failure in chunks if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = [row for chunk_rows, _ in chunks for row in chunk_rows]
    rows.sort(key=lambda row: (row[0], row[1]))
    table = ResultTable(
        columns=exp.columns,
        rows=tuple(rows),
        manifest=_build_manifest(cfg, params),
    )
    _write_dataset(cfg.out_path, table.to_csv(), table.manifest_text())
    return table
