"""Deterministic figure datasets: parameter sweeps written as CSV + manifest.

Each named experiment resolves caption defaults, sweeps one parameter,
and emits a :class:`ResultTable` whose rows are ``(sweep value, pair
label, raw entanglement, normalized entanglement, reference
entanglement, *extras)``.  Tables are persisted as UTF-8 CSV (12
significant digits) next to a flat ``key = value`` manifest holding
every resolved parameter, so a dataset is reproducible from its
manifest alone.  Identical ``(config, seed)`` always produce identical
bytes, whatever the worker count.

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
from collections.abc import Callable, Mapping
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
from .errors import ConfigInvalid, ExperimentFailed, ModelError, as_integer, as_seed
from .gaussian import check_drive, normalized_logneg, squeezing_bound
from .liouville import logneg_qubits, reduced_pair_dm, steady_state_dm
from .output import output_pair_spectrum, peak_frequency
from .spins import build_effective_general, build_xx_liouvillian

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
    ``point(value, params, seed)`` evaluates one of them to its rows.  A
    sweep point evaluates one value of ``point_key``, or of the swept
    column when that is empty; fig5b evaluates one ``kappa_end`` and
    returns a row per ``omega``.
    """

    name: str
    sweep_key: str
    defaults: Mapping[str, ParamValue]
    description: str
    sweep: Callable[[Mapping[str, ParamValue]], list]
    point: Callable[..., list[tuple]]
    extra_columns: tuple[str, ...] = ()
    point_key: str = ""

    @property
    def columns(self) -> tuple[str, ...]:
        return (self.sweep_key,) + _BASE_COLUMNS + self.extra_columns


# ---------------------------------------------------------------------------
# grid and config helpers


def _float_list(text: str, key: str) -> list[float]:
    try:
        values = [float(token) for token in str(text).split(",") if token.strip()]
    except ValueError as exc:
        raise ConfigInvalid(f"{key} must be a comma-separated float list: {text!r}") from exc
    if not values:
        raise ConfigInvalid(f"{key} must name at least one value")
    if not all(math.isfinite(v) for v in values):
        raise ConfigInvalid(f"{key} values must be finite: {text!r}")
    return sorted(values)


def _linear_grid(
    p: Mapping[str, ParamValue], lo_key: str, hi_key: str, count_key: str
) -> list[float]:
    lo, hi, n = float(p[lo_key]), float(p[hi_key]), int(p[count_key])
    if n < 2:
        raise ConfigInvalid(f"{count_key} must be >= 2, got {n}")
    if not lo < hi:
        raise ConfigInvalid(f"{lo_key}={lo} must be below {hi_key}={hi}")
    return [float(x) for x in np.linspace(lo, hi, n)]


def _log_grid(p: Mapping[str, ParamValue], lo_key: str, hi_key: str) -> list[float]:
    lo, hi, n = float(p[lo_key]), float(p[hi_key]), int(p["grid_points"])
    if n < 2:
        raise ConfigInvalid(f"grid_points must be >= 2, got {n}")
    if not 0.0 < lo < hi:
        raise ConfigInvalid(f"need 0 < {lo_key} < {hi_key}, got {lo} and {hi}")
    return [float(x) for x in np.logspace(math.log10(lo), math.log10(hi), n)]


def _uniform_config(p: Mapping[str, ParamValue], **over: float) -> ArrayConfig:
    merged = dict(p)
    merged.update(over)
    return ArrayConfig.homogeneous(
        int(merged["n_sites"]),
        eta=float(merged["eta"]),
        kappa=float(merged.get("kappa", 0.0)),
        zeta=float(merged["zeta"]),
        nbar=float(merged["nbar"]),
        mbar=float(merged["mbar"]),
        g=float(merged.get("g", 0.0)),
    )


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


def _spin_pair_rows(rho: np.ndarray, n_pairs: int, sweep_value: float, nbar: float) -> list[tuple]:
    reference = pure_pair_logneg(pair_amplitude(nbar))
    rows = []
    for j in range(n_pairs):
        raw = logneg_qubits(reduced_pair_dm(rho, j, n_pairs + j, 2 * n_pairs))
        rows.append((sweep_value, j + 1, raw, normalized_logneg(raw), reference))
    return rows


# ---------------------------------------------------------------------------
# per-experiment sweep values and point evaluators; a point evaluator gets
# the sweep value, the resolved parameters and the run's seed


def _nonnegative_levels(p, key: str) -> list[float]:
    levels = _float_list(p[key], key)
    if any(level < 0.0 for level in levels):
        raise ConfigInvalid(f"{key} must be non-negative, got {levels}")
    return levels


def _point_fig2a(value, p, seed):
    return _gaussian_rows(_uniform_config(p, kappa=value), value)


def _sweep_fig2b(p):
    lo, hi = int(p["n_sites_min"]), int(p["n_sites_max"])
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
    grid = _linear_grid(p, "nbar_min", "nbar_max", "grid_points")
    if grid[0] < 0.0:
        raise ConfigInvalid(f"nbar_min must be >= 0, got {grid[0]}")
    return grid


def _point_fig2c(value, p, seed):
    # The cross-correlation follows the occupation at its physical maximum.
    return _gaussian_rows(
        _uniform_config(p, nbar=value, mbar=squeezing_bound(value)), value
    )


def _sweep_mbar(p):
    grid = _linear_grid(p, "mbar_min", "mbar_max", "grid_points")
    check_drive(float(p["nbar"]), grid[-1])
    return grid


def _point_fig2d(value, p, seed):
    return _gaussian_rows(_uniform_config(p, mbar=value), value)


def _sweep_log_kappa(p):
    return _log_grid(p, "kappa_end_min", "kappa_end_max")


def _point_fig2e(value, p, seed):
    return _gaussian_rows(_end_damped_config(p, value), value)


def _point_fig3b(value, p, seed):
    cfg = _uniform_config(p, mbar=value)
    rho = steady_state_dm(build_effective_general(cfg))
    return _spin_pair_rows(rho, cfg.n_sites, value, float(p["nbar"]))


def _point_fig3c(value, p, seed):
    liou = build_xx_liouvillian(
        int(p["n_sites"]), float(p["coupling"]), float(p["gamma"]), float(p["nbar"]), value
    )
    rho = steady_state_dm(liou)
    return _spin_pair_rows(rho, int(p["n_sites"]), value, float(p["nbar"]))


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
    return [float(p["kappa_end"])]


def _point_fig5b(value, p, seed):
    cfg = _end_damped_config(p, value)
    spectrum = output_pair_spectrum(cfg, _omega_grid(p))
    drive = driving_entanglement(cfg.nbar, cfg.mbar)
    return [
        (float(omega), cfg.n_sites, raw, norm, drive)
        for omega, raw, norm in zip(spectrum.omegas, spectrum.raw, spectrum.normalized)
    ]


def _sweep_custom(p):
    if float(p["kappa_end"]) < 0.0:
        raise ConfigInvalid(f"kappa_end must be >= 0, got {p['kappa_end']}")
    return [0.0]


def _point_custom(value, p, seed):
    return _gaussian_rows(_with_end_loss(_uniform_config(p), float(p["kappa_end"])), value)


def _point_fig3a(value, p, seed):
    spec = DisorderSpec(
        base=_uniform_config(p), delta_xi=value, samples=int(p["samples"]), seed=seed
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
        description="pair profile of 20 pairs at uniform loss levels",
        defaults={
            "n_sites": 20,
            "eta": 1.0,
            "zeta": 1.0,
            "nbar": 1.0,
            "mbar": _SQRT2,
            "kappa_levels": "0.0,0.02,0.1",
        },
        sweep=lambda p: _nonnegative_levels(p, "kappa_levels"),
        point=_point_fig2a,
    ),
    ExperimentDef(
        name="fig2b",
        sweep_key="n_sites",
        description="pair profile versus array length at uniform loss",
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
        point=_point_fig2b,
    ),
    ExperimentDef(
        name="fig2c",
        sweep_key="nbar",
        description="pair profile versus occupation at maximal cross-correlation",
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
        point=_point_fig2c,
    ),
    ExperimentDef(
        name="fig2d",
        sweep_key="mbar",
        description="pair profile versus cross-correlation at fixed occupation",
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
        point=_point_fig2d,
    ),
    ExperimentDef(
        name="fig2e",
        sweep_key="kappa_end",
        description="pair profile versus loss applied to the far end sites only",
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
        point=_point_fig2e,
    ),
    ExperimentDef(
        name="fig3a",
        sweep_key="delta_xi",
        description="ensemble statistics of the pair profile under hopping disorder",
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
        sweep=lambda p: _nonnegative_levels(p, "delta_levels"),
        point=_point_fig3a,
    ),
    ExperimentDef(
        name="fig3b",
        sweep_key="mbar",
        description="atomic pair entanglement of the effective spin model versus mbar",
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
        point=_point_fig3b,
    ),
    ExperimentDef(
        name="fig3c",
        sweep_key="mbar",
        description="XX-chain pair entanglement versus mbar at coupling = damping",
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
        point=_point_fig3c,
    ),
    ExperimentDef(
        name="fig5a",
        sweep_key="kappa_end",
        description="peak output-field entanglement versus end-site loss",
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
        point=_point_fig5a,
    ),
    ExperimentDef(
        name="fig5b",
        sweep_key="omega",
        point_key="kappa_end",
        description="frequency-resolved output-field entanglement at fixed end loss",
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
        point=_point_fig5b,
    ),
    ExperimentDef(
        name="custom",
        sweep_key="point",
        description="pair profile of a single user-supplied uniform configuration",
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
        point=_point_custom,
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
    try:
        if isinstance(default, float):
            as_float = float(value)
            if not math.isfinite(as_float):
                raise ValueError("not finite")
            return as_float
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(
            f"override {key}={value!r} is not a valid finite {type(default).__name__}"
        ) from exc


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


def _eval_point(job: tuple) -> list[tuple]:
    experiment, point_key, value, params, seed = job
    try:
        return EXPERIMENTS[experiment].point(value, params, seed)
    except ExperimentFailed:
        raise
    except ModelError as exc:
        raise ExperimentFailed(
            f"{experiment}: sweep point {point_key}={value!r} failed "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Compute the full dataset, then atomically write CSV and manifest.

    Nothing is written until every sweep point has succeeded, so a
    failure (reported with the offending sweep point) leaves no partial
    files behind; neither does a CSV or manifest that cannot be written.
    """
    exp = EXPERIMENTS[cfg.experiment]
    params = resolve_params(cfg)
    values = exp.sweep(params)
    point_key = exp.point_key or exp.sweep_key
    jobs = [(cfg.experiment, point_key, value, params, cfg.seed) for value in values]
    # the pool starts every worker at once, so it gets no more than the jobs
    workers = min(cfg.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_eval_point, jobs))
    else:
        chunks = [_eval_point(job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda row: (row[0], row[1]))
    table = ResultTable(
        columns=exp.columns,
        rows=tuple(rows),
        manifest=_build_manifest(cfg, params),
    )
    _write_dataset(cfg.out_path, table.to_csv(), table.manifest_text())
    return table
