"""Frequency-resolved entanglement of the fields leaking out of the arrays.

Every damped cavity leaks into its own port.  An output pair takes port p =
site i of array one and port q = site j of array two; the two arrays never
couple coherently and the field has no within-array anomalous moments, so at
each frequency the pair's symmetrized output spectra form a phase-insensitive
two-mode state.  Quantum regression and input-output theory (Gardiner and
Collett, PRA 31, 3761, 1985) give its three port moments from what
:func:`entrep.arrays.steady_state` returns, the Schur forms of the array
drifts ``L_1``, ``L_2`` and the steady moments ``N_1``, ``N_2``, ``M``::

    R_p(omega) = (L_1 + i omega)^-1 e_i + (L_1 - i omega)^-1 e_i
    n_p = -2 kappa_p Re(N_1[i, :] . R_p)
    n_q = -2 kappa_q Re(N_2[j, :] . R_q)          (R_q likewise, L_2 and e_j)
    m   = -sqrt(kappa_p kappa_q) (R_p . M[:, j] + M[i, :] . R_q)

Both drifts are complex symmetric, so each ``R`` is a row as well as a
column of its resolvent.  :func:`output_covariance` evaluates both ports' ``R``
for a whole frequency grid in one shifted back substitution on the steady
state's Schur forms (:meth:`entrep.gaussian.SchurForm.solve`), and
:func:`entrep.gaussian.pair_logneg` turns them into the pair's negativity
with the same closed form as the steady pairs.

Normalization is fixed by three exact anchors, all pinned in tests: a
vacuum input gives zero port moments at every frequency, a thermal
cavity gives a Lorentzian ``n_p``, and the integral of that Lorentzian
over ``omega / 2 pi`` equals the photon flux ``2 kappa <n>``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import ArrayConfig, SteadyMoments, read_only, steady_state
from .errors import ClosedPort, ConfigInvalid, as_integer, as_real, certify
from .gaussian import normalized_logneg, pair_logneg

__all__ = [
    "OutputSpectrum",
    "PortMoments",
    "first_peak_index",
    "output_covariance",
    "output_pair_spectrum",
    "output_quadrature_map",
    "peak_frequency",
]

def first_peak_index(values: np.ndarray) -> int:
    """Flat index of the first entry within a relative 1e-9 of the largest.

    Entries that close tie, and the first of them in row-major order wins,
    so mirror-image values (the two peaks of an even spectrum, the mirror
    entries of a moment matrix) never trade places with round-off.
    """
    return int(np.flatnonzero(values >= (1.0 - 1e-9) * values.max())[0])


def output_quadrature_map(n_modes: int) -> np.ndarray:
    """4N x 4N map from stacked ladder indices to per-mode quadrature rows.

    Row ``2m`` collects ``a_m + adag_m`` and row ``2m + 1`` collects
    ``-i (a_m - adag_m)``: ``sqrt(2)`` times ``x_m`` and ``p_m`` in the
    package's convention ``p = (a - adag) / (i sqrt(2))``.  The port moments never need it: the 4N output
    oracle in ``tests/quadrature_oracle.py`` rotates its stacked spectra
    with it, and the benchmark tracer times it by name.
    """
    m = np.arange(n_modes)
    theta = np.zeros((2 * n_modes, 2 * n_modes), complex)
    theta[2 * m, m] = theta[2 * m, n_modes + m] = 1.0
    theta.imag[2 * m + 1, m] = -1.0
    theta.imag[2 * m + 1, n_modes + m] = 1.0
    return theta


class PortMoments(NamedTuple):
    """Symmetrized output moments of one port pair, one entry per frequency.

    ``n_p`` and ``n_q`` are the port occupations ``<b^dag b>``, ``m`` the
    cross-moment ``<b_p b_q>``.
    """

    n_p: np.ndarray
    n_q: np.ndarray
    m: np.ndarray


def output_covariance(
    cfg: ArrayConfig, moments: SteadyMoments, pair: tuple[int, int], omegas: np.ndarray
) -> PortMoments:
    """Port moments of an output pair over a frequency grid.

    ``moments`` is ``steady_state(cfg)``, whose Schur forms supply both
    arrays' resolvents; ``pair`` holds one mode of each array, in either
    order.  These three moments are the pair's whole output covariance.
    Raises ConfigInvalid where ``n_p + n_q + 2 |m|``, which bounds every sum
    :func:`entrep.gaussian.pair_logneg` forms of them, overflows.
    """
    p, q = sorted(pair)
    i, j = p, q - cfg.n_sites
    units = np.eye(cfg.n_sites)[[i, j], :, None]
    solved = moments.forms.solve(units, 1j * np.concatenate([omegas, -omegas]))[..., 0]
    r_p, r_q = (solved[: len(omegas)] + solved[len(omegas) :]).swapaxes(0, 1)
    kappa_p, kappa_q = cfg.kappa[p], cfg.kappa[q]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        n_p = -2.0 * kappa_p * (r_p @ moments.n1[i]).real
        n_q = -2.0 * kappa_q * (r_q @ moments.n2[j]).real
        m = -math.sqrt(kappa_p * kappa_q) * (r_p @ moments.m[:, j] + r_q @ moments.m[i])
        total = np.max(n_p + n_q + 2.0 * np.abs(m))
    certify(total, np.finfo(float).max, ConfigInvalid, "port moments overflow: n_p + n_q + 2|m|")
    return PortMoments(n_p, n_q, m)


@dataclass(frozen=True, eq=False)
class OutputSpectrum:
    """Entanglement spectrum of one output port pair; its arrays are read-only."""

    omegas: np.ndarray
    raw: np.ndarray
    pair: tuple[int, int]

    def __post_init__(self) -> None:
        for field in ("omegas", "raw"):
            object.__setattr__(self, field, read_only(getattr(self, field)))

    @property
    def normalized(self) -> np.ndarray:
        """``raw / (1 + raw)`` at every frequency, read-only."""
        return read_only(normalized_logneg(self.raw))


def _require_open_pair(cfg: ArrayConfig, pair: tuple[int, int]) -> tuple[int, int]:
    """``pair`` as exactly two integer ports, both damped, one in each array."""
    try:
        j, k = pair
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"need a pair of two ports, got {pair!r}") from exc
    j, k = (as_integer("port", port, 0, cfg.n_modes) for port in (j, k))
    for port in (j, k):
        if cfg.kappa[port] <= 0.0:
            raise ClosedPort(
                f"mode {port} has no damped port; its output carries no signal"
            )
    if (j < cfg.n_sites) == (k < cfg.n_sites):
        raise ConfigInvalid(f"need one port in each array, got {pair}")
    return j, k


def _prepared(
    cfg: ArrayConfig, omegas, pair: tuple[int, int] | None
) -> tuple[SteadyMoments, np.ndarray, tuple[int, int]]:
    """Checked ports and frequencies, plus the steady state they share."""
    if pair is None:
        pair = (cfg.n_sites - 1, 2 * cfg.n_sites - 1)
    pair = _require_open_pair(cfg, pair)
    grid = np.asarray(omegas, dtype=object)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigInvalid(f"need a non-empty 1-D grid of frequencies, got shape {grid.shape}")
    omegas = np.array([as_real(f"omegas[{i}]", omega) for i, omega in enumerate(grid)])
    return steady_state(cfg), omegas, pair


def output_pair_spectrum(
    cfg: ArrayConfig,
    omegas,
    pair: tuple[int, int] | None = None,
) -> OutputSpectrum:
    """Frequency-resolved entanglement between two output ports.

    ``pair`` defaults to the far ends of the two arrays (0-based modes
    ``N-1`` and ``2N-1``) and must hold one port of each array, in either
    order.  Both ports must be damped and every frequency finite; the
    steady state is solved once for the whole grid.
    """
    moments, omegas, pair = _prepared(cfg, omegas, pair)
    raw = pair_logneg(*output_covariance(cfg, moments, pair, omegas))
    return OutputSpectrum(omegas=omegas, raw=raw, pair=pair)


def peak_frequency(
    cfg: ArrayConfig,
    coarse_omegas,
    pair: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Locate the spectrum maximum: coarse grid scan plus local refinement.

    Returns ``(omega_star, raw_logneg_at_peak)``; the refinement is a
    bounded scalar search between the grid neighbours of the coarse
    argmax.  Grid values tie as in :func:`first_peak_index`, so the
    lowest-frequency one of them wins.  The grid must be strictly
    increasing and hold at least two frequencies.  Scan and refinement
    share one steady state.
    """
    # scipy.optimize costs about a third of the package's import time and
    # only this search uses it, so it loads here rather than with the module
    from scipy.optimize import minimize_scalar

    moments, grid, pair = _prepared(cfg, coarse_omegas, pair)
    if grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise ConfigInvalid("peak search needs a strictly increasing frequency grid")

    def raw_at(omegas: np.ndarray) -> np.ndarray:
        return pair_logneg(*output_covariance(cfg, moments, pair, omegas))

    raw = raw_at(grid)
    best = first_peak_index(raw)
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    result = minimize_scalar(
        lambda omega: -raw_at(np.array([omega]))[0], bounds=(lo, hi), method="bounded"
    )
    if -result.fun >= raw[best]:
        return float(result.x), float(-result.fun)
    return float(grid[best]), float(raw[best])
