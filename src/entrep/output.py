"""Frequency-resolved entanglement of the fields leaking out of the arrays.

Every damped cavity leaks into its own port.  An output pair takes port
p = site i of array one and port q = site j of array two; the two arrays
never couple coherently and the field has no within-array anomalous
moments, so at each frequency the pair's symmetrized output spectra form
a phase-insensitive two-mode state.  Quantum regression and input-output
theory (Gardiner and Collett, PRA 31, 3761, 1985) give its three port
moments from the array drifts ``L_1``, ``L_2`` and the steady moments
``N_1``, ``N_2``, ``M`` of :mod:`entrep.arrays`::

    R_p(omega) = (L_1 + i omega)^-1 e_i + (L_1 - i omega)^-1 e_i
    n_p = -2 kappa_p Re(N_1[i, :] . R_p)
    n_q = -2 kappa_q Re(N_2[j, :] . R_q)          (R_q likewise, L_2 and e_j)
    m   = -sqrt(kappa_p kappa_q) (R_p . M[:, j] + M[i, :] . R_q)

Both drifts are complex symmetric, so each ``R`` is a row as well as a
column of its resolvent.  :func:`output_covariance` evaluates them for a
whole frequency grid with batched N x N solves, and
:func:`entrep.gaussian.pair_logneg` turns them into the pair's
negativity with the same closed form as the steady pairs.

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
from scipy.optimize import minimize_scalar

from .arrays import ArrayConfig, SteadyMoments, ladder_drift, steady_state
from .errors import ClosedPort, ConfigInvalid
from .gaussian import pair_logneg

__all__ = [
    "OutputSpectrum",
    "PortMoments",
    "output_covariance",
    "output_pair_spectrum",
    "output_quadrature_map",
    "peak_frequency",
]

# Grid values within this fraction of the largest one count as the same
# peak height, and the first of them in grid order is refined.  An even
# spectrum then reports the same one of its two mirror peaks whatever
# the rounding of the two values.
_PEAK_TIE_RTOL = 1e-9


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


def _resolvent_sum(drift: np.ndarray, site: int, omegas: np.ndarray) -> np.ndarray:
    """``(L + i omega)^-1 e + (L - i omega)^-1 e`` for every omega, one row each."""
    n = drift.shape[0]
    shifts = 1j * np.concatenate([omegas, -omegas])
    stack = drift + shifts[:, None, None] * np.eye(n)
    unit = np.zeros((len(shifts), n, 1), complex)
    unit[:, site] = 1.0
    solved = np.linalg.solve(stack, unit)[..., 0]
    return solved[: len(omegas)] + solved[len(omegas) :]


def output_covariance(
    cfg: ArrayConfig, moments: SteadyMoments, pair: tuple[int, int], omegas: np.ndarray
) -> PortMoments:
    """Port moments of an output pair over a frequency grid.

    ``moments`` is ``steady_state(cfg)``; ``pair`` holds one mode of each
    array, in either order.  These three moments are the pair's whole
    output covariance.
    """
    p, q = sorted(pair)
    n = cfg.n_sites
    i, j = p, q - n
    ladder = ladder_drift(cfg)
    r_p = _resolvent_sum(ladder[:n, :n], i, omegas)
    r_q = _resolvent_sum(ladder[n:, n:], j, omegas)
    kappa_p, kappa_q = cfg.kappa[p], cfg.kappa[q]
    return PortMoments(
        n_p=-2.0 * kappa_p * (r_p @ moments.n1[i]).real,
        n_q=-2.0 * kappa_q * (r_q @ moments.n2[j]).real,
        m=-math.sqrt(kappa_p * kappa_q) * (r_p @ moments.m[:, j] + r_q @ moments.m[i]),
    )


@dataclass(frozen=True, eq=False)
class OutputSpectrum:
    """Entanglement spectrum of one output port pair."""

    omegas: np.ndarray
    raw: np.ndarray
    normalized: np.ndarray
    pair: tuple[int, int]

    @property
    def peak_raw(self) -> float:
        return float(self.raw.max())


def _require_open_pair(cfg: ArrayConfig, pair: tuple[int, int]) -> tuple[int, int]:
    j, k = pair
    for port in (j, k):
        if not 0 <= port < cfg.n_modes:
            raise ConfigInvalid(f"port {port} outside the {cfg.n_modes}-mode register")
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
    omegas = np.asarray(omegas, float)
    if omegas.ndim != 1 or omegas.size == 0 or not np.isfinite(omegas).all():
        raise ConfigInvalid("need a non-empty 1-D grid of finite frequencies")
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
    return OutputSpectrum(omegas=omegas, raw=raw, normalized=raw / (1.0 + raw), pair=pair)


def peak_frequency(
    cfg: ArrayConfig,
    coarse_omegas,
    pair: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Locate the spectrum maximum: coarse grid scan plus local refinement.

    Returns ``(omega_star, raw_logneg_at_peak)``; the refinement is a
    bounded scalar search between the grid neighbours of the coarse
    argmax.  Grid values within a relative 1e-9 of the maximum tie, and
    the lowest-frequency one of them wins.  The grid must be strictly
    increasing and hold at least two frequencies.  Scan and refinement
    share one steady state.
    """
    moments, grid, pair = _prepared(cfg, coarse_omegas, pair)
    if grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise ConfigInvalid("peak search needs a strictly increasing frequency grid")

    def raw_at(omegas: np.ndarray) -> np.ndarray:
        return pair_logneg(*output_covariance(cfg, moments, pair, omegas))

    raw = raw_at(grid)
    best = int(np.flatnonzero(raw >= (1.0 - _PEAK_TIE_RTOL) * raw.max())[0])
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    result = minimize_scalar(
        lambda omega: -raw_at(np.array([omega]))[0], bounds=(lo, hi), method="bounded"
    )
    if -result.fun >= raw[best]:
        return float(result.x), float(-result.fun)
    return float(grid[best]), float(raw[best])
