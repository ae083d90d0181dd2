"""Frequency-resolved correlations of the fields leaking out of the arrays.

One configuration fixes one stationary bare field (:func:`stationary_field`):
the doubled drift ``M = diag(L, conj L)`` and the steady moments
``A0 = <abar abar^T>``, both in the stacked ladder ordering ``abar =
(a_1..a_2N, adag_1..adag_2N)``, plus the port gain ``sqrt(kappa)`` of each
stacked index.  Quantum regression and input-output theory (Gardiner and
Collett, PRA 31, 3761, 1985) then give every output spectrum at once::

    S(omega) = E - 2 G [(M + i omega)^-1 N + N (M - i omega)^-1] G

with ``G = diag(gains)``, ``E`` the identity in the ``<a adag>`` quarter
(the output commutator) and ``N = A0 - E`` the normally ordered moments.
The covariance per frequency is ``S`` symmetrized and mapped back to
interleaved quadratures, so the Gaussian entanglement tools apply
unchanged.

Normalization is fixed once by two exact anchors, both pinned in tests:
a vacuum input gives the identity covariance at every frequency, and the
integrated photon spectrum out of a thermal cavity equals its damping
rate times twice the occupation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

from .arrays import ArrayConfig, ladder_drift, steady_state
from .errors import ClosedPort, ConfigInvalid, NonPhysicalResult, SingularResolvent
from .gaussian import (
    QuadratureCovariance,
    log_negativity_gaussian,
    normalized_logneg,
    reduce_to_pair,
)

__all__ = [
    "OutputSpectrum",
    "StationaryField",
    "assemble_output_correlations",
    "output_covariance",
    "output_pair_spectrum",
    "output_quadrature_map",
    "peak_frequency",
    "stationary_field",
]

_IMAG_RESIDUE_TOL = 1e-9

# Grid values within this fraction of the largest one count as the same
# peak height, and the first of them in grid order is refined.  An even
# spectrum then reports the same one of its two mirror peaks whatever
# the rounding of the two values.
_PEAK_TIE_RTOL = 1e-9


def output_quadrature_map(n_modes: int) -> np.ndarray:
    """4N x 4N map from stacked ladder indices to per-mode quadrature rows.

    Row ``2m`` collects ``a_m + adag_m`` and row ``2m + 1`` collects
    ``i (a_m - adag_m)``.
    """
    m = np.arange(n_modes)
    theta = np.zeros((2 * n_modes, 2 * n_modes), complex)
    theta[2 * m, m] = theta[2 * m, n_modes + m] = 1.0
    theta.imag[2 * m + 1, m] = 1.0
    theta.imag[2 * m + 1, n_modes + m] = -1.0
    return theta


@dataclass(frozen=True, eq=False)
class StationaryField:
    """Stationary bare field of one configuration, in the stacked ordering.

    ``drift`` is ``M = diag(L, conj L)``, ``moments`` the steady
    ``A0 = <abar abar^T>`` and ``gains`` the port gain ``sqrt(kappa)`` of
    each of the 4N stacked indices.  ``quadrature_map`` is
    :func:`output_quadrature_map` for the field's mode count, built once.
    """

    drift: np.ndarray
    moments: np.ndarray
    gains: np.ndarray
    quadrature_map: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0] // 2


def stationary_field(cfg: ArrayConfig) -> StationaryField:
    """Doubled drift, steady stacked moments and port gains of a bare field.

    Solves the Gaussian steady state once and assembles ``A0`` from its
    moments: ``<a a> = [[0, M], [M^T, 0]]``, ``<adag a> = diag(N_1, N_2)``,
    ``<a adag> = I + <adag a>^T`` and ``<adag adag> = conj <a a>``.  Raises
    ``ConfigInvalid`` when an atom coupling is on.
    """
    ladder = ladder_drift(cfg)
    moments = steady_state(cfg)
    zero = np.zeros_like(moments.m)
    pairs = np.block([[zero, moments.m], [moments.m.T, zero]])
    normal = sla.block_diag(moments.n1, moments.n2)
    return StationaryField(
        drift=sla.block_diag(ladder, ladder.conj()),
        moments=np.block([[pairs, np.eye(cfg.n_modes) + normal.T], [normal, pairs.conj()]]),
        gains=np.tile(np.sqrt(np.asarray(cfg.kappa, float)), 2),
        quadrature_map=output_quadrature_map(cfg.n_modes),
    )


def assemble_output_correlations(field: StationaryField, omega: float) -> np.ndarray:
    """Stacked output spectra ``S(omega)`` from the stationary field.

    Two resolvent solves of the doubled drift around the normally
    ordered moments, sandwiched between the port gains; the ``<a adag>``
    quarter carries the extra identity enforced by the output
    commutator.  The resolvent terms carry weight 2, which the exact
    photon-flux anchor pins.
    """
    n = field.n_modes
    commutator = np.zeros_like(field.moments)
    commutator[:n, n:] = np.eye(n)
    normal = field.moments - commutator
    shift = 1j * omega * np.eye(2 * n)
    try:
        forward = np.linalg.solve(field.drift + shift, normal)
        reverse = np.linalg.solve((field.drift - shift).T, normal.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(
            f"field drift resolvent is singular at omega={omega}"
        ) from exc
    gains = field.gains
    return commutator - 2.0 * gains[:, None] * (forward + reverse) * gains


def output_covariance(field: StationaryField, omega: float) -> QuadratureCovariance:
    """Frequency-resolved output covariance in interleaved quadratures.

    Symmetrizes the stacked spectra and rotates them with the quadrature
    map; a vacuum input yields the identity at every frequency with no
    further normalization.  Raises when the imaginary residue exceeds
    1e-9.
    """
    stacked = assemble_output_correlations(field, omega)
    theta = field.quadrature_map
    gamma = 0.5 * theta @ (stacked + stacked.T) @ theta.T
    residue = float(np.abs(gamma.imag).max())
    if residue > _IMAG_RESIDUE_TOL * max(1.0, np.abs(gamma.real).max()):
        raise NonPhysicalResult(
            f"output covariance has imaginary residue {residue:.2e} at omega={omega}"
        )
    return QuadratureCovariance(sigma=gamma.real)


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
    if j == k:
        raise ConfigInvalid(f"need two distinct ports, got {pair}")
    return j, k


def _prepared(
    cfg: ArrayConfig, omegas, pair: tuple[int, int] | None
) -> tuple[StationaryField, np.ndarray, tuple[int, int]]:
    """Checked ports and frequencies, plus the stationary field they share."""
    if pair is None:
        pair = (cfg.n_sites - 1, 2 * cfg.n_sites - 1)
    pair = _require_open_pair(cfg, pair)
    omegas = np.asarray(omegas, float)
    if omegas.ndim != 1 or omegas.size == 0 or not np.isfinite(omegas).all():
        raise ConfigInvalid("need a non-empty 1-D grid of finite frequencies")
    return stationary_field(cfg), omegas, pair


def _pair_logneg(field: StationaryField, omega: float, pair: tuple[int, int]) -> float:
    return log_negativity_gaussian(reduce_to_pair(output_covariance(field, omega), *pair))


def output_pair_spectrum(
    cfg: ArrayConfig,
    omegas,
    pair: tuple[int, int] | None = None,
) -> OutputSpectrum:
    """Frequency-resolved entanglement between two output ports.

    ``pair`` defaults to the far ends of the two arrays (0-based modes
    ``N-1`` and ``2N-1``).  Both ports must be damped and every frequency
    finite; the steady state is solved once for the whole grid.
    """
    field, omegas, pair = _prepared(cfg, omegas, pair)
    raw = np.array([_pair_logneg(field, float(omega), pair) for omega in omegas])
    normalized = np.array([normalized_logneg(value) for value in raw])
    return OutputSpectrum(omegas=omegas, raw=raw, normalized=normalized, pair=pair)


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
    share one stationary field.
    """
    field, grid, pair = _prepared(cfg, coarse_omegas, pair)
    if grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise ConfigInvalid("peak search needs a strictly increasing frequency grid")
    raw = np.array([_pair_logneg(field, float(omega), pair) for omega in grid])
    best = int(np.flatnonzero(raw >= (1.0 - _PEAK_TIE_RTOL) * raw.max())[0])
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    result = minimize_scalar(
        lambda omega: -_pair_logneg(field, omega, pair), bounds=(lo, hi), method="bounded"
    )
    if -result.fun >= raw[best]:
        return float(result.x), float(-result.fun)
    return float(grid[best]), float(raw[best])
