"""Frequency-resolved correlations of the fields leaking out of the arrays.

The stationary intracavity state fixes two-time correlations through the
drift (quantum regression); input-output theory then turns them into
output spectra at the damped ports.  Everything here works in the
stacked ladder ordering ``abar = (a_1..a_2N, adag_1..adag_2N)``; the
final covariance-per-frequency is mapped back to interleaved quadratures
so the Gaussian entanglement tools apply unchanged.

Normalization is fixed once by two exact anchors, both pinned in tests:
a vacuum input gives the identity covariance at every frequency, and the
integrated photon spectrum out of a thermal cavity equals its damping
rate times twice the occupation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .arrays import ArrayConfig, drift_matrices, steady_state
from .errors import ClosedPort, ConfigInvalid, NonPhysicalResult, SingularResolvent
from .gaussian import (
    QuadratureCovariance,
    log_negativity_gaussian,
    normalized_logneg,
    reduce_to_pair,
)

__all__ = [
    "LadderCorrelations",
    "OutputCorrelations",
    "OutputSpectrum",
    "assemble_output_correlations",
    "ladder_correlations_from_cm",
    "output_covariance",
    "output_pair_spectrum",
    "output_quadrature_map",
    "peak_frequency",
]

_IMAG_RESIDUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LadderCorrelations:
    """Second moments in ladder block form.

    ``lower_lower[j, k] = <a_j a_k>``, ``upper_lower[j, k] =
    <adag_j a_k>`` and so on; all matrices are ``n_modes x n_modes``.
    They are equal-time moments here and spectra at one frequency in
    :class:`OutputCorrelations`.
    """

    lower_lower: np.ndarray
    lower_upper: np.ndarray
    upper_lower: np.ndarray
    upper_upper: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.lower_lower.shape[0]

    def stacked(self) -> np.ndarray:
        """The four blocks as one 4N x 4N matrix in the stacked ordering."""
        return np.block(
            [
                [self.lower_lower, self.lower_upper],
                [self.upper_lower, self.upper_upper],
            ]
        )


def ladder_correlations_from_cm(cm: QuadratureCovariance) -> LadderCorrelations:
    """Convert an interleaved quadrature covariance to ladder moments.

    Inverts ``a = (x + i p) / sqrt(2)`` on the zero-mean Gaussian state;
    the commutator contribution appears only on the diagonal of
    ``<a adag>``.
    """
    sigma = cm.sigma
    xs = sigma[0::2, 0::2]
    ps = sigma[1::2, 1::2]
    xp = sigma[0::2, 1::2]
    px = sigma[1::2, 0::2]
    eye = np.eye(cm.n_modes)
    lower_lower = 0.25 * ((xs - ps) + 1j * (xp + px))
    upper_lower = 0.25 * ((xs + ps) + 1j * (xp - px)) - 0.5 * eye
    lower_upper = 0.25 * ((xs + ps) + 1j * (px - xp)) + 0.5 * eye
    return LadderCorrelations(
        lower_lower=lower_lower,
        lower_upper=lower_upper,
        upper_lower=upper_lower,
        upper_upper=lower_lower.conj(),
    )


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
class OutputCorrelations(LadderCorrelations):
    """Output-field spectra at one frequency, in ladder block form."""

    omega: float


def _field_inputs(cfg: ArrayConfig) -> tuple[np.ndarray, np.ndarray, LadderCorrelations]:
    if any(g != 0.0 for g in cfg.g):
        raise ConfigInvalid("output spectra are defined for the bare field model")
    ladder = drift_matrices(cfg).ladder
    corr = ladder_correlations_from_cm(steady_state(cfg))
    gains = np.sqrt(np.asarray(cfg.kappa, float))
    return ladder, np.diag(gains), corr


def _resolve(matrix: np.ndarray, rhs: np.ndarray, omega: float) -> np.ndarray:
    try:
        return np.linalg.solve(
            matrix + 1j * omega * np.eye(matrix.shape[0]), rhs
        )
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(
            f"field drift resolvent is singular at omega={omega}"
        ) from exc


def assemble_output_correlations(cfg: ArrayConfig, omega: float) -> OutputCorrelations:
    """Output spectra blocks at one frequency from drift and steady moments.

    Each block pairs a forward and a reversed resolvent of the field
    drift around the stationary moments, sandwiched between the port
    gains; the ``<a adag>`` block carries the extra identity enforced by
    the output commutator.  The resolvent terms carry weight 2, which
    the exact photon-flux anchor pins.
    """
    ladder, gains, corr = _field_inputs(cfg)
    minus = ladder
    plus = ladder.conj()
    a_mm = corr.lower_lower
    a_pm = corr.upper_lower
    a_pp = corr.upper_upper
    eye = np.eye(cfg.n_modes)

    def block(drift_fwd, front, back, drift_rev) -> np.ndarray:
        fwd = _resolve(drift_fwd, front, omega)
        rev = _resolve(drift_rev.T, back.T, -omega).T
        return -2.0 * gains @ (fwd + rev) @ gains

    lower_lower = block(minus, a_mm, a_mm.T, minus)
    lower_upper = block(minus, a_pm.T, a_pm.T, plus) + eye
    upper_lower = block(plus, a_pm, a_pm, minus)
    upper_upper = block(plus, a_pp.T, a_pp, plus)
    return OutputCorrelations(
        omega=omega,
        lower_lower=lower_lower,
        lower_upper=lower_upper,
        upper_lower=upper_lower,
        upper_upper=upper_upper,
    )


def output_covariance(cfg: ArrayConfig, omega: float) -> QuadratureCovariance:
    """Frequency-resolved output covariance in interleaved quadratures.

    Symmetrizes the ladder blocks and rotates them with the quadrature
    map; a vacuum input yields the identity at every frequency with no
    further normalization.  Raises when the imaginary residue exceeds
    1e-9.
    """
    blocks = assemble_output_correlations(cfg, omega)
    stacked = blocks.stacked()
    theta = output_quadrature_map(cfg.n_modes)
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
    def peak_omega(self) -> float:
        return float(self.omegas[int(np.argmax(self.raw))])

    @property
    def peak_raw(self) -> float:
        return float(self.raw.max())

    @property
    def peak_normalized(self) -> float:
        return float(self.normalized.max())


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


def output_pair_spectrum(
    cfg: ArrayConfig,
    omegas,
    pair: tuple[int, int] | None = None,
) -> OutputSpectrum:
    """Frequency-resolved entanglement between two output ports.

    ``pair`` defaults to the far ends of the two arrays (0-based modes
    ``N-1`` and ``2N-1``).  Both ports must be damped.
    """
    if pair is None:
        pair = (cfg.n_sites - 1, 2 * cfg.n_sites - 1)
    j, k = _require_open_pair(cfg, pair)
    omegas = np.asarray(omegas, float)
    raw = np.empty_like(omegas)
    for idx, omega in enumerate(omegas):
        gamma = output_covariance(cfg, float(omega))
        raw[idx] = log_negativity_gaussian(reduce_to_pair(gamma, j, k))
    normalized = np.array([normalized_logneg(value) for value in raw])
    return OutputSpectrum(omegas=omegas, raw=raw, normalized=normalized, pair=(j, k))


def peak_frequency(
    cfg: ArrayConfig,
    coarse_omegas,
    pair: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Locate the spectrum maximum: coarse grid scan plus local refinement.

    Returns ``(omega_star, raw_logneg_at_peak)``; the refinement is a
    bounded scalar search between the grid neighbours of the coarse
    argmax.
    """
    spectrum = output_pair_spectrum(cfg, coarse_omegas, pair)
    grid = spectrum.omegas
    best = int(np.argmax(spectrum.raw))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    pair = spectrum.pair

    def negative_logneg(omega: float) -> float:
        gamma = output_covariance(cfg, omega)
        return -log_negativity_gaussian(reduce_to_pair(gamma, *pair))

    if hi <= lo:
        return float(grid[best]), float(spectrum.raw[best])
    result = minimize_scalar(negative_logneg, bounds=(lo, hi), method="bounded")
    if -result.fun >= spectrum.raw[best]:
        return float(result.x), float(-result.fun)
    return float(grid[best]), float(spectrum.raw[best])
