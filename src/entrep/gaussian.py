"""Gaussian-state core: covariance matrices, Lyapunov steady states,
symplectic spectra, and logarithmic negativity.

Conventions used throughout the package
---------------------------------------
Quadratures are ordered ``R = (x_1, p_1, ..., x_n, p_n)`` with
``x = (a + a^dag)/sqrt(2)`` and ``p = (a - a^dag)/(i sqrt(2))``.
Covariance matrices hold the symmetrized second moments *without* the
conventional 1/2,

    sigma_ij = <dR_i dR_j + dR_j dR_i>,    dR = R - <R>,

so the vacuum has sigma = I, a thermal mode has sigma = (2*nbar + 1)*I,
and every physical state satisfies sigma + i*Omega >= 0, i.e. all
symplectic eigenvalues are >= 1.  Logarithms are base 2 everywhere in
this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConfigInvalid,
    IndexOutOfRange,
    NoConvergence,
    NonPhysicalResult,
    NotHurwitz,
    NotPositiveDefinite,
    OverSqueezed,
)

__all__ = [
    "HURWITZ_TOL",
    "DriftDiffusion",
    "QuadratureCovariance",
    "log_negativity_gaussian",
    "normalized_logneg",
    "quadrature_embedding",
    "reduce_to_pair",
    "solve_lyapunov",
    "squeezing_bound",
    "symplectic_eigenvalues",
    "symplectic_form",
    "two_mode_squeezed_thermal_cm",
]

#: Steady states are refused unless every drift eigenvalue has real part
#: below -HURWITZ_TOL; marginally stable generators are rejected, not
#: regularized.
HURWITZ_TOL = 1e-12

# Lyapunov residual acceptance threshold, relative to max(1, |D|_max).
_RESIDUAL_RTOL = 1e-10

# How far below 1 a symplectic eigenvalue of a solver-produced covariance
# may fall before the generator is declared malformed.
_PHYSICALITY_TOL = 1e-6


def _matrix_of(sigma) -> np.ndarray:
    """Accept either a bare matrix or a QuadratureCovariance wrapper."""
    if isinstance(sigma, QuadratureCovariance):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def _require_even_square(mat: np.ndarray, what: str) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigInvalid(f"{what} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2:
        raise ConfigInvalid(f"{what} must have even size (2 rows per mode), got {mat.shape[0]}")
    return mat.shape[0] // 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with 2x2 blocks [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ConfigInvalid(f"need at least one mode, got {n_modes}")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def squeezing_bound(nbar: float) -> float:
    """Largest cross-correlation mbar compatible with occupation nbar."""
    return math.sqrt(nbar * (nbar + 1.0))


@dataclass(frozen=True, eq=False)
class QuadratureCovariance:
    """Symmetrized quadrature covariance matrix of an n-mode Gaussian state.

    The matrix is symmetrized and frozen on construction.  Physicality
    (all symplectic eigenvalues >= 1) is *not* re-checked here — it is
    asserted where covariances are produced, so that intermediate
    matrices (e.g. partial transposes) can be handled uniformly.
    """

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.array(_matrix_of(self.sigma), dtype=float)
        _require_even_square(sigma, "covariance matrix")
        sigma = 0.5 * (sigma + sigma.T)
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_modes(self) -> int:
        return self.sigma.shape[0] // 2

    def pair(self, j: int, k: int) -> "QuadratureCovariance":
        """Two-mode restriction to modes ``j`` and ``k`` (0-based)."""
        return QuadratureCovariance(reduce_to_pair(self.sigma, j, k))


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """Drift/diffusion pair of a linear covariance flow.

    Describes ``d(sigma)/dt = A sigma + sigma A^T + D`` where ``A`` is the
    real drift on interleaved quadratures and ``D`` the (symmetric,
    positive-semidefinite) diffusion matrix.
    """

    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.drift, dtype=float)
        d = np.array(self.diffusion, dtype=float)
        _require_even_square(a, "drift matrix")
        if d.shape != a.shape:
            raise ConfigInvalid(
                f"drift and diffusion shapes differ: {a.shape} vs {d.shape}"
            )
        if not (np.isfinite(a).all() and np.isfinite(d).all()):
            raise ConfigInvalid("drift and diffusion entries must be finite")
        scale = max(1.0, np.abs(d).max())
        if np.abs(d - d.T).max() > 1e-12 * scale:
            raise ConfigInvalid("diffusion matrix must be symmetric")
        d = 0.5 * (d + d.T)
        if np.linalg.eigvalsh(d).min() < -1e-12 * scale:
            raise ConfigInvalid("diffusion matrix must be positive semidefinite")
        a.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "drift", a)
        object.__setattr__(self, "diffusion", d)

    @property
    def n_modes(self) -> int:
        return self.drift.shape[0] // 2


def quadrature_embedding(ladder_drift: np.ndarray) -> np.ndarray:
    """Real quadrature drift equivalent to a complex ladder-operator drift.

    Given the n x n complex matrix ``L`` with d<a>/dt = L <a>, returns the
    2n x 2n real matrix ``A`` generating the same flow on the interleaved
    quadratures: with L = S + iT, dx/dt = S x - T p and dp/dt = T x + S p.
    The spectrum of ``A`` is the union of the spectra of L and conj(L).
    """
    mat = np.asarray(ladder_drift, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigInvalid(f"ladder drift must be square, got shape {mat.shape}")
    s, t = mat.real, mat.imag
    n = mat.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = s
    out[0::2, 1::2] = -t
    out[1::2, 0::2] = t
    out[1::2, 1::2] = s
    return out


def solve_lyapunov(gen: DriftDiffusion) -> QuadratureCovariance:
    """Steady-state covariance of the flow ``A sigma + sigma A^T + D = 0``.

    Uses the Schur-based Bartels-Stewart solver, then enforces three
    certificates: the drift must be Hurwitz, the residual must vanish to
    machine-level relative accuracy, and the result must be a physical
    covariance matrix.

    Raises
    ------
    NotHurwitz
        If any drift eigenvalue fails to decay strictly.
    NoConvergence
        If the solver residual exceeds the acceptance threshold.
    NonPhysicalResult
        If a symplectic eigenvalue undershoots 1 beyond tolerance,
        which signals a malformed generator rather than rounding noise.
    """
    a, d = gen.drift, gen.diffusion
    lam = np.linalg.eigvals(a)
    if lam.real.max() >= -HURWITZ_TOL:
        raise NotHurwitz(
            f"max Re eigenvalue of drift = {lam.real.max():.3e} >= -{HURWITZ_TOL}; "
            "no unique steady state"
        )
    sigma = sla.solve_continuous_lyapunov(a, -d)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.abs(a @ sigma + sigma @ a.T + d).max()
    if residual > _RESIDUAL_RTOL * max(1.0, np.abs(d).max()):
        raise NoConvergence(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; "
            "generator is likely ill-conditioned"
        )
    try:
        nu_min = symplectic_eigenvalues(sigma)[0]
    except NotPositiveDefinite as exc:
        raise NonPhysicalResult("steady covariance is not positive definite") from exc
    if nu_min < 1.0 - _PHYSICALITY_TOL:
        raise NonPhysicalResult(
            f"smallest symplectic eigenvalue {nu_min} < 1; generator is unphysical"
        )
    return QuadratureCovariance(sigma)


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of a (positive-definite) covariance matrix.

    Returns the n positive moduli of the eigenvalues of ``i Omega sigma``
    in ascending order.  Eigenvalues come in +/- pairs, which are averaged
    to suppress rounding asymmetry.
    """
    mat = _matrix_of(sigma)
    n = _require_even_square(mat, "covariance matrix")
    scale = max(1.0, np.abs(mat).max())
    if np.abs(mat - mat.T).max() > 1e-8 * scale:
        raise ConfigInvalid("covariance matrix must be symmetric")
    mat = 0.5 * (mat + mat.T)
    if np.linalg.eigvalsh(mat).min() <= 0.0:
        raise NotPositiveDefinite("covariance matrix must be positive definite")
    moduli = np.sort(np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ mat)))
    return 0.5 * (moduli[0::2] + moduli[1::2])


def reduce_to_pair(sigma, j: int, k: int) -> QuadratureCovariance:
    """4x4 covariance of modes ``j`` and ``k`` (0-based), in that order."""
    mat = _matrix_of(sigma)
    n = _require_even_square(mat, "covariance matrix")
    if not (0 <= j < n and 0 <= k < n) or j == k:
        raise IndexOutOfRange(f"mode pair ({j}, {k}) invalid for {n} modes (0-based)")
    idx = [2 * j, 2 * j + 1, 2 * k, 2 * k + 1]
    return QuadratureCovariance(mat[np.ix_(idx, idx)])


def log_negativity_gaussian(sigma) -> float:
    """Logarithmic negativity of a two-mode Gaussian state.

    Partially transposes the second mode (sign flip on its p quadrature),
    takes the smallest symplectic eigenvalue nu of the result, and returns
    ``max(0, -log2(nu))``.  Eigenvalues within 1e-12 of 1 are treated as
    exactly at the separability boundary, so separable inputs (vacuum,
    thermal, mbar <= nbar) return exactly 0.0.
    """
    mat = _matrix_of(sigma)
    if mat.shape != (4, 4):
        raise ConfigInvalid(f"expected a two-mode 4x4 covariance, got {mat.shape}")
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    nu_min = symplectic_eigenvalues(flip @ mat @ flip)[0]
    if nu_min >= 1.0 - 1e-12:
        return 0.0
    return -math.log2(nu_min)


def normalized_logneg(value: float) -> float:
    """Map a logarithmic negativity E >= 0 onto [0, 1) via E/(1+E)."""
    if value < 0.0:
        raise ConfigInvalid(f"logarithmic negativity must be >= 0, got {value}")
    return value / (1.0 + value)


def two_mode_squeezed_thermal_cm(nbar: float, mbar: float) -> QuadratureCovariance:
    """Covariance of a two-mode squeezed thermal state.

    Both modes carry occupation ``nbar``; the cross-correlations are
    ``<x_1 x_2> = -<p_1 p_2> = mbar`` (diagonal block ``diag(2m, -2m)`` in
    the doubled convention).  The state is entangled iff mbar > nbar and
    pure iff mbar = sqrt(nbar*(nbar+1)).
    """
    if nbar < 0.0 or mbar < 0.0:
        raise ConfigInvalid(f"occupations must be >= 0, got nbar={nbar}, mbar={mbar}")
    bound = squeezing_bound(nbar)
    if mbar > bound + 1e-12:
        raise OverSqueezed(
            f"mbar={mbar} exceeds the physical bound sqrt(nbar*(nbar+1))={bound}"
        )
    diag = (2.0 * nbar + 1.0) * np.eye(4)
    cross = 2.0 * mbar
    sigma = diag
    sigma[0, 2] = sigma[2, 0] = cross
    sigma[1, 3] = sigma[3, 1] = -cross
    return QuadratureCovariance(sigma)
