"""Gaussian-state core: moment solves, symplectic spectra, logarithmic negativity.

* **Runtime.** :func:`schur_form` and :func:`solve_rank_one_sylvester`
  solve the arrays' N x N ladder-moment equations (Bartels & Stewart,
  Comm. ACM 15, 820, 1972), :func:`uncertainty_margin` certifies them and
  :func:`pair_logneg` gives the negativity of every steady and output
  pair from its occupations and cross-moment.
* **Oracle.** :func:`solve_lyapunov` on a :class:`DriftDiffusion` solves
  any real quadrature covariance flow, and :class:`QuadratureCovariance`,
  :func:`reduce_to_pair`, :func:`log_negativity_gaussian` and
  :func:`symplectic_eigenvalues` take the negativity of any two-mode
  covariance.  No runtime module calls them; the tests cross-check the
  moment routes with them.

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
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import ztrsyl

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
    "SchurForm",
    "check_drive",
    "log_negativity_gaussian",
    "logneg_from_nu",
    "normalized_logneg",
    "pair_logneg",
    "reduce_to_pair",
    "schur_form",
    "solve_lyapunov",
    "solve_rank_one_sylvester",
    "squeezing_bound",
    "symplectic_eigenvalues",
    "symplectic_form",
    "uncertainty_margin",
]

#: Steady states are refused unless every drift eigenvalue has real part
#: below -HURWITZ_TOL; marginally stable generators are rejected, not
#: regularized.
HURWITZ_TOL = 1e-12

# Residual acceptance threshold of every steady-moment solve, relative to
# max(1, largest source entry).
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


def check_drive(nbar: float, mbar: float) -> None:
    """Refuse reservoir statistics ``(nbar, mbar)`` that no state has.

    Raises ConfigInvalid unless both are finite and >= 0 (NaN fails),
    and OverSqueezed when ``mbar`` exceeds ``squeezing_bound(nbar)`` by
    more than 1e-12.
    """
    if not (0.0 <= nbar < math.inf and 0.0 <= mbar < math.inf):
        raise ConfigInvalid(f"need finite nbar, mbar >= 0, got nbar={nbar}, mbar={mbar}")
    bound = squeezing_bound(nbar)
    if mbar > bound + 1e-12:
        raise OverSqueezed(
            f"mbar={mbar} exceeds the physical bound sqrt(nbar*(nbar+1))={bound} "
            f"at nbar={nbar}"
        )


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
    _require_hurwitz(np.linalg.eigvals(a))
    sigma = sla.solve_continuous_lyapunov(a, -d)
    sigma = 0.5 * (sigma + sigma.T)
    _require_residual("Lyapunov", np.abs(a @ sigma + sigma @ a.T + d).max(), np.abs(d).max())
    try:
        nu_min = symplectic_eigenvalues(sigma)[0]
    except NotPositiveDefinite as exc:
        raise NonPhysicalResult("steady covariance is not positive definite") from exc
    if nu_min < 1.0 - _PHYSICALITY_TOL:
        raise NonPhysicalResult(
            f"smallest symplectic eigenvalue {nu_min} < 1; generator is unphysical"
        )
    return QuadratureCovariance(sigma)


def _require_hurwitz(eigenvalues: np.ndarray) -> None:
    top = eigenvalues.real.max()
    if top >= -HURWITZ_TOL:
        raise NotHurwitz(
            f"max Re eigenvalue of drift = {top:.3e} >= -{HURWITZ_TOL}; "
            "no unique steady state"
        )


def _require_residual(what: str, residual: float, source: float) -> None:
    if residual > _RESIDUAL_RTOL * max(1.0, source):
        raise NoConvergence(
            f"{what} residual {residual:.3e} exceeds tolerance; "
            "generator is likely ill-conditioned"
        )


class SchurForm(NamedTuple):
    """Complex Schur form ``drift = q t q^H``: ``t`` upper triangular, ``q`` unitary.

    :meth:`conj` gives the conjugate drift's form without a new factorization.
    """

    drift: np.ndarray
    t: np.ndarray
    q: np.ndarray

    def conj(self) -> "SchurForm":
        return SchurForm(self.drift.conj(), self.t.conj(), self.q.conj())


def schur_form(drift: np.ndarray) -> SchurForm:
    """Schur form of a ladder drift; NotHurwitz unless every Re eigenvalue < -HURWITZ_TOL."""
    t, q = sla.schur(np.asarray(drift, dtype=complex), output="complex")
    _require_hurwitz(t.diagonal())
    return SchurForm(drift, t, q)


def solve_rank_one_sylvester(a: SchurForm, b: SchurForm, source: float) -> np.ndarray:
    """``X`` solving ``A X + X B^T = source * e0 e0^T`` for Hurwitz ``A``, ``B``.

    ``X = q_a Y q_b^T`` turns it into ``t_a Y + Y t_b^T = source (q_a^H e0)
    (q_b^H e0)^T``, which ``ztrsyl`` solves by back substitution.  Raises
    NoConvergence on a ``ztrsyl`` failure or a residual above
    ``1e-10 * max(1, |source|)``.
    """
    rhs = source * np.outer(a.q[0].conj(), b.q[0].conj())
    y, scale, info = ztrsyl(a.t, b.t.conj(), rhs, trana="N", tranb="C")
    if info != 0:
        raise NoConvergence(f"triangular Sylvester solve failed (ztrsyl info={info})")
    x = a.q @ (y / scale) @ b.q.T
    residual = a.drift @ x + x @ b.drift.T
    residual[0, 0] -= source
    _require_residual("Sylvester", np.abs(residual).max(), abs(source))
    return x


def uncertainty_margin(n1: np.ndarray, n2: np.ndarray, m: np.ndarray) -> float:
    """Physicality certificate of a two-group ladder-moment state.

    For a zero-mean state whose only non-zero second moments are
    ``n1 = <a^dag a>`` within group one, ``n2`` within group two and
    ``m = <a^(1) a^(2)>`` across them, ``sigma + i Omega >= 0`` splits into
    ``<xi xi^dag> >= 0`` for ``xi = (a^(1), a^(2)dag)`` and for ``(a^(2),
    a^(1)dag)``.  Returns the smallest eigenvalue of those two blocks: it is
    >= 0 exactly when every symplectic eigenvalue is >= 1, and tends to
    ``(nu_min - 1) / 2`` there.  Below ``-1e-6 / 2`` (the covariance route's
    ``nu_min < 1 - 1e-6``) it raises NonPhysicalResult.
    """
    eye = np.eye(m.shape[0])
    first = np.block([[eye + n1.T, m], [m.conj().T, n2]])
    second = np.block([[eye + n2.T, m.T], [m.conj(), n1]])
    lowest = float(min(np.linalg.eigvalsh(first)[0], np.linalg.eigvalsh(second)[0]))
    if lowest < -0.5 * _PHYSICALITY_TOL:
        raise NonPhysicalResult(
            f"uncertainty relation violated by {-lowest:.3e}; moments are unphysical"
        )
    return lowest


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
    return float(logneg_from_nu(symplectic_eigenvalues(flip @ mat @ flip)[0]))


def logneg_from_nu(nu) -> np.ndarray:
    """``max(0, -log2(nu))`` for smallest partially transposed symplectic eigenvalues.

    Values within 1e-12 of 1 sit exactly on the separability boundary and
    give exactly 0.0.
    """
    nu = np.asarray(nu, dtype=float)
    separable = nu >= 1.0 - 1e-12
    return np.where(separable, 0.0, -np.log2(np.where(separable, 1.0, nu)))


def pair_logneg(n1, n2, m) -> np.ndarray:
    """Logarithmic negativity of phase-insensitive two-mode states.

    A zero-mean state whose only second moments are the occupations
    ``n1 = <a^dag a>``, ``n2 = <b^dag b>`` and the cross-moment ``m = <a b>``
    has the smallest partially transposed symplectic eigenvalue
    ``n1 + n2 + 1 - sqrt((n1 - n2)^2 + 4 |m|^2)`` (Serafini, Illuminati &
    De Siena, J. Phys. B 37, L21, 2004); :func:`logneg_from_nu` turns it
    into the negativity.  Works elementwise on arrays.
    """
    return logneg_from_nu(n1 + n2 + 1.0 - np.sqrt((n1 - n2) ** 2 + 4.0 * np.abs(m) ** 2))


def normalized_logneg(value: float) -> float:
    """Map a logarithmic negativity E >= 0 onto [0, 1) via E/(1+E)."""
    if value < 0.0:
        raise ConfigInvalid(f"logarithmic negativity must be >= 0, got {value}")
    return value / (1.0 + value)
