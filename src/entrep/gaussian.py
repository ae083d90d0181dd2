"""Gaussian-state core: moment solves, symplectic spectra, logarithmic negativity.

* **Runtime.** :func:`schur_form` and :func:`solve_rank_one_sylvester` solve the
  arrays' N x N ladder-moment equations (Bartels & Stewart, Comm. ACM 15, 820,
  1972), :meth:`SchurForm.solve` gives the output resolvents and spin kernels on
  the same forms, :func:`uncertainty_margin` certifies the moments and
  :func:`pair_logneg` gives the negativity of every steady and output pair, and
  of the drive itself, from its occupations and cross-moment.  The three solvers
  take stacks ``(S, N, N)`` of S independent problems of one size (a single
  problem is a stack of one): only the Schur factorization and the triangular
  ``ztrsyl`` solve run once per slice, while the back-transform, the residual
  and margin certificates run once per stack, and a refusal names the first
  slice that failed.
* **Real gauge.** An open chain is bipartite, so ``a_j -> i^j a_j`` makes
  every array drift real.  :func:`schur_form` factors each gauged slice with
  LAPACK's real ``dgees``, splits the 2 x 2 blocks of its complex eigenvalue
  pairs with one stacked pass of unitary rotations, and undoes the gauge in
  ``q``; a drift that the gauge does not make real is not a chain drift and
  is refused.
* **One path to a dataset cell.** :func:`logneg_from_nu` is the one map from a
  smallest symplectic eigenvalue nu to a negativity E, and refuses a nu with no
  significant digits left; :func:`normalized_logneg` is the one E/(1+E).
* **Oracle.** :func:`solve_lyapunov` on a :class:`DriftDiffusion` solves
  any real quadrature covariance flow, and :class:`QuadratureCovariance`,
  :func:`log_negativity_gaussian` and :func:`symplectic_eigenvalues` take
  the negativity of any two-mode covariance.  No runtime module calls
  them; the tests cross-check the moment routes with them.

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
from scipy.linalg.lapack import dgees, ztrsyl

from .errors import (
    ROUNDOFF_RTOL,
    ConfigInvalid,
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
    _require_hurwitz(np.linalg.eigvals(a)[None])
    sigma = sla.solve_continuous_lyapunov(a, -d)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.abs(a @ sigma + sigma @ a.T + d).max()[None]
    _require_residual("Lyapunov", residual, np.abs(d).max())
    try:
        nu_min = symplectic_eigenvalues(sigma)[0]
    except NotPositiveDefinite as exc:
        raise NonPhysicalResult("steady covariance is not positive definite") from exc
    if nu_min < 1.0 - _PHYSICALITY_TOL:
        raise NonPhysicalResult(
            f"smallest symplectic eigenvalue {nu_min} < 1; generator is unphysical"
        )
    return QuadratureCovariance(sigma)


def _first_failure(failed: np.ndarray, values: np.ndarray) -> tuple[str, float]:
    """Label and value of the first failing slice; one entry per slice of a stack."""
    index = int(np.flatnonzero(failed)[0])
    return f" (slice {index})", float(values[index])


def _require_hurwitz(eigenvalues: np.ndarray) -> None:
    """Eigenvalues along the last axis, one row per slice of a stack; NaN fails."""
    top = eigenvalues.real.max(axis=-1)
    failed = ~(top < -HURWITZ_TOL)
    if failed.any():
        where, value = _first_failure(failed, top)
        raise NotHurwitz(
            f"max Re eigenvalue of drift{where} = {value:.3e} >= -{HURWITZ_TOL}; "
            "no unique steady state"
        )


def _require_residual(what: str, residual: np.ndarray, source: float) -> None:
    """``residual`` is one maximum per slice of a stack; one not finite fails."""
    failed = ~(np.isfinite(residual) & (residual <= _RESIDUAL_RTOL * max(1.0, source)))
    if failed.any():
        where, value = _first_failure(failed, residual)
        raise NoConvergence(
            f"{what} residual{where} {value:.3e} exceeds tolerance; "
            "generator is likely ill-conditioned"
        )


def _blocks(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """The 2 x 2 block matrix of four ``(S, N, N)`` stacks, slice by slice.

    Same result as ``np.block``, whose Python overhead exceeds the
    eigenvalue solve of a small block.
    """
    return np.concatenate(
        (
            np.concatenate((top_left, top_right), axis=-1),
            np.concatenate((bottom_left, bottom_right), axis=-1),
        ),
        axis=-2,
    )


class SchurForm(NamedTuple):
    """Complex Schur form ``drift = q t q^H``: ``t`` upper triangular, ``q`` unitary.

    Each field is the ``(S, N, N)`` stack of every slice's matrix.  Neither
    :meth:`conj` (the conjugate drifts' forms) nor :meth:`solve` factors anew.
    """

    drift: np.ndarray
    t: np.ndarray
    q: np.ndarray

    def conj(self) -> "SchurForm":
        return SchurForm(self.drift.conj(), self.t.conj(), self.q.conj())

    def solve(self, rhs: np.ndarray, shifts) -> np.ndarray:
        """``(drift + s)^-1 rhs`` of every slice for each of the W ``shifts`` s.

        ``rhs`` is ``(S, N, K)`` and the result ``(W, S, N, K)``.  It is ``q
        (t + s)^-1 q^H rhs``: one back substitution over the columns of ``t``
        serves every shift, slice and column at once, and each shift's
        values take the same operations whatever the other shifts are.
        """
        shifts = np.asarray(shifts)[:, None, None, None]
        y = np.repeat((self.q.conj().swapaxes(-1, -2) @ rhs)[None], len(shifts), axis=0)
        pivots = self.t.diagonal(axis1=-2, axis2=-1)[..., None] + shifts
        for col in range(rhs.shape[1] - 1, -1, -1):
            y[:, :, col] /= pivots[:, :, col]
            y[:, :, :col] -= self.t[:, :col, col, None] * y[:, :, col, None]
        return self.q @ y


def _keep_order(real: float, imag: float) -> int:
    """``dgees`` eigenvalue selector; the forms are not reordered, so it is never called."""
    return 0


def _real_schur(gauged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur forms ``gauged = z t z^T`` of each slice of a real ``(S, N, N)`` stack.

    ``t`` is quasi upper triangular in LAPACK's standard form: a complex
    eigenvalue pair is a 2 x 2 diagonal block with equal diagonal entries,
    and every other entry below the diagonal is exactly zero.  Raises
    NoConvergence, naming the slice, when ``dgees`` reports a failure.
    """
    t, z = np.empty_like(gauged), np.empty_like(gauged)
    for index, one in enumerate(gauged):
        t[index], _, _, _, z[index], _, info = dgees(_keep_order, one)
        if info:
            raise NoConvergence(
                f"real Schur factorization (slice {index}) failed (dgees info={info})"
            )
    return t, z


def _split_pairs(t: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex triangular ``t`` and unitary ``z`` from real Schur forms ``z t z^T``.

    Each 2 x 2 block ``[[a, b], [c, d]]`` (``c != 0``) of ``t`` is split by
    the rotation whose first column is its eigenvector ``(mu, c) / r``, ``mu
    = lambda - d``, which leaves ``lambda`` above a zero.  The blocks are
    disjoint and no rotation touches another block, so every rotation of
    the stack comes from the original ``t`` and all are applied at once:
    to the rows of ``t``, then to its columns, then to the columns of ``z``.
    """
    slices, k = np.nonzero(t.diagonal(offset=-1, axis1=-2, axis2=-1))
    a, b = t[slices, k, k], t[slices, k, k + 1]
    c, d = t[slices, k + 1, k], t[slices, k + 1, k + 1]
    half = 0.5 * (a - d)
    mu = half + np.sqrt(half * half + b * c + 0j)
    r = np.hypot(np.abs(mu), c)
    cos, sin = (mu / r)[:, None], (c / r)[:, None]
    t, z = t.astype(complex), z.astype(complex)
    upper, lower = t[slices, k], t[slices, k + 1]
    t[slices, k], t[slices, k + 1] = cos.conj() * upper + sin * lower, cos * lower - sin * upper
    for stack in (t, z):
        left, right = stack[slices, :, k], stack[slices, :, k + 1]
        stack[slices, :, k] = cos * left + sin * right
        stack[slices, :, k + 1] = cos.conj() * right - sin * left
    t[slices, k + 1, k] = 0.0
    return t, z


def schur_form(drift: np.ndarray) -> SchurForm:
    """Schur form of each slice of an ``(S, N, N)`` stack of open-chain ladder drifts.

    An open chain is bipartite, so the gauge ``a_j -> i^j a_j`` (``P =
    diag(1, i, -1, -i, ...)``) makes its drift ``L = -i eta (hopping) -
    diag(damping)`` real: ``P L P^* = -diag(damping) + eta (real
    antisymmetric)``.  Each gauged slice is factored by LAPACK's real
    ``dgees``, the 2 x 2 blocks of its complex eigenvalue pairs are split by
    one stacked pass of unitary rotations, and ``q = P^* z`` undoes the
    gauge.  A slice is factored alone, whatever stack it sits in.

    Raises ConfigInvalid, naming the first failing slice, for a non-finite
    entry or for a drift that the gauge does not make real to round-off
    (``ROUNDOFF_RTOL`` of its largest entry): it is not an open-chain drift.
    Raises NoConvergence when ``dgees`` fails, and NotHurwitz unless every
    Re eigenvalue is below -HURWITZ_TOL.
    """
    drift = np.asarray(drift, dtype=complex)
    finite = np.isfinite(drift).all(axis=(-2, -1))
    if not finite.all():
        where, _ = _first_failure(~finite, finite)
        raise ConfigInvalid(f"ladder drift{where} has a non-finite entry")
    phases = np.array([1, 1j, -1, -1j])[np.arange(drift.shape[-1]) % 4]
    gauged = phases[:, None] * drift * phases.conj()
    residue = np.abs(gauged.imag).max(axis=(-2, -1))
    failed = residue > ROUNDOFF_RTOL * np.abs(drift).max(axis=(-2, -1))
    if failed.any():
        where, value = _first_failure(failed, residue)
        raise ConfigInvalid(
            f"ladder drift{where} is not an open chain: its gauged imaginary part "
            f"{value:.3e} exceeds round-off"
        )
    t, z = _split_pairs(*_real_schur(gauged.real))
    _require_hurwitz(t.diagonal(axis1=-2, axis2=-1))
    return SchurForm(drift, t, phases.conj()[:, None] * z)


def solve_rank_one_sylvester(a: SchurForm, b: SchurForm, source: float) -> np.ndarray:
    """``X`` solving ``A X + X B^T = source * e0 e0^T`` for Hurwitz ``A``, ``B``.

    ``X = q_a Y q_b^T`` turns it into ``t_a Y + Y t_b^T = source (q_a^H e0)
    (q_b^H e0)^T``, which ``ztrsyl`` solves by back substitution.  ``a``
    and ``b`` are forms of ``(S, N, N)`` stacks, and ``X`` is the stack of
    every slice's solution.  Raises NoConvergence, naming the first
    failing slice, on a ``ztrsyl`` failure or a residual above ``1e-10 *
    max(1, |source|)``.
    """
    # an overflowing source meets q's exact zeros as inf * 0: the NaN it makes
    # is refused below as a residual, without a numpy warning on the way
    with np.errstate(invalid="ignore", over="ignore"):
        rhs = source * (a.q[:, 0, :, None].conj() * b.q[:, 0, None, :].conj())
    y, scale, info = np.empty_like(rhs), np.empty(len(rhs)), np.empty(len(rhs), int)
    for index, (ta, tb, c) in enumerate(zip(a.t, b.t.conj(), rhs)):
        y[index], scale[index], info[index] = ztrsyl(ta, tb, c, trana="N", tranb="C")
    if info.any():
        where, value = _first_failure(info != 0, info)
        raise NoConvergence(f"triangular Sylvester solve{where} failed (ztrsyl info={value:.0f})")
    y /= scale[:, None, None]
    x = a.q @ y @ b.q.swapaxes(-1, -2)
    residual = a.drift @ x + x @ b.drift.swapaxes(-1, -2)
    residual[:, 0, 0] -= source
    _require_residual("Sylvester", np.abs(residual).max(axis=(-2, -1)), abs(source))
    return x


def uncertainty_margin(
    n1: np.ndarray, n2: np.ndarray, m: np.ndarray, *, mirrored: bool = False
) -> np.ndarray:
    """Physicality certificate of each slice of ``(S, N, N)`` two-group moments.

    For a zero-mean state whose only non-zero second moments are
    ``n1 = <a^dag a>`` within group one, ``n2`` within group two and
    ``m = <a^(1) a^(2)>`` across them, ``sigma + i Omega >= 0`` splits into
    ``<xi xi^dag> >= 0`` for ``xi = (a^(1), a^(2)dag)`` and for ``(a^(2),
    a^(1)dag)``.  Returns the smallest eigenvalue of those two blocks: it is
    >= 0 exactly when every symplectic eigenvalue is >= 1, and tends to
    ``(nu_min - 1) / 2`` there.  Below ``-1e-6 / 2`` (the covariance route's
    ``nu_min < 1 - 1e-6``) it raises NonPhysicalResult.

    ``mirrored`` states that the groups are mirror images (``n1 = n2``
    and ``m = m^T``), so that the second block equals the first and only
    the first is diagonalized.  Returns one margin per slice; a refusal
    names the first failing slice.
    """
    eye = np.eye(m.shape[-1])
    m_t = m.swapaxes(-1, -2)
    first = _blocks(eye + n1.swapaxes(-1, -2), m, m_t.conj(), n2)
    lowest = np.linalg.eigvalsh(first)[..., 0]
    if not mirrored:
        second = _blocks(eye + n2.swapaxes(-1, -2), m_t, m.conj(), n1)
        lowest = np.minimum(lowest, np.linalg.eigvalsh(second)[..., 0])
    failed = ~(lowest >= -0.5 * _PHYSICALITY_TOL)
    if failed.any():
        where, value = _first_failure(failed, lowest)
        raise NonPhysicalResult(
            f"uncertainty relation violated{where} by {-value:.3e}; moments are unphysical"
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
    give exactly 0.0.  A value that is not positive and finite has lost
    every significant digit (round-off cancelled it) and raises
    NonPhysicalResult rather than giving an infinite or NaN negativity.
    """
    nu = np.asarray(nu, dtype=float)
    valid = (nu > 0.0) & (nu < math.inf)
    if not valid.all():
        raise NonPhysicalResult(
            f"symplectic eigenvalue {nu[~valid].flat[0]} is not positive and finite: "
            "round-off left it no significant digits"
        )
    separable = nu >= 1.0 - 1e-12
    return np.where(separable, 0.0, -np.log2(np.where(separable, 1.0, nu)))


def pair_logneg(n1, n2, m) -> np.ndarray:
    """Logarithmic negativity of phase-insensitive two-mode states.

    A zero-mean state whose only second moments are the occupations
    ``n1 = <a^dag a>``, ``n2 = <b^dag b>`` and the cross-moment ``m = <a b>``
    has the smallest partially transposed symplectic eigenvalue
    ``n1 + n2 + 1 - sqrt((n1 - n2)^2 + 4 |m|^2)`` (Serafini, Illuminati &
    De Siena, J. Phys. B 37, L21, 2004), the root taken by overflow-free
    ``hypot``; :func:`logneg_from_nu` turns it into the negativity, elementwise.
    """
    return logneg_from_nu(n1 + n2 + 1.0 - np.hypot(n1 - n2, 2.0 * np.abs(m)))


def normalized_logneg(value):
    """Map logarithmic negativities E >= 0 onto [0, 1) via E/(1+E), elementwise.

    The one place the package writes this map: a scalar gives a float and an
    array an array.  A negative, infinite or NaN E raises ConfigInvalid.
    """
    value = np.asarray(value, dtype=float)
    valid = (value >= 0.0) & (value < math.inf)
    if not valid.all():
        raise ConfigInvalid(
            f"logarithmic negativity must be finite and >= 0, got {value[~valid].flat[0]}"
        )
    normalized = value / (1.0 + value)
    return normalized if normalized.ndim else float(normalized)
