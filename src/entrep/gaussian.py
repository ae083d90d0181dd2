"""Gaussian-state core: moment solves, symplectic spectra, logarithmic negativity.

* **Runtime.** :func:`schur_form` and :func:`solve_rank_one_sylvester` solve the
  arrays' N x N ladder-moment equations in real arithmetic (Bartels & Stewart,
  Comm. ACM 15, 820, 1972), :meth:`SchurForm.solve` gives the output resolvents
  and spin kernels on the same forms, :func:`uncertainty_margin` certifies the
  moments and :func:`pair_logneg` gives the negativity of every steady and
  output pair, and of the drive itself, from its occupations and cross-moment.
  The three solvers take stacks ``(S, N, N)`` of S independent problems of one
  size (a single problem is a stack of one): only the Schur factorization and
  the quasi-triangular Sylvester solve run once per slice, while the
  back-transform, the residual and margin certificates run once per stack.
  Every certificate is compared with its bound by :func:`~entrep.errors.certify`,
  whose refusal names the first slice that failed, its value and the bound.
* **Real gauge.** An open chain is bipartite, so ``a_j -> i^j a_j`` makes
  every array drift real, and :mod:`entrep.arrays` builds it so.
  :func:`schur_form` factors each real gauged slice with LAPACK's real
  ``dgees`` and keeps the gauged drift, its quasi-triangular factor and its
  orthogonal one.  :func:`solve_rank_one_sylvester` solves on those factors
  by the recursive blocked method of Jonsson & Kagstrom (ACM TOMS 28, 392,
  2002), whose leaves are LAPACK's ``dtrsyl``.  Only a complex shift needs
  complex forms: :meth:`SchurForm.solve` splits the 2 x 2 blocks of complex
  eigenvalue pairs with one stacked pass of unitary rotations, once per form.
* **One path to a dataset cell.** :func:`logneg_from_nu` is the one map from a
  smallest symplectic eigenvalue nu to a negativity E, and refuses a nu with no
  significant digits left; :func:`normalized_logneg` is the one E/(1+E).
* **Oracle.** :func:`solve_lyapunov` takes the drift and diffusion arrays of
  any real quadrature covariance flow and returns its read-only covariance
  array, and :func:`log_negativity_gaussian` and :func:`symplectic_eigenvalues`
  take the negativity of any two-mode covariance.  No runtime module calls
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
from functools import cached_property

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgees, dtrsyl

from .errors import (
    ConfigInvalid,
    NoConvergence,
    NonPhysicalResult,
    NotHurwitz,
    NotPositiveDefinite,
    OverSqueezed,
    as_integer,
    as_real,
    certify,
)

__all__ = [
    "HURWITZ_TOL",
    "SchurForm",
    "chain_phases",
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

# Largest side of a quasi-triangular Sylvester problem that one ``dtrsyl``
# call solves; a larger one is cut in two.
_LEAF = 64

# How far below 1 a symplectic eigenvalue of a solver-produced covariance
# may fall before the generator is declared malformed.
_PHYSICALITY_TOL = 1e-6


def _require_even_square(mat: np.ndarray, what: str) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigInvalid(f"{what} must be a square matrix, got shape {mat.shape}")
    if mat.shape[0] % 2:
        raise ConfigInvalid(f"{what} must have even size (2 rows per mode), got {mat.shape[0]}")
    return mat.shape[0] // 2


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with 2x2 blocks [[0, 1], [-1, 0]]."""
    n_modes = as_integer("n_modes", n_modes, 1)
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def squeezing_bound(nbar: float) -> float:
    """Largest cross-correlation mbar compatible with occupation nbar: ``sqrt(nbar (nbar + 1))``.

    From ``2**54`` up that root rounds to ``nbar``, which is returned, so the
    product, which overflows above ``nbar = 1.3e154``, is never formed there.
    """
    return nbar if nbar >= 2.0**54 else math.sqrt(nbar * (nbar + 1.0))


def check_drive(nbar, mbar) -> tuple[float, float]:
    """Reservoir statistics ``(nbar, mbar)`` as floats, refused when no state has them.

    Raises ConfigInvalid unless both are finite reals >= 0 with a finite ``2
    nbar + 1`` (:func:`entrep.errors.as_real`), and OverSqueezed when ``mbar`` exceeds
    ``squeezing_bound(nbar)`` by more than 1e-12.
    """
    nbar, mbar = as_real("nbar", nbar, 0.0), as_real("mbar", mbar, 0.0)
    as_real("2 nbar + 1", 2.0 * nbar + 1.0)
    bound = squeezing_bound(nbar)
    if mbar > bound + 1e-12:
        raise OverSqueezed(
            f"mbar={mbar} exceeds the physical bound sqrt(nbar*(nbar+1))={bound} "
            f"at nbar={nbar}"
        )
    return nbar, mbar


def solve_lyapunov(drift, diffusion) -> np.ndarray:
    """Steady-state covariance of the flow ``A sigma + sigma A^T + D = 0``, read-only.

    ``drift`` is the real ``A`` on interleaved quadratures and ``diffusion``
    the symmetric, positive-semidefinite ``D``, finite and of one even square
    shape, or ConfigInvalid is raised.  The Schur-based Bartels-Stewart
    solution is symmetrized and must pass three certificates: NotHurwitz
    unless every drift eigenvalue decays strictly, NoConvergence when the
    residual exceeds the acceptance threshold, and NonPhysicalResult when a
    symplectic eigenvalue undershoots 1 beyond tolerance, which signals a
    malformed generator rather than rounding noise.
    """
    a, d = np.asarray(drift, dtype=float), np.asarray(diffusion, dtype=float)
    _require_even_square(a, "drift matrix")
    if d.shape != a.shape:
        raise ConfigInvalid(f"drift and diffusion shapes differ: {a.shape} vs {d.shape}")
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        raise ConfigInvalid("drift and diffusion entries must be finite")
    scale = max(1.0, np.abs(d).max())
    if np.abs(d - d.T).max() > 1e-12 * scale:
        raise ConfigInvalid("diffusion matrix must be symmetric")
    d = 0.5 * (d + d.T)
    if np.linalg.eigvalsh(d).min() < -1e-12 * scale:
        raise ConfigInvalid("diffusion matrix must be positive semidefinite")
    _require_hurwitz(np.linalg.eigvals(a).real.max(), np.abs(a).max())
    sigma = sla.solve_continuous_lyapunov(a, -d)
    sigma = 0.5 * (sigma + sigma.T)
    residual = np.abs(a @ sigma + sigma @ a.T + d).max()
    _require_residual("Lyapunov", residual, np.abs(d).max())
    try:
        nu_min = symplectic_eigenvalues(sigma)[0]
    except NotPositiveDefinite as exc:
        raise NonPhysicalResult("steady covariance is not positive definite") from exc
    what = "generator is unphysical: minus the smallest symplectic eigenvalue"
    certify(-nu_min, -(1.0 - _PHYSICALITY_TOL), NonPhysicalResult, what)
    sigma.flags.writeable = False
    return sigma


def _require_hurwitz(top, scale: float) -> None:
    """``top``, the largest Re eigenvalue of each slice, below ``-HURWITZ_TOL``.

    The refusal names ``scale``, the drift's largest entry, of which ``top``
    may be no more than round-off.
    """
    what = f"no unique steady state of a drift with entries up to {scale:.6g}: max Re eigenvalue"
    certify(top, -HURWITZ_TOL, NotHurwitz, what, strict=True)


def _require_residual(what: str, residual, source: float) -> None:
    """``residual``, one maximum (per slice of a stack), against ``1e-10 * max(1, source)``."""
    certify(residual, _RESIDUAL_RTOL * max(1.0, source), NoConvergence, f"{what} residual")


def chain_phases(n: int) -> np.ndarray:
    """The diagonal ``(1, i, -1, -i, ...)`` of the open-chain gauge ``P`` on ``n`` sites."""
    return np.array([1, 1j, -1, -1j])[np.arange(n) % 4]


@dataclass(frozen=True, eq=False)
class SchurForm:
    """Real Schur forms ``gauged = z t z^T`` of gauged open-chain drifts.

    ``gauged`` is the real ``P L P^*`` of each ladder drift ``L`` (``P =
    diag(chain_phases(N))``), ``t`` its quasi upper triangular factor in
    ``dgees``'s standard form and ``z`` the orthogonal one; each field is the
    ``(S, N, N)`` stack of every slice's matrix, read-only.  Indexing takes
    the forms of a subset of the slices.  :meth:`solve` splits the 2 x 2
    blocks into complex triangular ones the first time it is called, and
    never factors anew.
    """

    gauged: np.ndarray
    t: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        for name in ("gauged", "t", "z"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __getitem__(self, index) -> "SchurForm":
        return SchurForm(self.gauged[index], self.t[index], self.z[index])

    @cached_property
    def _triangular(self) -> tuple[np.ndarray, np.ndarray]:
        """Complex Schur forms ``L = q t q^H`` of the ungauged drifts: ``q = P^* z``."""
        t, z = _split_pairs(self.t, self.z)
        return t, chain_phases(t.shape[-1]).conj()[:, None] * z

    def solve(self, rhs: np.ndarray, shifts) -> np.ndarray:
        """``(L + s)^-1 rhs`` of every slice's ungauged drift ``L`` for each of the W ``shifts`` s.

        ``rhs`` is ``(S, N, K)`` and the result ``(W, S, N, K)``.  It is ``q
        (t + s)^-1 q^H rhs`` on the complex forms: one back substitution over
        the columns of ``t`` serves every shift, slice and column at once,
        and each shift's values take the same operations whatever the other
        shifts are.
        """
        t, q = self._triangular
        shifts = np.asarray(shifts)[:, None, None, None]
        y = np.repeat((q.conj().swapaxes(-1, -2) @ rhs)[None], len(shifts), axis=0)
        pivots = t.diagonal(axis1=-2, axis2=-1)[..., None] + shifts
        for col in range(rhs.shape[1] - 1, -1, -1):
            y[:, :, col] /= pivots[:, :, col]
            y[:, :, :col] -= t[:, :col, col, None] * y[:, :, col, None]
        return q @ y


def _keep_order(real: float, imag: float) -> int:
    """``dgees`` eigenvalue selector; the forms are not reordered, so it is never called."""
    return 0


def _real_schur(gauged: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur forms ``gauged = z t z^T`` of each slice of a real ``(S, N, N)`` stack.

    ``t`` is quasi upper triangular in LAPACK's standard form: a complex
    eigenvalue pair is a 2 x 2 diagonal block with equal diagonal entries
    and off-diagonal entries of opposite signs, and every other entry below
    the diagonal is exactly zero.  Raises NoConvergence, naming the first
    slice, when ``dgees`` reports a failure.
    """
    t, z, info = np.empty_like(gauged), np.empty_like(gauged), np.empty(len(gauged), int)
    for index, one in enumerate(gauged):
        t[index], _, _, _, z[index], _, info[index] = dgees(_keep_order, one)
    certify(np.abs(info), 0, NoConvergence, "real Schur factorization failed: |dgees info|")
    return t, z


def _split_pairs(t: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex triangular ``t`` and unitary ``z`` from real Schur forms ``z t z^T``.

    Each 2 x 2 block ``[[a, b], [c, a]]`` (``c != 0``) of ``t`` is in
    ``dgees``'s standard form, so ``b c < 0`` and its eigenvalue is ``lambda
    = a + i sqrt(|b|) sqrt(|c|)``; the roots are taken apart so that ``b c``
    cannot overflow.  The block is split by the rotation whose first column
    is its eigenvector ``(mu, c) / r``, ``mu = lambda - a``, which leaves
    ``lambda`` above a zero.  The blocks are disjoint and no rotation
    touches another block, so every rotation of the stack comes from the
    original ``t`` and all are applied at once: to the rows of ``t``, then
    to its columns, then to the columns of ``z``.
    """
    slices, k = np.nonzero(t.diagonal(offset=-1, axis1=-2, axis2=-1))
    b, c = t[slices, k, k + 1], t[slices, k + 1, k]
    mu = 1j * np.sqrt(np.abs(b)) * np.sqrt(np.abs(c))
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


def schur_form(gauged: np.ndarray) -> SchurForm:
    """Real Schur form of each slice of an ``(S, N, N)`` stack of gauged open-chain drifts.

    A slice is the real ``P L P^* = -diag(damping) + eta (real
    antisymmetric)`` of a ladder drift ``L`` (:func:`entrep.arrays.gauged_drift`).
    Each is factored by LAPACK's real ``dgees``, alone, whatever stack it
    sits in; in its standard form both diagonal entries of a 2 x 2 block are
    the real part of the block's eigenvalues, so ``diag(t)`` holds every Re
    eigenvalue.

    Raises ConfigInvalid for a complex stack and, naming the first failing
    slice, for a non-finite entry.  Raises NoConvergence when ``dgees``
    fails, and NotHurwitz unless every Re eigenvalue is below -HURWITZ_TOL.
    """
    if np.iscomplexobj(gauged):
        raise ConfigInvalid("a gauged open-chain drift is real, got a complex stack")
    gauged = np.asarray(gauged, dtype=float)
    non_finite = np.count_nonzero(~np.isfinite(gauged), axis=(-2, -1))
    certify(non_finite, 0, ConfigInvalid, "gauged drift has a non-finite entry: count")
    t, z = _real_schur(gauged)
    top = t.diagonal(axis1=-2, axis2=-1).max(axis=-1)
    _require_hurwitz(top, np.abs(gauged).max(initial=0.0))
    return SchurForm(gauged, t, z)


def _cut(t: np.ndarray) -> int:
    """The middle of quasi-triangular ``t``, moved down by one where it would split a 2 x 2 block."""
    k = len(t) // 2
    return k + 1 if t[k, k - 1] else k


def _quasi_triangular_sylvester(ta: np.ndarray, tb: np.ndarray, c: np.ndarray) -> tuple:
    """``(y, scale, info)`` with ``ta y + y tb^T = scale c`` for real Schur factors ``ta``, ``tb``.

    The recursive blocked solve of Jonsson & Kagstrom (ACM TOMS 28, 392,
    2002): the larger side is cut in two between diagonal blocks, the
    trailing half is solved first, and its one matmul updates the leading
    half's right-hand side.  A problem whose sides are at most ``_LEAF`` is a
    leaf, solved by LAPACK's ``dtrsyl``.  A leaf may scale its right-hand
    side by ``scale <= 1`` against overflow; the other half and the product
    of the scales follow, so ``scale`` holds for the whole ``y``.  ``info``
    is the largest of the leaves'; 1 means that close eigenvalues of ``ta``
    and ``-tb`` were perturbed.
    """
    rows, cols = c.shape
    if max(rows, cols) <= _LEAF:
        return dtrsyl(ta, tb, c, trana="N", tranb="T")
    if rows >= cols:
        k = _cut(ta)
        y2, s2, i2 = _quasi_triangular_sylvester(ta[k:, k:], tb, c[k:])
        y1, s1, i1 = _quasi_triangular_sylvester(ta[:k, :k], tb, s2 * c[:k] - ta[:k, k:] @ y2)
        return np.vstack((y1, s1 * y2)), s1 * s2, max(i1, i2)
    k = _cut(tb)
    y2, s2, i2 = _quasi_triangular_sylvester(ta, tb[k:, k:], c[:, k:])
    y1, s1, i1 = _quasi_triangular_sylvester(ta, tb[:k, :k], s2 * c[:, :k] - y2 @ tb[:k, k:].T)
    return np.hstack((y1, s1 * y2)), s1 * s2, max(i1, i2)


def solve_rank_one_sylvester(a: SchurForm, b: SchurForm, source: float) -> np.ndarray:
    """``Y`` solving ``G_a Y + Y G_b^T = source * e0 e0^T`` for the forms' gauged drifts.

    ``Y = z_a W z_b^T`` turns it into ``t_a W + W t_b^T = source (z_a^T e0)
    (z_b^T e0)^T``, which a recursive blocked solve on the quasi-triangular
    factors gives in real arithmetic.  ``a`` and ``b`` are forms of ``(S, N,
    N)`` stacks, and ``Y`` is the real stack of every slice's solution.  The
    residual is taken in the gauge, whose phases leave every entry's modulus
    as it is.  Raises NoConvergence, naming the first failing slice, on a
    ``dtrsyl`` failure or a residual above ``1e-10 * max(1, |source|)``.
    """
    # an overflowing source meets z's exact zeros as inf * 0: the NaN it makes
    # is refused below as a residual, without a numpy warning on the way
    with np.errstate(invalid="ignore", over="ignore"):
        rhs = source * (a.z[:, 0, :, None] * b.z[:, 0, None, :])
        y, scale, info = np.empty_like(rhs), np.empty(len(rhs)), np.empty(len(rhs), int)
        for index, (ta, tb, c) in enumerate(zip(a.t, b.t, rhs)):
            y[index], scale[index], info[index] = _quasi_triangular_sylvester(ta, tb, c)
        y /= scale[:, None, None]
        x = a.z @ y @ b.z.swapaxes(-1, -2)
        residual = a.gauged @ x + x @ b.gauged.swapaxes(-1, -2)
        residual[:, 0, 0] -= source
    what = "quasi-triangular Sylvester solve failed: |dtrsyl info|"
    certify(np.abs(info), 0, NoConvergence, what)
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
    names the first failing slice.  The chain gauge's ``n_i -> P^* n_i P``,
    ``m -> P m P`` changes each block by the unitary similarity ``diag(P,
    P^*)`` and the margin not at all, so the gauged real moments of the
    arrays take a real eigensolve.
    """
    eye = np.eye(m.shape[-1])
    m_t = m.swapaxes(-1, -2)
    first = np.block([[eye + n1.swapaxes(-1, -2), m], [m_t.conj(), n2]])
    lowest = np.linalg.eigvalsh(first)[..., 0]
    if not mirrored:
        second = np.block([[eye + n2.swapaxes(-1, -2), m_t], [m.conj(), n1]])
        lowest = np.minimum(lowest, np.linalg.eigvalsh(second)[..., 0])
    what = "moments are unphysical: uncertainty relation violated"
    return -certify(-lowest, 0.5 * _PHYSICALITY_TOL, NonPhysicalResult, what)


def symplectic_eigenvalues(sigma) -> np.ndarray:
    """Symplectic spectrum of a (positive-definite) covariance matrix.

    Returns the n positive moduli of the eigenvalues of ``i Omega sigma``
    in ascending order.  Eigenvalues come in +/- pairs, which are averaged
    to suppress rounding asymmetry.
    """
    mat = np.asarray(sigma, dtype=float)
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
    mat = np.asarray(sigma, dtype=float)
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
    what = "round-off left a symplectic eigenvalue no significant digits: -nu"
    certify(-nu, 0.0, NonPhysicalResult, what, strict=True)
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
