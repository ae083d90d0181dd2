"""4N-quadrature routes to the steady state and the output spectra, kept as a test oracle.

The runtime solves the N x N ladder-moment equations of
:mod:`entrep.arrays` on the real drift of the chain gauge.  This module
solves the same model the other way: the physical complex ladder drift is
built from the config bond by bond (:func:`ladder_drift`), independently of
the runtime, and :func:`gauge` takes it to the runtime's real drift; it is
embedded as a real 4N x 4N quadrature drift,
the diffusion matrix is written out in quadratures, and the covariance
comes from :func:`entrep.gaussian.solve_lyapunov`, with its own Hurwitz,
residual and symplectic-physicality certificates.  Stacked ladder moments
and per-pair negativities are then read back from the covariance, each
pair cut out by :func:`reduce_to_pair`.  The closed-form two-mode
squeezed thermal covariance serves as a reference state.

The output spectra of :mod:`entrep.output` have a 4N reference too: the
stacked resolvent formula of quantum regression and input-output theory
on the doubled drift ``diag(L, conj L)`` (:func:`output_correlations`).
Its symmetrized port rows give the port moments, and its rotation into a
full quadrature covariance per frequency (:func:`output_covariance`)
gives the pair negativity through a 4x4 symplectic eigensolve.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from entrep.arrays import ArrayConfig, steady_state
from entrep.errors import ConfigInvalid, IndexOutOfRange, NonPhysicalResult
from entrep.gaussian import (
    _require_even_square,
    chain_phases,
    check_drive,
    log_negativity_gaussian,
    solve_lyapunov,
)
from entrep.output import output_quadrature_map

_IMAG_RESIDUE_TOL = 1e-9


def reduce_to_pair(sigma, j: int, k: int) -> np.ndarray:
    """4x4 covariance of modes ``j`` and ``k`` (0-based), in that order."""
    mat = np.asarray(sigma, dtype=float)
    n = _require_even_square(mat, "covariance matrix")
    if not (0 <= j < n and 0 <= k < n) or j == k:
        raise IndexOutOfRange(f"mode pair ({j}, {k}) invalid for {n} modes (0-based)")
    idx = [2 * j, 2 * j + 1, 2 * k, 2 * k + 1]
    return mat[np.ix_(idx, idx)]


def ladder_drift(cfg: ArrayConfig) -> np.ndarray:
    """The complex ``(2, N, N)`` ladder drift blocks ``(L_1, L_2)``, bonds placed one at a time.

    ``L`` has ``-i eta_b`` on each bond b within an array and ``-(kappa_j +
    zeta [j driven])`` on the diagonal, with d<a>/dt = L <a>.
    """
    n = cfg.n_sites
    blocks = np.zeros((2, n, n), dtype=complex)
    for array, block in enumerate(blocks):
        for bond in range(n - 1):
            block[bond, bond + 1] = block[bond + 1, bond] = -1j * cfg.eta[array * (n - 1) + bond]
        block -= np.diag(np.asarray(cfg.kappa[array * n : (array + 1) * n], dtype=float))
        block[0, 0] -= cfg.zeta
    return blocks


def gauge(ladder: np.ndarray) -> np.ndarray:
    """``P L P^*`` of open-chain drifts ``L`` (``P = diag(chain_phases(N))``), which is real.

    ``ladder`` is one ``(N, N)`` drift or a stack; an imaginary part left
    after the gauge means the drift is not an open chain, and fails.
    """
    phases = chain_phases(ladder.shape[-1])
    gauged = phases[:, None] * ladder * phases.conj()
    assert not gauged.imag.any(), "the drift is not an open chain"
    return gauged.real


def quadrature_embedding(ladder: np.ndarray) -> np.ndarray:
    """Real quadrature drift equivalent to a complex ladder-operator drift.

    Given the n x n complex matrix ``L`` with d<a>/dt = L <a>, returns the
    2n x 2n real matrix ``A`` generating the same flow on the interleaved
    quadratures: with L = S + iT, dx/dt = S x - T p and dp/dt = T x + S p.
    The spectrum of ``A`` is the union of the spectra of L and conj(L).
    """
    mat = np.asarray(ladder, dtype=complex)
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


def quadrature_drift(cfg: ArrayConfig) -> np.ndarray:
    """The arrays' 4N x 4N real quadrature drift."""
    return quadrature_embedding(sla.block_diag(*ladder_drift(cfg)))


def diffusion_matrix(cfg: ArrayConfig) -> np.ndarray:
    """Quadrature diffusion from local decay plus the squeezed reservoir.

    Local decay contributes ``2*kappa_j`` per driven quadrature; the
    reservoir adds ``2*zeta*(2*nbar+1)`` on both driven sites and the
    cross block ``2*zeta*diag(-2*mbar, +2*mbar)`` between them, the sign
    pattern that makes the isolated driven pair relax to cross-moment
    ``<a_0 a_N> = -mbar`` with occupation ``nbar``.
    """
    dmat = np.diag(np.repeat(2.0 * np.asarray(cfg.kappa, dtype=float), 2))
    first, second = cfg.driven_modes
    for j in (first, second):
        dmat[2 * j, 2 * j] += 2.0 * cfg.zeta * (2.0 * cfg.nbar + 1.0)
        dmat[2 * j + 1, 2 * j + 1] += 2.0 * cfg.zeta * (2.0 * cfg.nbar + 1.0)
    cross = 2.0 * cfg.zeta * 2.0 * cfg.mbar
    dmat[2 * first, 2 * second] = dmat[2 * second, 2 * first] = -cross
    dmat[2 * first + 1, 2 * second + 1] = dmat[2 * second + 1, 2 * first + 1] = cross
    return dmat


def covariance(cfg: ArrayConfig) -> np.ndarray:
    """Steady quadrature covariance from the 4N Lyapunov equation."""
    return solve_lyapunov(quadrature_drift(cfg), diffusion_matrix(cfg))


def ladder_correlations_from_cm(sigma: np.ndarray) -> np.ndarray:
    """Convert an interleaved quadrature covariance to stacked ladder moments.

    Returns the 4N x 4N matrix ``<abar_j abar_k>``: quarters ``<a a>``,
    ``<a adag>`` over ``<adag a>``, ``<adag adag>``.  Inverts ``a = (x + i
    p) / sqrt(2)`` on the zero-mean Gaussian state; the commutator
    contribution appears only on the diagonal of ``<a adag>``.
    """
    xs = sigma[0::2, 0::2]
    ps = sigma[1::2, 1::2]
    xp = sigma[0::2, 1::2]
    px = sigma[1::2, 0::2]
    eye = np.eye(len(sigma) // 2)
    lower_lower = 0.25 * ((xs - ps) + 1j * (xp + px))
    upper_lower = 0.25 * ((xs + ps) + 1j * (xp - px)) - 0.5 * eye
    lower_upper = 0.25 * ((xs + ps) + 1j * (px - xp)) + 0.5 * eye
    return np.block([[lower_lower, lower_upper], [upper_lower, lower_lower.conj()]])


def covariance_from_moments(stacked: np.ndarray) -> np.ndarray:
    """Interleaved quadrature covariance of stacked ladder moments.

    The inverse of :func:`ladder_correlations_from_cm`: with
    ``R = theta abar / sqrt(2)``, ``sigma = theta (A0 + A0^T) theta^T / 2``.
    """
    n = stacked.shape[0] // 2
    mode = np.arange(n)
    theta = np.zeros((2 * n, 2 * n), complex)
    theta[2 * mode, mode] = theta[2 * mode, n + mode] = 1.0
    theta[2 * mode + 1, mode] = -1j
    theta[2 * mode + 1, n + mode] = 1j
    return 0.5 * (theta @ (stacked + stacked.T) @ theta.T).real


def stacked_moments(cfg: ArrayConfig) -> np.ndarray:
    """Stacked steady ladder moments ``A0`` of the arrays, via the covariance."""
    return ladder_correlations_from_cm(covariance(cfg))


def pair_lognegs(cfg: ArrayConfig) -> np.ndarray:
    """Per-pair logarithmic negativity from 4x4 covariance restrictions."""
    sigma = covariance(cfg)
    n = cfg.n_sites
    return np.array(
        [log_negativity_gaussian(reduce_to_pair(sigma, j, n + j)) for j in range(n)]
    )


def two_mode_squeezed_thermal_cm(nbar: float, mbar: float) -> np.ndarray:
    """Covariance of a two-mode squeezed thermal state.

    Both modes carry occupation ``nbar``; the cross-correlations are
    ``<x_1 x_2> = -<p_1 p_2> = mbar`` (diagonal block ``diag(2m, -2m)`` in
    the doubled convention).  The state is entangled iff mbar > nbar and
    pure iff mbar = sqrt(nbar*(nbar+1)).
    """
    check_drive(nbar, mbar)
    sigma = (2.0 * nbar + 1.0) * np.eye(4)
    cross = 2.0 * mbar
    sigma[0, 2] = sigma[2, 0] = cross
    sigma[1, 3] = sigma[3, 1] = -cross
    return sigma


def output_correlations(cfg: ArrayConfig, omega: float) -> np.ndarray:
    """Stacked output spectra ``S(omega)`` of every port, 4N x 4N.

    ``S = E - 2 G [(D + i omega)^-1 N + N (D - i omega)^-1] G`` with the
    doubled drift ``D = diag(L, conj L)``, the port gains ``G =
    diag(sqrt(kappa))`` on both halves, ``E`` the identity in the ``<a
    adag>`` quarter (the output commutator) and ``N = A0 - E`` the normally
    ordered part of the runtime's stacked steady moments ``A0``.
    """
    ladder = sla.block_diag(*ladder_drift(cfg))
    drift = sla.block_diag(ladder, ladder.conj())
    moments = steady_state(cfg).stacked()
    n = cfg.n_modes
    commutator = np.zeros_like(moments)
    commutator[:n, n:] = np.eye(n)
    normal = moments - commutator
    shift = 1j * omega * np.eye(2 * n)
    forward = np.linalg.solve(drift + shift, normal)
    reverse = np.linalg.solve((drift - shift).T, normal.T).T
    gains = np.tile(np.sqrt(np.asarray(cfg.kappa, float)), 2)
    return commutator - 2.0 * gains[:, None] * (forward + reverse) * gains


def output_covariance(cfg: ArrayConfig, omega: float) -> np.ndarray:
    """Output covariance of every port in interleaved quadratures.

    Symmetrizes :func:`output_correlations` and rotates it with
    :func:`entrep.output.output_quadrature_map`; a vacuum input gives the
    identity.  Raises NonPhysicalResult when the imaginary residue
    exceeds 1e-9.
    """
    stacked = output_correlations(cfg, omega)
    theta = output_quadrature_map(cfg.n_modes)
    gamma = 0.5 * theta @ (stacked + stacked.T) @ theta.T
    residue = float(np.abs(gamma.imag).max())
    if residue > _IMAG_RESIDUE_TOL * max(1.0, np.abs(gamma.real).max()):
        raise NonPhysicalResult(
            f"output covariance has imaginary residue {residue:.2e} at omega={omega}"
        )
    return gamma.real


def output_port_moments(cfg: ArrayConfig, pair: tuple[int, int], omega: float):
    """``(n_p, n_q, m)`` of a port pair from the symmetrized :func:`output_correlations`.

    The ``<adag a>`` diagonal of ``(S + S^T) / 2`` is the port occupation
    plus one half from the output commutator; its ``<a a>`` entry at the
    two ports is their cross-moment.
    """
    p, q = sorted(pair)
    stacked = output_correlations(cfg, omega)
    sym = 0.5 * (stacked + stacked.T)
    n = cfg.n_modes
    return sym[n + p, p].real - 0.5, sym[n + q, q].real - 0.5, sym[p, q]


def output_pair_logneg(cfg: ArrayConfig, pair: tuple[int, int], omega: float) -> float:
    """Pair negativity from the 4x4 restriction of :func:`output_covariance`."""
    return log_negativity_gaussian(reduce_to_pair(output_covariance(cfg, omega), *pair))
