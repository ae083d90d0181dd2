"""Spin-array models fed by the correlated cavity reservoir.

Four independent routes to the spin physics, kept deliberately separate
so they can cross-check each other:

* :func:`build_xx_liouvillian` — exact master equation for two XX chains
  whose first sites share the correlated two-site drive;
* :func:`build_effective_general` — second-order (Born–Markov) reduction
  of the cavity+spin model, with memory kernels obtained from the exact
  field drift and steady moments (:meth:`entrep.arrays.SteadyMoments.stacked`);
* :func:`build_effective_closed_form` — the same reduction evaluated
  analytically for homogeneous lossless arrays, written in terms of
  parity-dependent coupling-pattern matrices;
* :func:`full_cavity_atom_oracle` — brute-force Fock-truncated solve of
  the joint cavity+spin master equation (small systems only).

Index layout matches :mod:`entrep.arrays`: sites ``0..N-1`` are the first
array, ``N..2N-1`` the second, and the driven pair is ``(0, N)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import ceil, sqrt

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .arrays import ArrayConfig, ladder_drift, steady_state
from .errors import ConfigInvalid, DimensionBudgetExceeded, TruncationUnconverged
from .gaussian import check_drive
from .liouville import (
    Liouvillian,
    QUBIT_LOWER,
    destroy,
    embed_operator,
    hamiltonian_superop,
    left_multiply,
    lindblad_dissipator,
    partial_trace,
    right_multiply,
    sandwich,
    steady_state_dm,
)

__all__ = [
    "ClosedFormModel",
    "EffectiveSpinModel",
    "FockSteadyState",
    "PatternMatrices",
    "TruncationSpec",
    "adiabaticity_ratio",
    "build_effective_closed_form",
    "build_effective_general",
    "build_xx_liouvillian",
    "coupling_pattern_matrices",
    "default_fock_levels",
    "full_cavity_atom_oracle",
]

_MAX_XX_PAIRS = 5


def _check_spin_pairs(n_pairs: int) -> None:
    """Refuse spin models with no pair or beyond the ``_MAX_XX_PAIRS`` budget."""
    if n_pairs < 1:
        raise ConfigInvalid(f"need at least one spin pair, got {n_pairs}")
    if n_pairs > _MAX_XX_PAIRS:
        raise DimensionBudgetExceeded(
            f"{2 * n_pairs} spins exceed the {2 * _MAX_XX_PAIRS}-spin budget"
        )


def _lowering_ops(n_spins: int) -> list[sp.csr_matrix]:
    """Lowering operator on each of ``n_spins`` qubits (site 0 leftmost)."""
    dims = (2,) * n_spins
    return [embed_operator({site: QUBIT_LOWER}, dims) for site in range(n_spins)]


def _array_charge(dims: tuple[int, ...], first_array_sites) -> np.ndarray:
    """U(1) charge ``N_array1 - N_array2`` of each basis state of ``dims``.

    A site's level index is its excitation count (Fock number, or 1 for
    an excited qubit); sites in ``first_array_sites`` count positive,
    every other site negative.  Every generator built here conserves it.
    """
    first = set(first_array_sites)
    charge = np.zeros((), dtype=np.int64)
    for site, dim in enumerate(dims):
        levels = np.arange(dim) if site in first else -np.arange(dim)
        charge = np.add.outer(charge, levels)
    return charge.reshape(-1)


def _correlated_drive(c_1, c_2, rate: float) -> sp.csr_matrix:
    """Two-site correlated dissipative term.

    Superoperator of ``rate * (c1 rho c2 + c2 rho c1 - c1 c2 rho
    - rho c1 c2 + h.c.)`` for commuting ``c1``, ``c2``.
    """
    prod = (c_1 @ c_2).tocsr()
    half = (
        sandwich(c_1, c_2)
        + sandwich(c_2, c_1)
        - left_multiply(prod)
        - right_multiply(prod)
    )
    c1d = c_1.conjugate().T.tocsr()
    c2d = c_2.conjugate().T.tocsr()
    prod_d = (c1d @ c2d).tocsr()
    half_dag = (
        sandwich(c2d, c1d)
        + sandwich(c1d, c2d)
        - left_multiply(prod_d)
        - right_multiply(prod_d)
    )
    return rate * (half + half_dag)


def _thermal_end_drive(ops, first: int, second: int, rate: float, nbar: float, mbar: float,
                       cross_sign: float) -> sp.csr_matrix:
    """Thermal + correlated drive acting on the two end sites of a pair."""
    total = None
    for site in (first, second):
        term = lindblad_dissipator(ops[site], rate * (nbar + 1.0))
        term = term + lindblad_dissipator(ops[site].conjugate().T.tocsr(), rate * nbar)
        total = term if total is None else total + term
    total = total + _correlated_drive(ops[first], ops[second], cross_sign * 2.0 * rate * mbar)
    return total


def build_xx_liouvillian(
    n_pairs: int,
    coupling,
    gamma: float,
    nbar: float,
    mbar: float,
) -> Liouvillian:
    """Master-equation generator for two XX spin chains with a shared drive.

    Each array is an open XX chain of ``n_pairs`` spins with exchange
    ``coupling[b] * (sigma^x sigma^x + sigma^y sigma^y) / 2`` on bond
    ``b`` (a scalar broadcasts to all bonds of both arrays).  The first
    spin of each array is damped at rate ``gamma`` into the correlated
    reservoir with occupation ``nbar`` and cross-correlation ``mbar``.

    The phase of the correlated two-site term is fixed so that, at
    ``mbar = sqrt(nbar (nbar+1))``, the unique fixed point is the pure
    state returned by :func:`entrep.baselines.replicated_state`; the
    opposite phase is unitarily equivalent (redefine ``sigma -> -sigma``
    on one array) and pins the partner state with flipped pair phases.
    """
    _check_spin_pairs(n_pairs)
    try:
        couplings = np.broadcast_to(
            np.asarray(coupling, float), (max(n_pairs - 1, 0),)
        )
    except ValueError as exc:
        raise ConfigInvalid(
            f"cannot broadcast couplings {coupling!r} to {n_pairs - 1} bonds"
        ) from exc
    if not 0.0 < gamma < np.inf:
        raise ConfigInvalid(f"damping rate must be positive and finite, got {gamma}")
    check_drive(nbar, mbar)
    if not np.isfinite(couplings).all():
        raise ConfigInvalid(f"couplings must be finite, got {coupling!r}")

    n_spins = 2 * n_pairs
    ops = _lowering_ops(n_spins)
    dim = 2**n_spins
    hamiltonian = sp.csr_matrix((dim, dim), dtype=complex)
    for array_offset in (0, n_pairs):
        for bond, strength in enumerate(couplings):
            lo = ops[array_offset + bond]
            hi = ops[array_offset + bond + 1]
            hop = (lo.conjugate().T @ hi).tocsr()
            hamiltonian = hamiltonian + strength * (hop + hop.conjugate().T)
    generator = hamiltonian_superop(hamiltonian)
    generator = generator + _thermal_end_drive(
        ops, 0, n_pairs, gamma, nbar, mbar, cross_sign=-1.0
    )
    charge = _array_charge((2,) * n_spins, range(n_pairs))
    return Liouvillian(dim=dim, matrix=generator.tocsr(), charge=charge)


# ---------------------------------------------------------------------------
# adiabatic elimination: general construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EffectiveSpinModel:
    """Reduced spin generator with its memory kernels.

    ``kernel``/``kernel_reversed`` are the 4N x 4N matrices weighting the
    time-ordered and reversed field correlations; ``drift`` is the full
    doubled field drift and ``moments`` the steady second-moment matrix,
    both in the (lowering, raising) stacked ordering.
    """

    liouvillian: Liouvillian
    kernel: np.ndarray
    kernel_reversed: np.ndarray
    drift: np.ndarray
    moments: np.ndarray


def _spin_pair_superop(coeff_left, coeff_right, coeff_mid, sbar) -> sp.csr_matrix:
    """Assemble sum_{jk} of left/right/sandwich quadratic spin terms.

    ``coeff_left`` weights ``s_j s_k rho``, ``coeff_right`` weights
    ``rho s_j s_k`` and ``coeff_mid`` weights ``s_j rho s_k``.
    """
    dim = sbar[0].shape[0]
    q_left = sp.csr_matrix((dim, dim), dtype=complex)
    q_right = sp.csr_matrix((dim, dim), dtype=complex)
    total = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for j, op_j in enumerate(sbar):
        row_left = sp.csr_matrix((dim, dim), dtype=complex)
        row_right = sp.csr_matrix((dim, dim), dtype=complex)
        row_mid = sp.csr_matrix((dim, dim), dtype=complex)
        for k, op_k in enumerate(sbar):
            if coeff_left[j, k] != 0.0:
                row_left = row_left + coeff_left[j, k] * op_k
            if coeff_right[j, k] != 0.0:
                row_right = row_right + coeff_right[j, k] * op_k
            if coeff_mid[j, k] != 0.0:
                row_mid = row_mid + coeff_mid[j, k] * op_k
        q_left = q_left + op_j @ row_left
        q_right = q_right + op_j @ row_right
        if row_mid.nnz:
            total = total + sp.kron(row_mid.T, op_j, format="csr")
    total = total + left_multiply(q_left) + right_multiply(q_right)
    return total.tocsr()


def _stacked_spin_ops(n_pairs: int) -> list[sp.csr_matrix]:
    """The 4N stacked spin operators: raising ops first, then lowering."""
    lowering = _lowering_ops(2 * n_pairs)
    raising = [op.conjugate().T.tocsr() for op in lowering]
    return raising + lowering


def _effective_from_kernels(
    kernel: np.ndarray, kernel_reversed: np.ndarray, n_pairs: int
) -> sp.csr_matrix:
    """Spin generator from the two quadratic kernels.

    The reduction gives ``drho = sum_jk [ T_jk sbar_j sbar_k rho
    + (Tbar^T)_jk rho sbar_j sbar_k - (T^T + Tbar)_jk sbar_j rho sbar_k ]``.
    """
    sbar = _stacked_spin_ops(n_pairs)
    coeff_mid = -(kernel.T + kernel_reversed)
    return _spin_pair_superop(kernel, kernel_reversed.T, coeff_mid, sbar)


def _homogeneous_coupling(cfg: ArrayConfig) -> float:
    values = set(cfg.g)
    if len(values) != 1:
        raise ConfigInvalid(f"need a homogeneous spin-field coupling, got {cfg.g}")
    g = values.pop()
    if g <= 0.0:
        raise ConfigInvalid(f"need a positive spin-field coupling, got {g}")
    return g


def adiabaticity_ratio(cfg: ArrayConfig) -> float:
    """Field-to-spin timescale ratio; elimination needs this << 1.

    The spin timescale is ``1 / (g sqrt(nbar + 1))`` and the field
    timescale the inverse of the smallest decay rate (smallest
    ``|Re eigenvalue|`` of the field ladder drift).
    """
    if all(g == 0.0 for g in cfg.g):
        return 0.0
    g = max(cfg.g)
    field_cfg = replace(cfg, g=(0.0,) * cfg.n_sites)
    rates = np.abs(np.linalg.eigvals(ladder_drift(field_cfg)).real)
    return float(g * np.sqrt(cfg.nbar + 1.0) / rates.min())


def build_effective_general(cfg: ArrayConfig) -> EffectiveSpinModel:
    """Second-order reduced spin generator for an arbitrary array config.

    The field sector (``cfg`` with couplings removed) supplies the exact
    drift ``M = diag(L, conj L)`` and steady stacked moments ``A0``; the
    memory kernels follow by integrating the field correlations,
    ``kernel = g^2 M^{-1} A0`` and ``kernel_reversed = g^2 M^{-1} A0^T``.
    Emits a warning when the timescale-separation ratio exceeds 0.1.
    """
    n_pairs = cfg.n_sites
    _check_spin_pairs(n_pairs)
    g = _homogeneous_coupling(cfg)
    ratio = adiabaticity_ratio(cfg)
    if ratio > 0.1:
        warnings.warn(
            f"timescale-separation ratio {ratio:.3f} > 0.1; "
            "the reduced spin model is unreliable here",
            stacklevel=2,
        )
    field_cfg = replace(cfg, g=(0.0,) * n_pairs)
    ladder = ladder_drift(field_cfg)
    drift = sla.block_diag(ladder, ladder.conj())
    moments = steady_state(field_cfg).stacked()
    kernel = g**2 * np.linalg.solve(drift, moments)
    kernel_reversed = g**2 * np.linalg.solve(drift, moments.T)
    generator = _effective_from_kernels(kernel, kernel_reversed, n_pairs)
    return EffectiveSpinModel(
        liouvillian=Liouvillian(
            dim=4**n_pairs,
            matrix=generator,
            charge=_array_charge((2,) * (2 * n_pairs), range(n_pairs)),
        ),
        kernel=kernel,
        kernel_reversed=kernel_reversed,
        drift=drift,
        moments=moments,
    )


# ---------------------------------------------------------------------------
# adiabatic elimination: closed form for homogeneous lossless arrays
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PatternMatrices:
    """Parity-dependent coupling patterns of the closed-form reduction.

    ``hopping`` (X) carries the coherent part, ``damping`` (Y) the
    dissipative part, ``signs`` (Z) is the alternating diagonal, and
    ``mixed`` is the combination ``(Y + i (J/gamma) X) Z`` retained for
    diagnostics.
    """

    hopping: np.ndarray
    damping: np.ndarray
    signs: np.ndarray
    mixed: np.ndarray


def coupling_pattern_matrices(
    n_sites: int, hop_to_damp_ratio: float = 1.0
) -> PatternMatrices:
    """X/Y/Z pattern matrices for a chain of ``n_sites`` (parity-aware).

    Sites at an even distance ``r`` from the far end form the anchor
    sublattice.  ``Y = s s^T`` with ``s = (-1)^(r/2)`` on anchor sites and
    0 elsewhere.  ``X[j, k]`` is nonzero only for odd ``|j - k|`` whose
    site nearer the far end is an anchor, where it is ``+1`` for
    ``|j - k| = 1 mod 4`` and ``-1`` for ``|j - k| = 3 mod 4``.
    """
    if n_sites < 1:
        raise ConfigInvalid(f"need at least one site, got {n_sites}")
    r = np.arange(n_sites)[::-1]  # distance of each site from the far end
    s = np.where(r % 2 == 0, (-1) ** (r // 2), 0)
    y_mat = np.outer(s, s).astype(float)
    gap = np.abs(np.subtract.outer(r, r))
    anchored = np.minimum.outer(r, r) % 2 == 0
    x_mat = np.where((gap % 2 == 1) & anchored, np.where(gap % 4 == 1, 1.0, -1.0), 0.0)
    signs = np.diag([(-1.0) ** j for j in range(n_sites)])
    mixed = (y_mat + 1j * hop_to_damp_ratio * x_mat) @ signs
    return PatternMatrices(hopping=x_mat, damping=y_mat, signs=signs, mixed=mixed)


@dataclass(frozen=True, eq=False)
class ClosedFormModel:
    """Closed-form reduced spin generator and its ingredients."""

    liouvillian: Liouvillian
    patterns: PatternMatrices
    hopping_rate: float
    damping_rate: float
    coherent_blocks: np.ndarray
    dissipative_blocks: np.ndarray


def closed_form_rates(n_pairs: int, eta: float, zeta: float, g: float) -> tuple[float, float]:
    """Hopping rate J and collective damping rate of the reduction.

    The damping rate depends on the chain-length parity: ``zeta g^2 /
    eta^2`` for even chains, ``g^2 / zeta`` for odd ones.
    """
    hopping = g**2 / eta if n_pairs > 1 else 0.0
    damping = zeta * g**2 / eta**2 if n_pairs % 2 == 0 else g**2 / zeta
    return hopping, damping


def _closed_form_blocks(
    n_pairs: int, nbar: float, mbar: float, hop_to_damp_ratio: float
) -> tuple[np.ndarray, np.ndarray, PatternMatrices]:
    """Assemble the 4N x 4N coherent (X-type) and dissipative (Y-type) blocks.

    The quarter layout follows the stacked spin ordering (raising array
    one, raising array two, lowering array one, lowering array two).
    The cross-array quarters carry the ``mbar`` correlations split
    between the two block types so that the assembly matches the general
    kernel construction exactly.  The single mixed block does not: the
    ``closed-form-vs-general`` validation suite reports its deviation as
    the ``alternative-block-layout-gap`` check.
    """
    pats = coupling_pattern_matrices(n_pairs, hop_to_damp_ratio)
    x_mat, y_mat, signs = pats.hopping, pats.damping, pats.signs
    n = n_pairs
    x_big = np.zeros((4 * n, 4 * n), complex)
    y_big = np.zeros((4 * n, 4 * n), complex)
    quarters = [slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n, 4 * n)]
    q1, q2, q3, q4 = quarters
    yz = y_mat @ signs
    xz = x_mat @ signs
    y_big[q1, q2] = y_big[q2, q1] = -mbar * yz
    y_big[q3, q4] = y_big[q4, q3] = -mbar * yz
    y_big[q1, q3] = y_big[q2, q4] = (1.0 + nbar) * y_mat
    y_big[q3, q1] = y_big[q4, q2] = nbar * y_mat
    x_big[q1, q2] = x_big[q2, q1] = mbar * xz
    x_big[q3, q4] = x_big[q4, q3] = -mbar * xz
    x_big[q1, q3] = x_big[q2, q4] = -(1.0 + nbar) * x_mat
    x_big[q3, q1] = x_big[q4, q2] = nbar * x_mat
    return x_big, y_big, pats


def build_effective_closed_form(
    n_pairs: int,
    *,
    eta: float,
    zeta: float,
    g: float,
    nbar: float,
    mbar: float,
) -> ClosedFormModel:
    """Closed-form reduced spin generator for homogeneous lossless arrays.

    Valid for uniform hopping ``eta``, end-drive rate ``zeta``, uniform
    coupling ``g`` and no local mode losses.  Equivalent to
    :func:`build_effective_general` on the matching config whenever the
    pattern identity ``g^2 inv(field drift) = i J X - gamma Y`` holds;
    tests pin that equivalence to near machine precision.
    """
    _check_spin_pairs(n_pairs)
    if zeta <= 0.0 or g <= 0.0 or (n_pairs > 1 and eta <= 0.0):
        raise ConfigInvalid("need positive zeta, g and (for chains) eta")
    check_drive(nbar, mbar)
    hopping_rate, damping_rate = closed_form_rates(n_pairs, eta, zeta, g)
    ratio = hopping_rate / damping_rate if n_pairs > 1 else 0.0
    x_big, y_big, pats = _closed_form_blocks(n_pairs, nbar, mbar, ratio)
    coeff_left = -damping_rate * y_big - 1j * hopping_rate * x_big
    coeff_right = -damping_rate * y_big + 1j * hopping_rate * x_big
    coeff_mid = 2.0 * damping_rate * y_big.T
    sbar = _stacked_spin_ops(n_pairs)
    generator = _spin_pair_superop(coeff_left, coeff_right, coeff_mid, sbar)
    return ClosedFormModel(
        liouvillian=Liouvillian(
            dim=4**n_pairs,
            matrix=generator,
            charge=_array_charge((2,) * (2 * n_pairs), range(n_pairs)),
        ),
        patterns=pats,
        hopping_rate=hopping_rate,
        damping_rate=damping_rate,
        coherent_blocks=x_big,
        dissipative_blocks=y_big,
    )


# ---------------------------------------------------------------------------
# full truncated cavity+spin oracle
# ---------------------------------------------------------------------------


def default_fock_levels(nbar: float) -> int:
    """Default Fock cutoff (highest retained occupation number)."""
    return max(8, ceil(3.0 * (nbar + 1.0)))


@dataclass(frozen=True)
class TruncationSpec:
    """Controls the Fock truncation of the full-model oracle.

    ``check`` is one of ``auto`` (full recheck at ``n_max + 2`` when it
    fits the superoperator-side budget, else a field-only recheck),
    ``full``, ``field`` or ``none``.

    ``basis`` selects the number basis the driven pair is truncated in.
    ``"bare"`` uses the physical modes; ``"squeezed"`` applies the
    two-mode Bogoliubov transform that turns the correlated drive into
    two uncorrelated thermal reservoirs of occupation
    ``(sqrt((2 nbar + 1)^2 - 4 mbar^2) - 1) / 2``.  Both frames describe
    the same model and report moments for the physical modes, but the
    squeezed frame converges at far smaller ``n_max`` when ``mbar`` is
    close to its physical bound (the bare frame then has to resolve a
    joint mode holding ``nbar + mbar`` photons).
    """

    n_max: int | None = None
    check: str = "auto"
    side_budget: int = 120_000
    basis: str = "bare"

    def __post_init__(self) -> None:
        if self.check not in ("auto", "full", "field", "none"):
            raise ConfigInvalid(f"unknown truncation check mode {self.check!r}")
        if self.basis not in ("bare", "squeezed"):
            raise ConfigInvalid(f"unknown truncation basis {self.basis!r}")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigInvalid(f"need n_max >= 1, got {self.n_max}")


@dataclass(frozen=True, eq=False)
class FockSteadyState:
    """Steady state of the truncated cavity+spin model.

    ``moments`` is the stacked 4N x 4N second-moment matrix of the field
    (same ordering as the Gaussian route); ``spin_dm`` is the reduced
    spin state (None when no spins are coupled).  ``check_mode`` records
    which truncation recheck ran and ``check_shift`` the largest
    second-moment change it saw.
    """

    rho: np.ndarray
    dims: tuple[int, ...]
    n_max: int
    moments: np.ndarray
    spin_dm: np.ndarray | None
    check_mode: str
    check_shift: float


def _squeezed_frame(nbar: float, mbar: float) -> tuple[float, float, float]:
    """Thermal occupation and Bogoliubov coefficients diagonalizing the drive.

    The correlated two-site reservoir ``(nbar, mbar)`` equals two
    uncorrelated thermal reservoirs of occupation ``n_th`` seen through
    ``a_first = c * t_first - s * t_second^dag`` (and symmetrically), with
    ``nu = sqrt((2 nbar + 1)^2 - 4 mbar^2)``, ``n_th = (nu - 1) / 2`` and
    ``cosh(2r) = (2 nbar + 1) / nu``.  The minus sign matches the drive
    convention used throughout this package, which fixes the anomalous
    cross moment to ``<a_first a_second> = -mbar``; consistency checks:
    ``c s nu = mbar`` and ``c^2 n_th + s^2 (n_th + 1) = nbar``.
    """
    nu = sqrt(max((2.0 * nbar + 1.0) ** 2 - 4.0 * mbar**2, 0.0))
    n_th = 0.5 * (nu - 1.0)
    cosh_2r = (2.0 * nbar + 1.0) / nu
    c = sqrt(0.5 * (cosh_2r + 1.0))
    s = sqrt(0.5 * (cosh_2r - 1.0))
    return n_th, c, s


def _fock_liouvillian(
    cfg: ArrayConfig, n_max: int, *, include_spins: bool, basis: str = "bare"
) -> tuple[Liouvillian, tuple[int, ...], list[sp.csr_matrix]]:
    n_levels = n_max + 1
    n_modes = cfg.n_modes
    with_spins = include_spins and any(g > 0.0 for g in cfg.g)
    dims = (n_levels,) * n_modes + ((2,) * n_modes if with_spins else ())
    lower = destroy(n_levels)
    number_ops = [embed_operator({site: lower}, dims) for site in range(n_modes)]
    if basis == "squeezed":
        n_th, coeff_c, coeff_s = _squeezed_frame(cfg.nbar, cfg.mbar)
        first, second = 0, cfg.n_sites
        mode_ops = list(number_ops)
        mode_ops[first] = (
            coeff_c * number_ops[first] - coeff_s * number_ops[second].conjugate().T
        ).tocsr()
        mode_ops[second] = (
            coeff_c * number_ops[second] - coeff_s * number_ops[first].conjugate().T
        ).tocsr()
    else:
        mode_ops = number_ops
    dim = n_levels**n_modes * (2**n_modes if with_spins else 1)

    hamiltonian = sp.csr_matrix((dim, dim), dtype=complex)
    for array_index, offset in enumerate((0, cfg.n_sites)):
        for bond in range(cfg.n_sites - 1):
            hop = (
                mode_ops[offset + bond].conjugate().T @ mode_ops[offset + bond + 1]
            ).tocsr()
            strength = cfg.eta[array_index * (cfg.n_sites - 1) + bond]
            hamiltonian = hamiltonian + strength * (hop + hop.conjugate().T)
    if with_spins:
        spin_ops = [
            embed_operator({n_modes + site: QUBIT_LOWER}, dims)
            for site in range(n_modes)
        ]
        for site in range(n_modes):
            g_site = cfg.g[site % cfg.n_sites]
            if g_site > 0.0:
                coupling = (spin_ops[site].conjugate().T @ mode_ops[site]).tocsr()
                hamiltonian = hamiltonian + g_site * (coupling + coupling.conjugate().T)
    generator = hamiltonian_superop(hamiltonian)
    for site, kappa in enumerate(cfg.kappa):
        if kappa > 0.0:
            generator = generator + lindblad_dissipator(mode_ops[site], kappa)
    if basis == "squeezed":
        # In the Bogoliubov frame the correlated drive is exactly two
        # independent thermal reservoirs on the frame modes.
        for site in (0, cfg.n_sites):
            generator = generator + lindblad_dissipator(
                number_ops[site], cfg.zeta * (n_th + 1.0)
            )
            if n_th > 0.0:
                generator = generator + lindblad_dissipator(
                    number_ops[site].conjugate().T.tocsr(), cfg.zeta * n_th
                )
    else:
        generator = generator + _thermal_end_drive(
            mode_ops, 0, cfg.n_sites, cfg.zeta, cfg.nbar, cfg.mbar, cross_sign=+1.0
        )
    # in the squeezed frame the charge counts frame quanta: each frame
    # operator c t_1 - s t_2^dag lowers it by one, like a bare a_1
    first_array = [site for site in range(len(dims)) if site % n_modes < cfg.n_sites]
    charge = _array_charge(dims, first_array)
    return Liouvillian(dim=dim, matrix=generator.tocsr(), charge=charge), dims, mode_ops


def _field_moments(
    rho: np.ndarray, mode_ops: list[sp.csr_matrix]
) -> np.ndarray:
    """Stacked <abar_j abar_k> matrix from a Fock-space density matrix."""
    n_modes = len(mode_ops)
    stacked = list(mode_ops) + [op.conjugate().T.tocsr() for op in mode_ops]
    moments = np.zeros((2 * n_modes, 2 * n_modes), complex)
    for j, op_j in enumerate(stacked):
        for k, op_k in enumerate(stacked):
            moments[j, k] = (op_j @ (op_k @ rho)).diagonal().sum()
    return moments


def full_cavity_atom_oracle(
    cfg: ArrayConfig, trunc: TruncationSpec | None = None
) -> FockSteadyState:
    """Brute-force steady state of the truncated cavity+spin model.

    Intended as an independent oracle for small systems (single pair of
    sites with spins; a few sites without).  Raises
    :class:`DimensionBudgetExceeded` when the superoperator side would
    exceed the budget and :class:`TruncationUnconverged` when the
    ``n_max + 2`` recheck moves any field second moment by more than
    1e-3 * max(1, nbar).
    """
    trunc = trunc or TruncationSpec()
    n_max = trunc.n_max if trunc.n_max is not None else default_fock_levels(cfg.nbar)

    def superop_side(levels: int, with_spins: bool) -> int:
        factor = 2**cfg.n_modes if with_spins else 1
        return ((levels + 1) ** cfg.n_modes * factor) ** 2

    has_spins = any(g > 0.0 for g in cfg.g)
    if superop_side(n_max, has_spins) > trunc.side_budget:
        raise DimensionBudgetExceeded(
            f"superoperator side {superop_side(n_max, has_spins)} exceeds the "
            f"budget {trunc.side_budget}; reduce n_max or the number of sites"
        )
    liou, dims, mode_ops = _fock_liouvillian(
        cfg, n_max, include_spins=True, basis=trunc.basis
    )
    rho = steady_state_dm(liou)
    moments = _field_moments(rho, mode_ops)
    spin_dm = None
    if has_spins:
        spin_sites = tuple(range(cfg.n_modes, 2 * cfg.n_modes))
        spin_dm = partial_trace(rho, dims, spin_sites)

    check_mode = trunc.check
    check_shift = float("nan")
    if check_mode == "auto":
        check_mode = (
            "full" if superop_side(n_max + 2, has_spins) <= trunc.side_budget else "field"
        )
    if check_mode != "none":
        include = check_mode == "full"
        if include:
            ref_moments = moments
        else:
            ref_liou, _, ref_ops = _fock_liouvillian(
                cfg, n_max, include_spins=False, basis=trunc.basis
            )
            ref_moments = _field_moments(steady_state_dm(ref_liou), ref_ops)
        big_liou, _, big_ops = _fock_liouvillian(
            cfg, n_max + 2, include_spins=include, basis=trunc.basis
        )
        big_moments = _field_moments(steady_state_dm(big_liou), big_ops)
        check_shift = float(np.abs(big_moments - ref_moments).max())
        if check_shift > 1e-3 * max(1.0, cfg.nbar):
            raise TruncationUnconverged(
                f"field second moments shift by {check_shift:.2e} when the Fock "
                f"cutoff grows from {n_max} to {n_max + 2}"
            )
    return FockSteadyState(
        rho=rho,
        dims=dims,
        n_max=n_max,
        moments=moments,
        spin_dm=spin_dm,
        check_mode=check_mode,
        check_shift=check_shift,
    )
