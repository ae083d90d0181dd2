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
  the joint cavity+spin master equation (small systems only), returned
  only at a cutoff that a recheck two quanta higher certifies.

Each route is a master equation quadratic in one stacked list of site
operators, and each is assembled by one routine: the builders fill small
coefficient matrices over their operators, a Hamiltonian matrix ``h``
and a jump matrix ``e``, for :func:`entrep.liouville.gksl_superop`, and
the general reduction hands its one-sided kernels straight to the
assembler under it, :func:`entrep.liouville.quadratic_superop`, which
derives the trace-preserving sandwich term.  The squeezed reservoir
on the two driven end sites is one block of ``e`` (:func:`_end_drive`).

Both spin generators are affine in the drive's cross-correlation
``mbar``: the coefficient code of each (:func:`_xx_coefficients`,
:func:`_effective_split`) splits it into an ``mbar``-free part and a part
per unit ``mbar``.  The builders sum the two at their one ``mbar`` and
assemble once; a sweep over ``mbar`` (:func:`xx_drive_sweep`,
:func:`effective_drive_sweep`) assembles each part once and hands the
``mbar``-free generator and the per-``mbar`` matrix to
:func:`entrep.liouville.steady_state_sweep`, so that each point pays only
for its own factorization.  The effective model's field has one route,
for the builder and the sweep alike: one solve without the
cross-correlation (:func:`entrep.arrays.drive_split`), whose cross
moments per unit ``mbar`` give the moments at any ``mbar``.

Every model lives on a product of sites, each a ``d``-level truncated
boson (a qubit is ``d = 2``), and everything size-dependent follows from
the site dimensions ``dims``: :func:`_lowering_ops` gives each site's
lowering operator, and :func:`check_size` refuses a model whose
superoperator side ``prod(dims)**2`` exceeds the budget
(:data:`SIDE_BUDGET` unless the caller passes one).

Index layout matches :mod:`entrep.arrays`: sites ``0..N-1`` are the first
array, ``N..2N-1`` the second, and the driven pair is ``(0, N)``.  A
Fock model repeats that layout once for the ``2N`` modes and once for
their spins, so one group rule says which array a site is in: the sites
come in groups of ``2N``, and site ``s`` is in array one when ``s mod
2N < N``.  :func:`_array_liouvillian` gives every generator the charge
``N_array1 - N_array2`` of that rule (:func:`_array_charge`) and, when
the two arrays are mirror images (:attr:`entrep.arrays.ArrayConfig.mirrored`),
their exchange (:func:`_array_swap`).
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from math import prod, sqrt

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .arrays import ArrayConfig, drive_split, gauged_drift, read_only
from .errors import (
    ConfigInvalid, DimensionBudgetExceeded, TruncationUnconverged, as_integer, as_real, certify
)
from .gaussian import SchurForm, check_drive, schur_form, uncertainty_margin
from .liouville import (
    Liouvillian,
    gksl_superop,
    partial_trace,
    quadratic_superop,
    steady_state_dm,
    steady_state_sweep,
)

__all__ = [
    "FockSteadyState",
    "SIDE_BUDGET",
    "adiabaticity_ratio",
    "build_effective_closed_form",
    "build_effective_general",
    "build_xx_liouvillian",
    "check_size",
    "coupling_pattern_matrices",
    "effective_drive_sweep",
    "full_cavity_atom_oracle",
    "xx_drive_sweep",
]

#: largest admissible superoperator side ``prod(dims)**2``; it admits
#: 1 to 4 spin pairs (4 pairs: side 65,536, charge-diagonal block 12,870)
SIDE_BUDGET = 120_000


def check_size(dims: tuple[int, ...], budget: int = SIDE_BUDGET) -> None:
    """Refuse a model on sites of dimensions ``dims`` above the side budget.

    Raises :class:`DimensionBudgetExceeded` when the superoperator side
    ``prod(dims)**2`` exceeds ``budget``, naming that side and the side of
    the charge-diagonal block the steady-state solve factors (in two
    swap-parity halves when the arrays are identical).  The charge
    of a site with ``d`` levels is ``0..d-1`` in array one and ``-(d-1)..0``
    in array two, the same spread either way, so the number ``c[q]`` of
    basis states at each charge is the convolution of ``ones(d)`` over all
    sites, and the block holds ``c @ c`` pairs of equal charge, whichever
    sites the group rule of :func:`_array_charge` puts in array one.
    """
    side = prod(dims) ** 2
    if side > budget:
        counts = np.ones(1, dtype=object)  # exact integers at any size
        for levels in dims:
            counts = np.convolve(counts, np.ones(levels, dtype=object))
        raise DimensionBudgetExceeded(
            f"needs superoperator side {side} (charge-diagonal block side "
            f"{counts @ counts:,}), over the budget {budget}"
        )


def _check_spin_pairs(n_pairs: int) -> int:
    """``n_pairs`` as an int; refuse spin models with no pair or above :data:`SIDE_BUDGET`."""
    n_pairs = as_integer("n_pairs", n_pairs, 1)
    check_size(_spin_dims(n_pairs))
    return n_pairs


def _lowering_ops(dims: tuple[int, ...]) -> list[sp.csr_matrix]:
    """Lowering operator of each site of ``dims`` (site 0 leftmost).

    A site with ``d`` levels is a ``d``-level truncated boson (a qubit is
    ``d = 2``).  In basis state ``b`` site ``s`` sits at level ``l = (b //
    stride) % d``, with ``stride = prod(dims[s + 1:])``; its lowering
    operator maps ``b + stride`` to ``sqrt(l + 1) b`` for every ``b`` with
    ``l < d - 1``, so each row holds at most one entry.
    """
    dim = prod(dims)
    states = np.arange(dim)
    ops = []
    for site, levels in enumerate(dims):
        stride = prod(dims[site + 1 :])
        level = states // stride % levels
        lowerable = level < levels - 1
        indptr = np.concatenate(([0], np.cumsum(lowerable)))
        ops.append(
            sp.csr_matrix(
                (np.sqrt(level[lowerable] + 1.0), states[lowerable] + stride, indptr),
                shape=(dim, dim),
            )
        )
    return ops


def _array_charge(dims: tuple[int, ...], n_sites: int) -> np.ndarray:
    """U(1) charge ``N_array1 - N_array2`` of each basis state of ``dims``.

    Sites come in groups of ``2 n_sites`` (the modes, then any spins),
    and site ``s`` is in array one when ``s mod 2 n_sites < n_sites``.  A
    site's level index is its excitation count (Fock number, or 1 for an
    excited qubit), counted positive in array one and negative in array
    two.  Every generator built here conserves it.
    """
    charge = np.zeros((), dtype=np.int64)
    for site, dim in enumerate(dims):
        levels = np.arange(dim) if site % (2 * n_sites) < n_sites else -np.arange(dim)
        charge = np.add.outer(charge, levels)
    return charge.reshape(-1)


def _array_swap(dims: tuple[int, ...], n_sites: int) -> np.ndarray:
    """Basis permutation exchanging the two arrays of a model on ``dims``.

    With the groups of :func:`_array_charge`, site ``s`` of a group trades
    places with site ``s + n_sites`` (mod ``2 n_sites``) of the same
    dimension.  Entry ``b`` is the basis state that ``b`` becomes.  It
    negates :func:`_array_charge`, and a generator of two mirrored arrays
    commutes with it.
    """
    group, offset = np.divmod(np.arange(len(dims)), 2 * n_sites)
    partner = 2 * n_sites * group + (offset + n_sites) % (2 * n_sites)
    return np.arange(prod(dims)).reshape(dims).transpose(partner).reshape(-1)


def _array_liouvillian(
    dims: tuple[int, ...], n_sites: int, generator, identical_arrays: bool
) -> Liouvillian:
    """``generator`` on the sites ``dims`` of two arrays of ``n_sites``.

    It carries the array charge, and the array swap when the two arrays
    are identical.
    """
    return Liouvillian(
        matrix=generator,
        charge=_array_charge(dims, n_sites),
        swap=_array_swap(dims, n_sites) if identical_arrays else None,
    )


def _spin_dims(n_pairs: int) -> tuple[int, ...]:
    """Site dimensions of ``n_pairs`` spin pairs: ``2 n_pairs`` qubits."""
    return (2,) * (2 * n_pairs)


def _stacked_spin_ops(n_pairs: int) -> list[sp.csr_matrix]:
    """The 4N stacked spin operators: raising ops first, then lowering."""
    lowering = _lowering_ops(_spin_dims(n_pairs))
    raising = [op.conjugate().T.tocsr() for op in lowering]
    return raising + lowering


def _end_drive(e: np.ndarray, low, rise, rate: float, nbar: float, top: int) -> np.ndarray:
    """Add the correlated reservoir's ``mbar``-free terms on two end sites to the jump matrix ``e``.

    ``low`` and ``rise`` hold the indices of the two sites' lowering
    operators ``c_1, c_2`` and of their raising partners in the operator
    list of :func:`entrep.liouville.gksl_superop`.  Each site decays at
    ``rate (nbar + 1)`` and is pumped at ``rate nbar``.  Returns the jump
    matrix of the correlated term per unit ``mbar``, ``2 rate (c_1 rho c_2 +
    c_2 rho c_1 - {c_1 c_2, rho}) + h.c.``: ``rate`` on ``[low_1, low_2]``,
    ``[rise_1, rise_2]`` and their mirrors.  The drive at ``mbar`` is ``e``
    plus ``mbar`` times it.

    ``top`` is the sites' top level (1 for qubits, the cutoff for Fock
    sites).  The assembly doubles each weight and sums both sites' onto one
    diagonal entry, whose largest is the decay out of the top level, ``4
    top rate (nbar + 1)``: ``4 rate (nbar + 1)`` on qubit ends.  When ``nbar
    (top - 1) > 1`` the decay and pump out of the level below are larger,
    ``4 rate ((top - 1) (nbar + 1) + top nbar)``.  A drive where that sum
    overflows is refused as ConfigInvalid naming it.
    """
    if nbar * (top - 1) > 1.0:
        below = (nbar + 1.0) * (top - 1) + nbar * top
        name, largest = f"4 rate ({top - 1} (nbar + 1) + {top} nbar)", 4.0 * rate * below
    else:
        name, largest = f"{4 * top} rate (nbar + 1)", 4.0 * top * rate * (nbar + 1.0)
    as_real(f"{name} of the end drive", largest)
    low, rise = np.asarray(low), np.asarray(rise)
    e[low, rise] += rate * (nbar + 1.0)
    e[rise, low] += rate * nbar
    per_mbar = np.zeros_like(e)
    per_mbar[low, low[::-1]] = per_mbar[rise, rise[::-1]] = rate
    return per_mbar


def _xx_coefficients(
    n_pairs: int, coupling, gamma: float, nbar: float
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``n_pairs`` as an int and the GKSL coefficients of :func:`build_xx_liouvillian`.

    Returns ``h``, the ``mbar``-free jump matrix ``e`` and the jump matrix per
    unit ``mbar``: the generator at ``mbar`` has ``e + mbar * per_mbar``.
    Refuses every input but ``mbar`` as :func:`build_xx_liouvillian` does.
    """
    n_pairs = _check_spin_pairs(n_pairs)
    raw = np.asarray(coupling, dtype=object)
    couplings = np.array([as_real("coupling", value) for value in raw.flat]).reshape(raw.shape)
    # the commutator's two sides add in the real basis of the steady solve
    as_real("2 coupling", 2.0 * float(np.abs(couplings).max(initial=0.0)))
    try:
        couplings = np.broadcast_to(couplings, (max(n_pairs - 1, 0),))
    except ValueError as exc:
        raise ConfigInvalid(
            f"cannot broadcast couplings {coupling!r} to {n_pairs - 1} bonds"
        ) from exc
    gamma = as_real("gamma", gamma, 0.0, strict=True)
    nbar = check_drive(nbar, 0.0)[0]

    n_spins = 2 * n_pairs
    # H = sum_jk h[j, k] s_j^+ s_k^-: raising ops are rows 0..n_spins-1
    # of the stacked list, lowering ops the next n_spins
    chain = np.diag(couplings, 1) + np.diag(couplings, -1)
    h = np.zeros((2 * n_spins, 2 * n_spins))
    h[:n_spins, n_spins:] = sla.block_diag(chain, chain)
    e = np.zeros_like(h)
    ends = np.array([0, n_pairs])
    # the opposite phase of the correlated term (see build_xx_liouvillian)
    per_mbar = -_end_drive(e, ends + n_spins, ends, gamma, nbar, 1)
    return n_pairs, h, e, per_mbar


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

    The operators are the stacked spin operators (raising, then
    lowering); ``h`` holds each array's bonds between a raising and a
    lowering operator, and ``e`` the end drive.  The generator is affine
    in ``mbar``; :func:`xx_drive_sweep` solves a sweep of it.
    """
    n_pairs, h, e, per_mbar = _xx_coefficients(n_pairs, coupling, gamma, nbar)
    mbar = check_drive(nbar, mbar)[1]
    # both arrays have the same bonds, so the model is swap-symmetric
    generator = gksl_superop(_stacked_spin_ops(n_pairs), h, e + mbar * per_mbar)
    return _array_liouvillian(_spin_dims(n_pairs), n_pairs, generator, True)


def xx_drive_sweep(
    n_pairs: int, coupling, gamma: float, nbar: float, mbars
) -> Iterator[np.ndarray]:
    """Steady state of :func:`build_xx_liouvillian` at each ``mbar`` of ``mbars``, in order.

    That is, of ``build_xx_liouvillian(n_pairs, coupling, gamma, nbar, mbar)``.

    The generator is ``L_0 + mbar L_1``: both parts are assembled here, once,
    and :func:`entrep.liouville.steady_state_sweep` solves the points in
    order, each ``mbar`` refused as the builder refuses it when its state
    is asked for.  Each state is that of the builder's generator up to
    round-off (the parts sum in another order).
    """
    n_pairs, h, e, per_mbar = _xx_coefficients(n_pairs, coupling, gamma, nbar)
    ops = _stacked_spin_ops(n_pairs)
    free = _array_liouvillian(_spin_dims(n_pairs), n_pairs, gksl_superop(ops, h, e), True)
    checked = (check_drive(nbar, mbar)[1] for mbar in mbars)
    return steady_state_sweep(free, gksl_superop(ops, np.zeros_like(h), per_mbar), checked)


# ---------------------------------------------------------------------------
# adiabatic elimination: general construction
# ---------------------------------------------------------------------------


def adiabaticity_ratio(cfg: ArrayConfig) -> float:
    """Field-to-spin timescale ratio; elimination needs this << 1.

    The spin timescale is ``1 / (g sqrt(nbar + 1))`` and the field
    timescale the inverse of the smallest decay rate (smallest ``|Re
    eigenvalue|`` of the field ladder drift's two array blocks, read off
    their Schur forms).  Raises NotHurwitz when the field has no steady state.
    """
    if cfg.is_gaussian:
        return 0.0
    return _field_ratio(cfg, schur_form(gauged_drift(cfg.field_only)))


def _field_ratio(cfg: ArrayConfig, forms: SchurForm) -> float:
    """:func:`adiabaticity_ratio` from the field's Schur forms already at hand."""
    rates = np.abs(forms.t.diagonal(axis1=-2, axis2=-1))
    return float(max(cfg.g) * np.sqrt(cfg.nbar + 1.0) / rates.min())


def _memory_kernels(
    forms: SchurForm, g: float, moments: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided coefficients ``g^2 M^{-1} A0``, ``(g^2 M^{-1} A0^T)^T`` of stacked moments ``A0``.

    ``M = diag(L_1, L_2, conj L_1, conj L_2)`` is applied block by block on
    the field's Schur forms; the coefficients are linear in ``A0``.
    """
    n_pairs = len(moments) // 4
    # the rows of A0 and A0^T in M's four N-row blocks L_1, L_2, conj L_1, conj L_2;
    # conj(L)^-1 r = conj(L^-1 conj r), so one solve on L_1, L_2 serves all four
    rhs = np.concatenate((moments, moments.T), axis=1).reshape(4, n_pairs, -1)
    both = forms.solve(np.concatenate((rhs[:2], rhs[2:].conj()), axis=-1), [0.0])[0]
    plain, conjugate = np.split(both, 2, axis=-1)
    solved = g**2 * np.concatenate((plain, conjugate.conj())).reshape(4 * n_pairs, -1)
    kernel, kernel_reversed = np.split(solved, 2, axis=1)
    return kernel, kernel_reversed.T


def _effective_split(cfg: ArrayConfig) -> tuple:
    """What the effective builder and its drive sweep share, from one field solve.

    Refuses a pair count as every spin model does, and a spin-field
    coupling ``g`` that is not one value > 0 on every pair, or whose ``g *
    g`` (the memory kernels take ``g**2``) overflows.  Solves the field
    once without its cross-correlation (:func:`entrep.arrays.drive_split`)
    and warns the public caller when the timescale-separation ratio, read
    off that solve's Schur forms, exceeds 0.1.  Returns ``n_pairs``, ``g``,
    the ``mbar``-free field state, its cross moments per unit ``mbar`` and
    the stacked moments per unit ``mbar``: the field at ``mbar`` has the
    stacked moments ``free.stacked() + mbar * per_mbar``.
    """
    n_pairs = _check_spin_pairs(cfg.n_sites)
    if len(set(cfg.g)) != 1:
        raise ConfigInvalid(f"need a homogeneous spin-field coupling, got {cfg.g}")
    g = as_real("g", cfg.g[0], 0.0, strict=True)
    as_real("g * g", g * g)
    free, cross = drive_split(cfg.field_only)
    ratio = _field_ratio(cfg, free.forms)
    if ratio > 0.1:
        warnings.warn(
            f"timescale-separation ratio {ratio:.3f} > 0.1; "
            "the reduced spin model is unreliable here",
            stacklevel=3,
        )
    # the stacked moments are linear in M: with M alone their difference is its quarters
    per_mbar = replace(free, m=cross).stacked() - free.stacked()
    return n_pairs, g, free, cross, per_mbar


def build_effective_general(cfg: ArrayConfig) -> Liouvillian:
    """Second-order reduced spin generator for an arbitrary array config.

    The field sector (``cfg.field_only``) is solved once without its
    cross-correlation (:func:`_effective_split`, as for a sweep): that
    solve supplies the Schur forms of ``L_1`` and ``L_2``, which serve
    every block of the exact drift ``M = diag(L_1, L_2, conj L_1, conj
    L_2)``, and the stacked moments ``A0`` at ``cfg.mbar`` are its moments
    plus ``cfg.mbar`` times those per unit ``mbar``, certified physical
    (:func:`entrep.gaussian.uncertainty_margin`) as a sweep point is.  The
    memory kernels follow by integrating the field correlations, ``kernel
    = g^2 M^{-1} A0`` and ``kernel_reversed = g^2 M^{-1} A0^T``; ``kernel``
    and its reversed partner's transpose are the one-sided coefficients of
    :func:`entrep.liouville.quadratic_superop` over the stacked spin
    operators, assembled once.  ``M^{-1}`` is applied block by block on
    the forms.  Emits a warning when the timescale-separation ratio, read
    off the same forms, exceeds 0.1.  The generator is affine in ``mbar``;
    :func:`effective_drive_sweep` solves a sweep of it.
    """
    n_pairs, g, free, cross, per_mbar = _effective_split(cfg)
    uncertainty_margin(free.n1, free.n2, cfg.mbar * cross)
    kernels = _memory_kernels(free.forms, g, free.stacked() + cfg.mbar * per_mbar)
    # drho = sum_jk [T_jk s_j s_k rho + (Tbar^T)_jk rho s_j s_k
    #                - (T^T + Tbar)_jk s_j rho s_k]
    generator = quadratic_superop(_stacked_spin_ops(n_pairs), *kernels)
    return _array_liouvillian(_spin_dims(n_pairs), n_pairs, generator, cfg.mirrored)


def effective_drive_sweep(cfg: ArrayConfig, mbars) -> Iterator[np.ndarray]:
    """Steady state of ``build_effective_general(replace(cfg, mbar=mbar))`` for each of ``mbars``.

    Only the field's cross moments depend on ``mbar``, linearly
    (:func:`entrep.arrays.drive_split`), and the kernels are linear in the
    moments, so the generator is ``L_0 + mbar L_1``: the field is solved
    once (:func:`_effective_split`, as for the builder), both parts are
    assembled here, once, and :func:`entrep.liouville.steady_state_sweep`
    solves the points in order.  The timescale-separation ratio does not
    depend on ``mbar`` and is checked once.  Each ``mbar`` is refused as
    the config refuses it, and its field moments are certified physical
    (:func:`entrep.gaussian.uncertainty_margin`), when its state is asked
    for.  Each state is that of the builder's generator up to round-off.
    """
    n_pairs, g, free, cross, per_mbar = _effective_split(cfg)
    ops = _stacked_spin_ops(n_pairs)

    def part(moments):
        return quadratic_superop(ops, *_memory_kernels(free.forms, g, moments))

    def checked():
        for mbar in mbars:
            mbar = check_drive(cfg.nbar, mbar)[1]
            uncertainty_margin(free.n1, free.n2, mbar * cross)
            yield mbar

    # each part is passed unnamed, so that only its wrapped copy outlives the wrap
    return steady_state_sweep(
        _array_liouvillian(_spin_dims(n_pairs), n_pairs, part(free.stacked()), cfg.mirrored),
        part(per_mbar),
        checked(),
    )


# ---------------------------------------------------------------------------
# adiabatic elimination: closed form for homogeneous lossless arrays
# ---------------------------------------------------------------------------


def coupling_pattern_matrices(n_sites: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pattern matrices ``(X, Y, Z)`` for a chain of ``n_sites`` (parity-aware).

    The hopping pattern X carries the coherent part of the closed-form
    reduction, the damping pattern Y the dissipative part, and Z is the
    alternating sign diagonal ``diag((-1)^j)``.
    Sites at an even distance ``r`` from the far end form the anchor
    sublattice.  ``Y = s s^T`` with ``s = (-1)^(r/2)`` on anchor sites and
    0 elsewhere.  ``X[j, k]`` is nonzero only for odd ``|j - k|`` whose
    site nearer the far end is an anchor, where it is ``+1`` for
    ``|j - k| = 1 mod 4`` and ``-1`` for ``|j - k| = 3 mod 4``.
    """
    n_sites = as_integer("n_sites", n_sites, 1)
    r = np.arange(n_sites)[::-1]  # distance of each site from the far end
    s = np.where(r % 2 == 0, (-1) ** (r // 2), 0)
    y_mat = np.outer(s, s).astype(float)
    gap = np.abs(np.subtract.outer(r, r))
    anchored = np.minimum.outer(r, r) % 2 == 0
    x_mat = np.where((gap % 2 == 1) & anchored, np.where(gap % 4 == 1, 1.0, -1.0), 0.0)
    signs = np.diag([(-1.0) ** j for j in range(n_sites)])
    return x_mat, y_mat, signs


def closed_form_rates(n_pairs: int, eta: float, zeta: float, g: float) -> tuple[float, float]:
    """Hopping rate J and collective damping rate of the reduction.

    The damping rate depends on the chain-length parity: ``zeta g^2 /
    eta^2`` for even chains, ``g^2 / zeta`` for odd ones.  A rate that is
    not finite, or a damping rate that is not positive, is refused as
    ConfigInvalid naming it.
    """
    name = "J"
    try:
        hopping = g**2 / eta if n_pairs > 1 else 0.0
        name = "gamma"
        damping = zeta * g**2 / eta**2 if n_pairs % 2 == 0 else g**2 / zeta
    except (OverflowError, ZeroDivisionError) as exc:  # e.g. 1e200**2, or 1 / 1e-200**2
        raise ConfigInvalid(f"closed-form rate {name} overflows the float range") from exc
    return (
        as_real("closed-form rate J", hopping),
        as_real("closed-form rate gamma", damping, 0.0, strict=True),
    )


def _closed_form_blocks(
    n_pairs: int, nbar: float, mbar: float
) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the 4N x 4N coherent (X-type) and dissipative (Y-type) blocks.

    The quarter layout follows the stacked spin ordering (raising array
    one, raising array two, lowering array one, lowering array two).
    The cross-array quarters carry the ``mbar`` correlations split
    between the two block types so that the assembly matches the general
    kernel construction exactly.  The single mixed block does not: the
    ``closed-form-vs-general`` validation suite reports its deviation as
    the ``alternative-block-layout-gap`` check.
    """
    x_mat, y_mat, signs = coupling_pattern_matrices(n_pairs)
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
    return x_big, y_big


def build_effective_closed_form(
    n_pairs: int,
    *,
    eta: float,
    zeta: float,
    g: float,
    nbar: float,
    mbar: float,
) -> Liouvillian:
    """Closed-form reduced spin generator for homogeneous lossless arrays.

    Valid for uniform hopping ``eta``, end-drive rate ``zeta``, uniform
    coupling ``g`` and no local mode losses.  Equivalent to
    :func:`build_effective_general` on the matching config whenever the
    pattern identity ``g^2 inv(field drift) = i J X - gamma Y`` holds;
    tests pin that equivalence to near machine precision.  The GKSL
    coefficients over the stacked spin operators are ``h = J X_big`` and
    ``e = gamma Y_big^T``.  ``eta``, ``zeta``, ``g`` and the rates J and
    gamma they give must be finite, all but J positive (gamma may underflow).
    """
    n_pairs = _check_spin_pairs(n_pairs)
    eta = as_real("eta", eta, 0.0, strict=True)
    zeta = as_real("zeta", zeta, 0.0, strict=True)
    g = as_real("g", g, 0.0, strict=True)
    nbar, mbar = check_drive(nbar, mbar)
    hopping_rate, damping_rate = closed_form_rates(n_pairs, eta, zeta, g)
    x_big, y_big = _closed_form_blocks(n_pairs, nbar, mbar)
    generator = gksl_superop(
        _stacked_spin_ops(n_pairs), hopping_rate * x_big, damping_rate * y_big.T
    )
    return _array_liouvillian(_spin_dims(n_pairs), n_pairs, generator, True)


# ---------------------------------------------------------------------------
# full truncated cavity+spin oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FockSteadyState:
    """Steady state of the truncated cavity+spin model.

    ``moments`` is the stacked 4N x 4N second-moment matrix of the field
    (same ordering as the Gaussian route); ``spin_dm`` is the reduced
    spin state (None when no spins are coupled).  ``check_mode`` records
    which truncation recheck certified the cutoff (``"full"`` or
    ``"field"``) and ``check_shift`` the largest second-moment change it
    saw.  The arrays are read-only.
    """

    rho: np.ndarray
    moments: np.ndarray
    spin_dm: np.ndarray | None
    check_mode: str
    check_shift: float

    def __post_init__(self) -> None:
        for field in ("rho", "moments", "spin_dm"):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, read_only(getattr(self, field), None))


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


def _stacked(lowering: list[sp.csr_matrix]) -> list[sp.csr_matrix]:
    """Lowering operators followed by their raising partners."""
    return lowering + [op.conjugate().T.tocsr() for op in lowering]


def _fock_dims(cfg: ArrayConfig, n_max: int) -> tuple[int, ...]:
    """Site dimensions of the truncated model: ``2N`` modes, then any spins.

    The model has spins exactly when some coupling is on (``not
    cfg.is_gaussian``); its field-only model is that of ``cfg.field_only``.
    """
    return (n_max + 1,) * cfg.n_modes + (() if cfg.is_gaussian else (2,) * cfg.n_modes)


def _fock_liouvillian(
    cfg: ArrayConfig, n_max: int, basis: str = "bare"
) -> tuple[Liouvillian, list[sp.csr_matrix], np.ndarray]:
    """Generator of the Fock-truncated cavity+spin model, its field operators and frame.

    The operators are the truncation-basis lowering operators ``t_s`` of
    the ``2N`` modes, their raising partners and, with spins, the spin
    lowering and raising operators.  The rows of the real ``frame`` write
    the stacked physical field operators ``(a_0 ... a_{2N-1}, a_0^dag
    ...)`` in the stacked ``t_s``: the identity in the bare basis, the
    Bogoliubov transform of :func:`_squeezed_frame` on the driven pair in
    the squeezed one.  Hopping, spin coupling and local losses are
    coefficient matrices ``h`` and ``e`` over the physical operators,
    carried to the truncation basis as ``B^T h B`` and ``B^T e B`` (``B``
    is ``frame`` with the spin operators kept).  The drive is the
    correlated reservoir on the physical end modes in the bare basis and,
    exactly, two thermal reservoirs on the frame modes in the squeezed one.
    """
    n_modes = cfg.n_modes
    dims = _fock_dims(cfg, n_max)
    lowering = _lowering_ops(dims)
    field_ops = _stacked(lowering[:n_modes])
    spin_ops = _stacked(lowering[n_modes:])  # empty without spins
    n_ops = len(field_ops) + len(spin_ops)
    # operator indices: t_s at s, t_s^dag at n_modes + s, and the spin
    # lowering and raising operators of mode s at 2 n_modes + s and 3 n_modes + s
    modes = np.arange(n_modes)
    chains = np.reshape(cfg.eta, (2, cfg.n_sites - 1))
    h = np.zeros((n_ops, n_ops))
    h[n_modes : 2 * n_modes, :n_modes] = sla.block_diag(
        *(np.diag(rates, 1) + np.diag(rates, -1) for rates in chains)
    )
    if spin_ops:
        g_modes = np.tile(cfg.g, 2)
        h[3 * n_modes + modes, modes] = g_modes
        h[n_modes + modes, 2 * n_modes + modes] = g_modes
    e = np.zeros_like(h)
    e[modes, n_modes + modes] = cfg.kappa
    ends = np.array(cfg.driven_modes)
    frame = np.eye(2 * n_modes)
    if basis == "squeezed":
        n_th, coeff_c, coeff_s = _squeezed_frame(cfg.nbar, cfg.mbar)
        low, rise = ends, n_modes + ends
        frame[low, low] = frame[rise, rise] = coeff_c
        frame[low, rise[::-1]] = frame[rise, low[::-1]] = -coeff_s
        full = sla.block_diag(frame, np.eye(len(spin_ops)))
        h = full.T @ h @ full
        e = full.T @ e @ full
        _end_drive(e, low, rise, cfg.zeta, n_th, n_max)
    else:
        e += cfg.mbar * _end_drive(e, ends, n_modes + ends, cfg.zeta, cfg.nbar, n_max)
    generator = gksl_superop(field_ops + spin_ops, h, e)
    # in the squeezed frame the charge counts frame quanta: each frame
    # operator c t_1 - s t_2^dag lowers it by one, like a bare a_1
    liouvillian = _array_liouvillian(dims, cfg.n_sites, generator, cfg.mirrored)
    return liouvillian, field_ops, frame


def _field_moments(
    rho: np.ndarray, field_ops: list[sp.csr_matrix], frame: np.ndarray
) -> np.ndarray:
    """Stacked <abar_j abar_k> matrix from a Fock-space density matrix.

    With the physical operators ``frame @ field_ops``, the moments are
    ``frame [tr(t_j t_k rho)] frame^T``.  The sparse product of the
    stacked operators with themselves holds every ``t_j t_k`` as a block;
    each of its entries ``(t_j t_k)[x, z]`` adds ``rho[z, x]`` times
    itself to ``tr(t_j t_k rho)``.
    """
    dim = rho.shape[0]
    n_ops = len(field_ops)
    products = (sp.vstack(field_ops, format="csr") @ sp.hstack(field_ops, format="csr")).tocoo()
    j, x = np.divmod(products.row, dim)
    k, z = np.divmod(products.col, dim)
    traces = sp.coo_matrix(
        (products.data * rho[z, x], (j, k)), shape=(n_ops, n_ops)
    ).toarray()
    return frame @ traces @ frame.T


def _fock_solve(cfg: ArrayConfig, n_max: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """Steady state and field moments of the truncated model."""
    liou, field_ops, frame = _fock_liouvillian(cfg, n_max, basis)
    rho = steady_state_dm(liou)
    return rho, _field_moments(rho, field_ops, frame)


def full_cavity_atom_oracle(
    cfg: ArrayConfig, n_max: int, *, basis: str = "bare", budget: int = SIDE_BUDGET
) -> FockSteadyState:
    """Brute-force steady state of the truncated cavity+spin model at a certified cutoff.

    Intended as an independent oracle for small systems (single pair of
    sites with spins; a few sites without).  ``n_max`` is the highest
    retained occupation number, in the physical modes (``basis="bare"``)
    or in the two-mode Bogoliubov frame that turns the correlated drive
    into two thermal reservoirs of occupation ``(sqrt((2 nbar + 1)^2 - 4
    mbar^2) - 1) / 2`` (``"squeezed"``).  Both report moments for the
    physical modes, but the squeezed frame converges at far smaller
    ``n_max`` when ``mbar`` is near its bound (the bare frame then has to
    resolve a joint mode holding ``nbar + mbar`` photons).

    Every call certifies its cutoff: a recheck at ``n_max + 2`` must move
    no field second moment by more than 1e-3 * max(1, nbar), else
    :class:`TruncationUnconverged`.  The recheck is the full model at
    ``n_max + 2`` when it fits ``budget``, else the field-only model
    (``cfg.field_only``) at ``n_max`` and ``n_max + 2``; a model without
    spins is its own field-only model, so it is only ever rechecked in
    full.  Every size is checked against ``budget`` (:func:`check_size`)
    before the first solve.
    """
    n_max = as_integer("n_max", n_max, 1)
    budget = as_integer("budget", budget, 1)
    if basis not in ("bare", "squeezed"):
        raise ConfigInvalid(f"unknown truncation basis {basis!r}")
    dims = _fock_dims(cfg, n_max)
    check_size(dims, budget)
    check_mode, check_cfg = "full", cfg
    try:
        check_size(_fock_dims(cfg, n_max + 2), budget)
    except DimensionBudgetExceeded:
        # without spins the field-only model is the full one, refused here too
        check_size(_fock_dims(cfg.field_only, n_max + 2), budget)
        check_mode, check_cfg = "field", cfg.field_only
    rho, moments = _fock_solve(cfg, n_max, basis)
    ref_moments = moments if check_mode == "full" else _fock_solve(check_cfg, n_max, basis)[1]
    big_moments = _fock_solve(check_cfg, n_max + 2, basis)[1]
    check_shift = float(np.abs(big_moments - ref_moments).max())
    what = f"Fock cutoff {n_max} -> {n_max + 2}: largest field second-moment shift"
    certify(check_shift, 1e-3 * max(1.0, cfg.nbar), TruncationUnconverged, what)
    spin_dm = None
    if not cfg.is_gaussian:
        spin_dm = partial_trace(rho, dims, tuple(range(cfg.n_modes, 2 * cfg.n_modes)))
    return FockSteadyState(
        rho=rho,
        moments=moments,
        spin_dm=spin_dm,
        check_mode=check_mode,
        check_shift=check_shift,
    )
