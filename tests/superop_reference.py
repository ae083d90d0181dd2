"""Per-term reference construction of the spin and Fock generators.

``entrep`` assembles every generator from coefficient matrices over one
stacked operator list (:func:`entrep.liouville.gksl_superop`).  This
module keeps the construction it replaced: one Kronecker superoperator
per commutator, jump and correlated-drive term (:func:`left_multiply`,
:func:`right_multiply`, :func:`sandwich`), summed one at a time, with
the squeezed frame's Bogoliubov operators rebuilt as sparse matrices,
and the Kronecker-chain site operators (:func:`destroy`,
:func:`embed_operator`) it is built from.  Tests compare the builders
against it, check any generator's trace preservation with
:func:`trace_defect`, and take its image of an operator with :func:`apply`;
nothing in ``src`` imports it.  It also keeps the effective builder's
single-field route (:func:`effective_generator`): the field solved at the
config's own ``mbar``, not split into an ``mbar``-free part and a part
per unit ``mbar``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from entrep.arrays import ArrayConfig, steady_state
from entrep.errors import ConfigInvalid
from entrep.liouville import Liouvillian, quadratic_superop, unvec, vec
from entrep.spins import _memory_kernels, _squeezed_frame, _stacked_spin_ops

#: lowering operator in the (ground, excited) qubit basis
QUBIT_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


def _csr(op) -> sp.csr_matrix:
    return op.tocsr() if sp.issparse(op) else sp.csr_matrix(np.asarray(op))


def destroy(n_levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``n_levels`` Fock states."""
    if n_levels < 2:
        raise ConfigInvalid(f"need at least two Fock levels, got {n_levels}")
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1)


def embed_operator(site_ops: dict[int, np.ndarray], dims: tuple[int, ...]) -> sp.csr_matrix:
    """Tensor product acting as given operators on selected sites.

    Site 0 is the leftmost (most significant) tensor factor, matching the
    row-major ``reshape(dims)`` convention of ``entrep``.
    """
    out = sp.identity(1, format="csr")
    for site, dim in enumerate(dims):
        factor = _csr(site_ops[site]) if site in site_ops else sp.identity(dim, format="csr")
        if factor.shape != (dim, dim):
            raise ConfigInvalid(
                f"operator on site {site} has shape {factor.shape}, expected {(dim, dim)}"
            )
        out = sp.kron(out, factor, format="csr")
    return out


def trace_defect(liouvillian: Liouvillian) -> float:
    """Max deviation of the adjoint generator from annihilating identity."""
    id_vec = vec(np.eye(liouvillian.dim))
    return float(np.abs(id_vec @ liouvillian.matrix).max())


def apply(liouvillian: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """The generator's image of the operator ``rho``."""
    return unvec(liouvillian.matrix @ vec(rho), liouvillian.dim)


def left_multiply(op) -> sp.csr_matrix:
    """Superoperator of ``rho -> op @ rho``."""
    mat = _csr(op)
    return sp.kron(sp.identity(mat.shape[0], format="csr"), mat, format="csr")


def right_multiply(op) -> sp.csr_matrix:
    """Superoperator of ``rho -> rho @ op``."""
    mat = _csr(op)
    return sp.kron(mat.T, sp.identity(mat.shape[0], format="csr"), format="csr")


def sandwich(left_op, right_op) -> sp.csr_matrix:
    """Superoperator of ``rho -> left_op @ rho @ right_op``."""
    return sp.kron(_csr(right_op).T, _csr(left_op), format="csr")


def hamiltonian_superop(hamiltonian) -> sp.csr_matrix:
    """Superoperator of ``rho -> -i [H, rho]``."""
    mat = _csr(hamiltonian)
    eye = sp.identity(mat.shape[0], format="csr")
    return -1j * (sp.kron(eye, mat, format="csr") - sp.kron(mat.T, eye, format="csr"))


def lindblad_dissipator(c_op, rate: float = 1.0) -> sp.csr_matrix:
    """``rate * (2 c rho c^dag - c^dag c rho - rho c^dag c)`` as a superoperator."""
    c = _csr(c_op)
    cdag = c.conjugate().T.tocsr()
    cdag_c = (cdag @ c).tocsr()
    return rate * (
        2.0 * sandwich(c, cdag) - left_multiply(cdag_c) - right_multiply(cdag_c)
    )


def correlated_drive(c_1, c_2, rate: float) -> sp.csr_matrix:
    """``rate * (c1 rho c2 + c2 rho c1 - c1 c2 rho - rho c1 c2 + h.c.)``, commuting ``c1, c2``."""
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


def thermal_end_drive(ops, first, second, rate, nbar, mbar, cross_sign) -> sp.csr_matrix:
    """Thermal + correlated drive acting on the two end sites of a pair."""
    total = None
    for site in (first, second):
        term = lindblad_dissipator(ops[site], rate * (nbar + 1.0))
        term = term + lindblad_dissipator(ops[site].conjugate().T.tocsr(), rate * nbar)
        total = term if total is None else total + term
    return total + correlated_drive(ops[first], ops[second], cross_sign * 2.0 * rate * mbar)


def xx_generator(n_pairs: int, coupling, gamma: float, nbar: float, mbar: float):
    """Generator of :func:`entrep.spins.build_xx_liouvillian`, bond by bond."""
    couplings = np.broadcast_to(np.asarray(coupling, float), (max(n_pairs - 1, 0),))
    n_spins = 2 * n_pairs
    dims = (2,) * n_spins
    ops = [embed_operator({site: QUBIT_LOWER}, dims) for site in range(n_spins)]
    dim = 2**n_spins
    hamiltonian = sp.csr_matrix((dim, dim), dtype=complex)
    for array_offset in (0, n_pairs):
        for bond, strength in enumerate(couplings):
            lo = ops[array_offset + bond]
            hi = ops[array_offset + bond + 1]
            hop = (lo.conjugate().T @ hi).tocsr()
            hamiltonian = hamiltonian + strength * (hop + hop.conjugate().T)
    generator = hamiltonian_superop(hamiltonian)
    generator = generator + thermal_end_drive(ops, 0, n_pairs, gamma, nbar, mbar, -1.0)
    return generator.tocsr()


def effective_generator(cfg: ArrayConfig) -> sp.csr_matrix:
    """Generator of :func:`entrep.spins.build_effective_general` from the field at ``cfg.mbar``.

    One steady solve of ``cfg.field_only`` (:func:`entrep.arrays.steady_state`)
    gives the Schur forms and the stacked moments at ``cfg.mbar``; their
    memory kernels are assembled once, with the round-off kept.
    """
    field = steady_state(cfg.field_only)
    kernels = _memory_kernels(field.forms, cfg.g[0], field.stacked())
    return quadratic_superop(_stacked_spin_ops(cfg.n_sites), *kernels)


def fock_generator(cfg: ArrayConfig, n_max: int, basis: str = "bare"):
    """Generator and physical mode operators of the truncated cavity+spin model.

    Term by term, in the order of :func:`entrep.spins._fock_liouvillian`;
    in the squeezed basis the frame operators are rebuilt as sparse
    Bogoliubov combinations of the truncation-basis ones.
    """
    n_levels = n_max + 1
    n_modes = cfg.n_modes
    with_spins = any(g > 0.0 for g in cfg.g)
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
            embed_operator({n_modes + site: QUBIT_LOWER}, dims) for site in range(n_modes)
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
        for site in (0, cfg.n_sites):
            generator = generator + lindblad_dissipator(
                number_ops[site], cfg.zeta * (n_th + 1.0)
            )
            if n_th > 0.0:
                generator = generator + lindblad_dissipator(
                    number_ops[site].conjugate().T.tocsr(), cfg.zeta * n_th
                )
    else:
        generator = generator + thermal_end_drive(
            mode_ops, 0, cfg.n_sites, cfg.zeta, cfg.nbar, cfg.mbar, +1.0
        )
    return generator.tocsr(), mode_ops


def field_moments(rho: np.ndarray, mode_ops) -> np.ndarray:
    """Stacked ``<abar_j abar_k>`` of the physical mode operators, entry by entry."""
    n_modes = len(mode_ops)
    stacked = list(mode_ops) + [op.conjugate().T.tocsr() for op in mode_ops]
    moments = np.zeros((2 * n_modes, 2 * n_modes), complex)
    for j, op_j in enumerate(stacked):
        for k, op_k in enumerate(stacked):
            moments[j, k] = (op_j @ (op_k @ rho)).diagonal().sum()
    return moments
