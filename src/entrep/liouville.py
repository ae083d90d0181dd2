"""Vectorized master-equation machinery for finite-dimensional models.

Vectorization is column-stacking throughout: ``vec(A X B) = (B^T kron A)
vec(X)``, fixed here in one place and round-trip tested.  Superoperators
are built sparse (CSR).  The steady state comes from one sparse LU
solve of the generator with its redundant first row replaced by the
trace condition; the same factors certify that the steady state is
unique before it is returned.

Dissipator normalization: ``lindblad_dissipator(c, rate)`` encodes
``rate * (2 c rho c^dag - {c^dag c, rho})``, i.e. the rate multiplies the
doubled bracket, matching the decay convention d<a>/dt = -rate * <a>.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConfigInvalid,
    DegenerateSteadyState,
    IndexOutOfRange,
    InvalidState,
    NoConvergence,
)

__all__ = [
    "Liouvillian",
    "QUBIT_LOWER",
    "QUBIT_RAISE",
    "destroy",
    "embed_operator",
    "fidelity_pure",
    "hamiltonian_superop",
    "left_multiply",
    "lindblad_dissipator",
    "logneg_qubits",
    "partial_trace",
    "reduced_pair_dm",
    "right_multiply",
    "sandwich",
    "steady_state_dm",
    "unvec",
    "vec",
]

#: lowering operator in the (ground, excited) qubit basis
QUBIT_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])
QUBIT_RAISE = QUBIT_LOWER.T.copy()
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector).reshape((dim, dim), order="F")


def _csr(op) -> sp.csr_matrix:
    return op.tocsr() if sp.issparse(op) else sp.csr_matrix(np.asarray(op))


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


def destroy(n_levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``n_levels`` Fock states."""
    if n_levels < 2:
        raise ConfigInvalid(f"need at least two Fock levels, got {n_levels}")
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), k=1)


def embed_operator(site_ops: dict[int, np.ndarray], dims: tuple[int, ...]) -> sp.csr_matrix:
    """Tensor product acting as given operators on selected sites.

    Site 0 is the leftmost (most significant) tensor factor, matching the
    row-major ``reshape(dims)`` convention used everywhere else.
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


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Vectorized generator of a finite-dimensional master equation."""

    dim: int
    matrix: sp.csr_matrix  # any sparse matrix or dense array; stored as CSR

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _csr(self.matrix))
        side = self.dim * self.dim
        if self.matrix.shape != (side, side):
            raise ConfigInvalid(
                f"generator shape {self.matrix.shape} does not match dim {self.dim}"
            )

    @property
    def scale(self) -> float:
        """Largest entry magnitude; the reference scale for tolerances."""
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)

    def trace_defect(self) -> float:
        """Max deviation of the adjoint generator from annihilating identity."""
        id_vec = vec(np.eye(self.dim))
        return float(np.abs(id_vec @ self.matrix).max())


#: a condition estimate of the trace-bordered generator at or above this
#: means a second (near-)stationary state: the kernel is not one-dimensional
_CONDITION_LIMIT = 1e8
#: steady-state residual tolerance, relative to the generator scale
_RESIDUAL_RTOL = 1e-9


def _condition_estimate(system: sp.csc_matrix, lu) -> float:
    """Condition estimate ``||system||_1 * ||system^-1||_2`` from LU factors.

    ``||system^-1||_2`` comes from three inverse-iteration steps on
    ``system^H system``, started from a fixed seeded vector so the
    estimate is deterministic.
    """
    x = np.random.default_rng(0).standard_normal(system.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(3):
        x = lu.solve(lu.solve(x, trans="H"))
        growth = np.linalg.norm(x)
        x /= growth
    return float(spla.norm(system, 1) * np.sqrt(growth))


def steady_state_dm(liouvillian: Liouvillian) -> np.ndarray:
    """Unique unit-trace fixed point of a trace-preserving generator.

    Trace preservation makes the ``rho_00`` row of the generator
    redundant, so that row is replaced by ``scale * vec(I)^T`` and the
    system is solved by sparse LU with right-hand side ``scale * e_0``.
    The same factors certify that the kernel is one-dimensional: a
    singular factorization or a condition estimate of at least
    ``_CONDITION_LIMIT`` raises :class:`DegenerateSteadyState` rather than
    silently picking a representative.  The result is Hermitized,
    normalized, and checked for residual and positivity.
    """
    dim = liouvillian.dim
    scale = liouvillian.scale
    if not np.isfinite(scale):
        raise ConfigInvalid("generator has non-finite entries")
    trace_row = sp.csr_matrix(
        (np.full(dim, scale), (np.zeros(dim, dtype=int), np.arange(dim) * (dim + 1))),
        shape=(1, dim * dim),
    )
    system = sp.vstack([trace_row, liouvillian.matrix[1:]], format="csc")
    try:
        lu = spla.splu(system)
    except RuntimeError as exc:
        raise DegenerateSteadyState(
            f"trace-bordered generator is singular ({exc}): kernel is not one-dimensional"
        ) from exc
    condition = _condition_estimate(system, lu)
    if not condition < _CONDITION_LIMIT:
        raise DegenerateSteadyState(
            f"condition estimate {condition:.3e} of the trace-bordered generator "
            f"is not below {_CONDITION_LIMIT:.0e}: kernel is not one-dimensional"
        )
    rhs = np.zeros(dim * dim, dtype=system.dtype)
    rhs[0] = scale
    rho = unvec(lu.solve(rhs), dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if not abs(trace) > 1e-10:
        raise NoConvergence(f"steady-state trace {trace:.3e} is zero or not finite")
    rho /= trace
    residual = np.abs(liouvillian.apply(rho)).max()
    if not residual <= _RESIDUAL_RTOL * scale:
        raise NoConvergence(
            f"steady-state residual {residual:.3e} exceeds tolerance "
            f"{_RESIDUAL_RTOL:.0e} * scale {scale:.3e}"
        )
    assert_density_matrix(rho)
    return rho


def assert_density_matrix(rho: np.ndarray, *, eig_floor: float = -1e-8) -> None:
    """Hermiticity / unit-trace / positivity checks, with small tolerances."""
    mat = np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidState(f"density matrix must be square, got {mat.shape}")
    if np.abs(mat - mat.conj().T).max() > 1e-10 * max(1.0, np.abs(mat).max()):
        raise InvalidState("density matrix is not Hermitian")
    if abs(np.trace(mat).real - 1.0) > 1e-10 or abs(np.trace(mat).imag) > 1e-10:
        raise InvalidState(f"density matrix trace {np.trace(mat)} != 1")
    min_eig = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
    if min_eig < eig_floor:
        raise InvalidState(f"density matrix has eigenvalue {min_eig:.3e} < {eig_floor}")


def partial_trace(
    rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Reduced density matrix on the ``keep`` subsystems, in the given order."""
    dims = tuple(int(d) for d in dims)
    n_sites = len(dims)
    if len(set(keep)) != len(keep) or any(not 0 <= s < n_sites for s in keep):
        raise IndexOutOfRange(f"cannot keep subsystems {keep} of {n_sites}")
    tensor = np.asarray(rho).reshape(dims + dims)
    row = list(range(n_sites))
    col = list(range(n_sites, 2 * n_sites))
    for site in range(n_sites):
        if site not in keep:
            col[site] = row[site]
    out_subs = [row[s] for s in keep] + [col[s] for s in keep]
    reduced = np.einsum(tensor, row + col, out_subs)
    dim_keep = prod(dims[s] for s in keep)
    return reduced.reshape(dim_keep, dim_keep)


def reduced_pair_dm(rho: np.ndarray, j: int, k: int, n_qubits: int) -> np.ndarray:
    """4x4 state of qubits ``j`` and ``k`` (0-based), traced over the rest."""
    if j == k:
        raise IndexOutOfRange(f"need two distinct qubits, got ({j}, {k})")
    return partial_trace(rho, (2,) * n_qubits, (j, k))


def logneg_qubits(rho: np.ndarray) -> float:
    """Logarithmic negativity of a two-qubit state.

    Base-2 logarithm of the trace norm of the partial transpose on the
    second qubit; values within 1e-12 of zero collapse to exactly 0.0.
    """
    mat = np.asarray(rho)
    if mat.shape != (4, 4):
        raise InvalidState(f"expected a two-qubit 4x4 state, got {mat.shape}")
    assert_density_matrix(mat)
    pt = mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
    value = np.log2(trace_norm)
    return 0.0 if abs(value) < 1e-12 else max(0.0, float(value))


def fidelity_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """Overlap <psi| rho |psi> with a pure reference state."""
    psi = np.asarray(psi).reshape(-1)
    return float(np.real(psi.conj() @ np.asarray(rho) @ psi))
