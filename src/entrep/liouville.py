"""Vectorized master-equation machinery for finite-dimensional models.

Vectorization is column-stacking throughout: ``vec(A X B) = (B^T kron A)
vec(X)``, fixed here in one place and round-trip tested.  Superoperators
are built sparse (CSR).

Every generator carries an integer U(1) charge per Hilbert basis state
(all zeros unless the model supplies one) and must conserve it weakly:
each entry maps the operator sector ``charge[i] - charge[j]`` to itself.
A steady state lies in the charge-diagonal block ``charge[i] ==
charge[j]``.  Every generator here also maps Hermitian operators to
Hermitian ones, so the block is solved in its real Hermitian basis
(``rho_ii``, ``sqrt(2) Re rho_ij`` and ``sqrt(2) Im rho_ij`` for
``i < j``), where the generator is a real matrix of the block's side.
One sparse LU solve of that real matrix, with its redundant first row
replaced by the trace condition, gives the steady state; the same
factors certify that it is unique before it is returned.  An all-zero
charge makes the block the whole space.  The U(1) block reduction is
that of Buca and Prosen, New J. Phys. 14, 073007 (2012).

Every generator is assembled by one routine, :func:`quadratic_superop`,
for a master equation quadratic in one list of operators;
:func:`gksl_superop` is its GKSL front (Gorini, Kossakowski and
Sudarshan, J. Math. Phys. 17, 821 (1976)).
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
    "destroy",
    "embed_operator",
    "fidelity_pure",
    "gksl_superop",
    "left_multiply",
    "logneg_qubits",
    "partial_trace",
    "quadratic_superop",
    "reduced_pair_dm",
    "right_multiply",
    "steady_state_dm",
    "unvec",
    "vec",
]

#: lowering operator in the (ground, excited) qubit basis
QUBIT_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


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


def quadratic_superop(ops, left, right, mid) -> sp.csr_matrix:
    """Superoperator quadratic in the operators ``ops = [o_1, ..., o_n]``.

    ``left`` weights ``o_j o_k rho``, ``right`` weights ``rho o_j o_k``
    and ``mid`` weights ``o_j rho o_k`` (each an ``n x n`` coefficient
    matrix, summed over ``j, k``).  With the operators flattened into the
    rows of ``F``, ``C @ F`` holds every k-sum ``sum_k C_jk o_k`` at once.
    The one-sided terms are then one product ``[o_1 ... o_n] @
    vstack_j(sum_k C_jk o_k)``, and the two-sided term ``sum_jk C_jk
    (o_k^T kron o_j)`` is one COO: the entries of ``F^T @ (C @ F)`` moved to
    their positions in the Kronecker product.
    """
    ops = [_csr(op) for op in ops]
    dim = ops[0].shape[0]
    n_ops = len(ops)
    flat = sp.vstack([op.reshape(1, dim * dim) for op in ops], format="csr")
    side_by_side = sp.hstack(ops, format="csr")

    def k_sums(coeff) -> sp.csr_matrix:
        return sp.csr_matrix(np.asarray(coeff, complex)) @ flat

    def one_sided(coeff) -> sp.csr_matrix:
        return side_by_side @ k_sums(coeff).reshape(n_ops * dim, dim).tocsr()

    # entry (a_r dim + a_c, b_r dim + b_c) of F^T (C F) is sum_jk C_jk
    # o_j[a_r, a_c] o_k[b_r, b_c], which kron(o_k^T, o_j) puts at row
    # b_c dim + a_r and column b_r dim + a_c
    outer = (flat.T @ k_sums(mid)).tocoo()
    a_r, a_c = np.divmod(outer.row, dim)
    b_r, b_c = np.divmod(outer.col, dim)
    total = sp.csr_matrix(
        (outer.data, (b_c * dim + a_r, b_r * dim + a_c)), shape=(dim * dim, dim * dim)
    )
    total = total + left_multiply(one_sided(left))
    total = total + right_multiply(one_sided(right))
    return total.tocsr()


def gksl_superop(ops, h, e) -> sp.csr_matrix:
    """GKSL generator quadratic in the operators ``ops``.

    Superoperator of ``rho -> -i [H, rho] + sum_jk e_jk (2 o_j rho o_k -
    {o_k o_j, rho})`` with ``H = sum_jk h_jk o_j o_k``.  A jump ``c`` at
    ``rate`` is ``e[c, c^dag] = rate``, and a correlated drive ``x (c_1
    rho c_2 + c_2 rho c_1 - {c_1 c_2, rho})`` of commuting ``c_1, c_2``
    is ``e[c_1, c_2] = e[c_2, c_1] = x / 2``.

    Dissipator normalization: the jump ``c`` at ``rate`` encodes ``rate *
    (2 c rho c^dag - {c^dag c, rho})``, i.e. the rate multiplies the
    doubled bracket, matching the decay convention d<a>/dt = -rate * <a>.
    """
    h = np.asarray(h)
    e = np.asarray(e)
    return quadratic_superop(ops, -1j * h - e.T, 1j * h - e.T, 2.0 * e)


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


#: entries crossing charge sectors at or below this times the generator
#: scale are round-off, dropped by the block restriction; larger ones
#: mean the charge is not conserved
_CHARGE_RTOL = 1e-12


def _operator_sectors(charge: np.ndarray) -> np.ndarray:
    """Sector ``charge[i] - charge[j]`` of each entry of ``vec(rho)``."""
    return vec(np.subtract.outer(charge, charge))


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Vectorized generator of a finite-dimensional master equation.

    ``charge`` holds one integer U(1) charge per Hilbert basis state
    (default all zeros); the generator must map each operator sector
    ``charge[i] - charge[j]`` to itself.
    """

    dim: int
    matrix: sp.csr_matrix  # any sparse matrix or dense array; stored as CSR
    charge: np.ndarray | None = None  # stored as a read-only int64 array

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _csr(self.matrix))
        side = self.dim * self.dim
        if self.matrix.shape != (side, side):
            raise ConfigInvalid(
                f"generator shape {self.matrix.shape} does not match dim {self.dim}"
            )
        raw = np.zeros(self.dim, np.int64) if self.charge is None else np.asarray(self.charge)
        if raw.shape != (self.dim,) or raw.dtype.kind not in "iu":
            raise ConfigInvalid(
                f"charge must hold {self.dim} integers, got {raw.shape} {raw.dtype}"
            )
        charge = raw.astype(np.int64)
        charge.flags.writeable = False
        object.__setattr__(self, "charge", charge)
        sectors = _operator_sectors(charge)
        rows = np.repeat(np.arange(side), np.diff(self.matrix.indptr))
        crossing = np.abs(
            self.matrix.data[sectors[rows] != sectors[self.matrix.indices]]
        )
        if crossing.size and crossing.max() > _CHARGE_RTOL * self.scale:
            raise ConfigInvalid(
                f"generator entry {crossing.max():.3e} crosses charge sectors "
                f"(above {_CHARGE_RTOL:.0e} * scale {self.scale:.3e})"
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


def _hermitian_basis(charge: np.ndarray) -> tuple[sp.csr_matrix, np.ndarray]:
    """Unitary ``U`` from the block's real coordinates to ``vec(rho)``.

    The block holds the pairs ``(i, j)`` with ``charge[i] == charge[j]``.
    Walking its upper triangle ``i <= j`` in row-major order, each
    diagonal pair adds the coordinate ``rho_ii`` and each ``i < j`` pair
    adds ``sqrt(2) Re rho_ij`` and then ``sqrt(2) Im rho_ij``, so
    coordinate 0 is ``rho_00``.  ``U`` has ``dim**2`` rows (zero off the
    block) and one column per coordinate; ``U @ x`` is the Hermitian
    ``vec(rho)`` with those coordinates.  Also returns the coordinates
    of the diagonal entries.
    """
    dim = charge.size
    i, j = np.nonzero(np.triu(np.equal.outer(charge, charge)))
    diagonal = i == j
    width = np.where(diagonal, 1, 2)
    ends = np.cumsum(width)
    first = ends - width
    off = ~diagonal
    re_col, i_off, j_off = first[off], i[off], j[off]
    upper_entry, lower_entry = i_off + j_off * dim, j_off + i_off * dim
    half = np.sqrt(0.5)
    rows = np.concatenate(
        (i[diagonal] * (dim + 1), upper_entry, lower_entry, upper_entry, lower_entry)
    )
    cols = np.concatenate((first[diagonal], re_col, re_col, re_col + 1, re_col + 1))
    values = np.concatenate(
        (
            np.ones(dim, complex),
            np.full(2 * re_col.size, half, complex),
            np.full(re_col.size, 1j * half),
            np.full(re_col.size, -1j * half),
        )
    )
    basis = sp.csr_matrix((values, (rows, cols)), shape=(dim * dim, int(ends[-1])))
    return basis, first[diagonal]


def steady_state_dm(liouvillian: Liouvillian) -> np.ndarray:
    """Unique unit-trace fixed point of a trace-preserving generator.

    The generator conserves its charge, so it maps the charge-diagonal
    block (the entries of ``vec(rho)`` with ``charge[i] == charge[j]``,
    which hold the whole diagonal) to itself, and the fixed point is
    solved there.  It also maps Hermitian operators to Hermitian ones, so
    in the block's real Hermitian basis ``U`` (:func:`_hermitian_basis`)
    it is the real matrix ``U^H L U`` of the block's side.  An imaginary
    entry above ``_CHARGE_RTOL * scale`` means the generator does not
    preserve Hermiticity and raises :class:`ConfigInvalid`.  Trace
    preservation makes the ``rho_00`` row redundant, so that row is
    replaced by ``scale`` on every diagonal coordinate and the real
    system is solved by sparse LU with right-hand side ``scale * e_0``;
    ``U`` maps the solution back to a full Hermitian matrix, zero off the
    block.

    The same factors certify that the block kernel is one-dimensional: a
    singular factorization or a condition estimate of at least
    ``_CONDITION_LIMIT`` raises :class:`DegenerateSteadyState` rather than
    silently picking a representative.  ``U`` is unitary and leaves the
    ``rho_00`` row alone, so the real bordered system is a unitary
    similarity of the complex bordered block and has its 2-norm
    condition.  That certifies the full kernel too.  The real map is a
    similarity on the Hermitian part of the block, and Hermitian fixed
    points span the kernel (the Hermitian and anti-Hermitian parts of a
    fixed point are fixed points), so a one-dimensional real kernel is a
    one-dimensional block kernel.  Fixed points of a trace-preserving
    generator are spanned by density matrices, so a second fixed point
    would give a second steady state ``sigma``.  Its charge pinching
    ``sum_q P_q sigma P_q`` is also stationary (it averages ``e^{i phi Q}
    sigma e^{-i phi Q}``, with which the generator commutes) and lies in
    the block, so it equals the block's unique state ``rho``.  A pinching
    never shrinks the support, so every steady state lives on the support
    of ``rho``; there ``rho`` is faithful, and the steady states mirror
    the fixed-point algebra of the adjoint generator, a finite-dimensional
    algebra on which the U(1) action fixes only the multiples of the
    identity.  Such an ergodic action of U(1) is trivial, so the algebra,
    and the kernel, is one-dimensional: ``sigma = rho``.

    The result is normalized, and checked for residual against the full
    generator and for positivity.
    """
    dim = liouvillian.dim
    scale = liouvillian.scale
    if not np.isfinite(scale):
        raise ConfigInvalid("generator has non-finite entries")
    basis, diagonal = _hermitian_basis(liouvillian.charge)
    # rows of U^H pick the block rows; off-block columns meet empty rows of U
    block = ((basis.conj().T @ liouvillian.matrix) @ basis).tocsr()
    imaginary = float(np.abs(block.data.imag).max()) if block.nnz else 0.0
    if imaginary > _CHARGE_RTOL * scale:
        raise ConfigInvalid(
            f"generator does not preserve Hermiticity: imaginary entry "
            f"{imaginary:.3e} in the real basis (above {_CHARGE_RTOL:.0e} * "
            f"scale {scale:.3e})"
        )
    block = block.real
    block.eliminate_zeros()
    side = block.shape[0]
    trace_row = sp.csr_matrix(
        (np.full(dim, scale), (np.zeros(dim, dtype=int), diagonal)), shape=(1, side)
    )
    system = sp.vstack([trace_row, block[1:]], format="csc")
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
    rhs = np.zeros(side)
    rhs[0] = scale
    rho = unvec(basis @ lu.solve(rhs), dim)
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
