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
A generator may also declare a swap: a basis permutation that negates
the charge and commutes with it, such as the exchange of two identical
arrays.  The swap splits the block's real coordinates into an even and
an odd half, and the generator into one real matrix per half.  The even
half, with its redundant first row replaced by the trace condition,
gives the steady state by one sparse LU solve; the odd half is factored
too, and the factors of both halves certify that the state is unique
before it is returned.  Without a swap the odd half is empty, and an
all-zero charge makes the block the whole space.  The U(1) block
reduction is that of Buca and Prosen, New J. Phys. 14, 073007 (2012);
the Z2 symmetry sectors are as in Albert and Jiang, Phys. Rev. A 89,
022118 (2014).

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
    ROUNDOFF_RTOL,
    ConfigInvalid,
    DegenerateSteadyState,
    IndexOutOfRange,
    InvalidState,
    NoConvergence,
)

__all__ = [
    "Liouvillian",
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


def _operator_sectors(charge: np.ndarray) -> np.ndarray:
    """Sector ``charge[i] - charge[j]`` of each entry of ``vec(rho)``."""
    return vec(np.subtract.outer(charge, charge))


def _largest_crossing(matrix: sp.csr_matrix, sector: np.ndarray) -> float:
    """Largest ``|entry|`` of ``matrix`` whose row and column sectors differ."""
    rows = np.repeat(sector, np.diff(matrix.indptr))
    return float(np.abs(matrix.data[rows != sector[matrix.indices]]).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Vectorized generator of a finite-dimensional master equation.

    ``matrix`` must be finite; a copy without its round-off, the entries at
    or below ``ROUNDOFF_RTOL * scale``, is stored.  ``charge`` holds one
    integer U(1) charge per Hilbert basis state (default all zeros); every
    stored entry must map its operator sector ``charge[i] - charge[j]`` to
    itself.  ``swap`` optionally declares a symmetry: a permutation ``s`` of
    the Hilbert basis, an involution with ``charge[s] == -charge``, whose
    superoperator ``rho_ij -> rho_s(i)s(j)`` the generator commutes with
    (the exchange of two identical arrays).  Construction checks only the
    permutation; the commutation is checked where the solve uses it
    (:func:`steady_state_dm`).
    """

    dim: int
    matrix: sp.csr_matrix  # any sparse matrix or dense array; stored as CSR
    charge: np.ndarray | None = None  # stored as a read-only int64 array
    swap: np.ndarray | None = None  # stored as a read-only int64 array

    def __post_init__(self) -> None:
        # the round-off is dropped below, so store a copy of the caller's matrix
        object.__setattr__(self, "matrix", _csr(self.matrix).copy())
        side = self.dim * self.dim
        if self.matrix.shape != (side, side):
            raise ConfigInvalid(
                f"generator shape {self.matrix.shape} does not match dim {self.dim}"
            )
        if not np.isfinite(self.scale):
            raise ConfigInvalid("generator has non-finite entries")
        self.matrix.data[np.abs(self.matrix.data) <= ROUNDOFF_RTOL * self.scale] = 0
        self.matrix.eliminate_zeros()
        charge = self._basis_integers(
            np.zeros(self.dim, np.int64) if self.charge is None else self.charge, "charge"
        )
        object.__setattr__(self, "charge", charge)
        if self.swap is not None:
            swap = self._basis_integers(self.swap, "swap")
            identity = np.arange(self.dim)
            if not np.array_equal(np.sort(swap), identity):
                raise ConfigInvalid("swap is not a permutation of the basis states")
            if not np.array_equal(swap[swap], identity):
                raise ConfigInvalid("swap is not an involution")
            if not np.array_equal(charge[swap], -charge):
                raise ConfigInvalid("swap does not map charge to -charge")
            object.__setattr__(self, "swap", swap)
        crossing = _largest_crossing(self.matrix, _operator_sectors(charge))
        if crossing > 0.0:
            raise ConfigInvalid(
                f"generator entry {crossing:.3e} crosses charge sectors "
                f"(above {ROUNDOFF_RTOL:.0e} * scale {self.scale:.3e})"
            )

    def _basis_integers(self, values, name: str) -> np.ndarray:
        """``values`` as a read-only int64 array of one entry per basis state."""
        raw = np.asarray(values)
        if raw.shape != (self.dim,) or raw.dtype.kind not in "iu":
            raise ConfigInvalid(
                f"{name} must hold {self.dim} integers, got {raw.shape} {raw.dtype}"
            )
        out = raw.astype(np.int64)
        out.flags.writeable = False
        return out

    @property
    def scale(self) -> float:
        """Largest entry magnitude; the reference scale for tolerances."""
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


#: a condition estimate of the trace-bordered generator at or above this
#: means a second (near-)stationary state: the kernel is not one-dimensional
_CONDITION_LIMIT = 1e8
#: steady-state residual tolerance, relative to the generator scale
_RESIDUAL_RTOL = 1e-9
_EIG_FLOOR = -1e-8  #: most negative eigenvalue a density matrix may have


def _factor(system: sp.csc_matrix, name: str) -> tuple[spla.SuperLU, float, float]:
    """Sparse LU of ``system`` with ``||system||_1`` and ``||system^-1||_2``.

    ``||system^-1||_2`` is estimated by three inverse-iteration steps on
    ``system^H system``, started from a fixed seeded vector so the
    estimate is deterministic.  A singular factorization raises
    :class:`DegenerateSteadyState` naming the ``name`` system.
    """
    try:
        lu = spla.splu(system)
    except RuntimeError as exc:
        raise DegenerateSteadyState(
            f"{name} is singular ({exc}): kernel is not one-dimensional"
        ) from exc
    x = np.random.default_rng(0).standard_normal(system.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(3):
        x = lu.solve(lu.solve(x, trans="H"))
        growth = np.linalg.norm(x)
        x /= growth
    one_norm = np.asarray(abs(system).sum(axis=0)).max(initial=0.0)
    return lu, float(one_norm), float(np.sqrt(growth))


def _hermitian_basis(
    charge: np.ndarray,
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Unitary ``U`` from the block's real coordinates to ``vec(rho)``.

    The block holds the pairs ``(i, j)`` with ``charge[i] == charge[j]``.
    Walking its upper triangle ``i <= j`` in row-major order, each
    diagonal pair adds the coordinate ``rho_ii`` and each ``i < j`` pair
    adds ``sqrt(2) Re rho_ij`` and then ``sqrt(2) Im rho_ij``, so
    coordinate 0 is ``rho_00``.  ``U`` has ``dim**2`` rows (zero off the
    block) and one column per coordinate; ``U @ x`` is the Hermitian
    ``vec(rho)`` with those coordinates.  Also returns, per coordinate,
    its pair ``(i, j)`` and its part (1 for ``Im rho_ij``, else 0).
    """
    dim = charge.size
    pair_i, pair_j = np.nonzero(np.triu(np.equal.outer(charge, charge)))
    width = np.where(pair_i == pair_j, 1, 2)
    i, j = np.repeat(pair_i, width), np.repeat(pair_j, width)
    coord = np.arange(i.size)
    part = coord - np.repeat(np.cumsum(width) - width, width)
    diagonal = i == j
    off = ~diagonal
    # rho_ij and rho_ji get x / sqrt(2) from a Re coordinate and +-i y /
    # sqrt(2) from an Im coordinate
    upper = np.where(part[off] == 1, 1j, 1.0) * np.sqrt(0.5)
    rows = np.concatenate((i[diagonal] * (dim + 1), (i + j * dim)[off], (j + i * dim)[off]))
    cols = np.concatenate((coord[diagonal], coord[off], coord[off]))
    values = np.concatenate((np.ones(dim), upper, upper.conj()))
    basis = sp.csr_matrix((values, (rows, cols)), shape=(dim * dim, i.size))
    return basis, i, j, part


def _swap_parity(
    i: np.ndarray, j: np.ndarray, part: np.ndarray, swap: np.ndarray
) -> tuple[sp.csr_matrix, int]:
    """Orthogonal ``[E O]`` splitting the real coordinates by swap parity.

    The coordinates are those of :func:`_hermitian_basis`, given by
    their pairs ``(i, j)`` and parts.  The swap ``s`` maps ``rho_ij`` to
    ``rho_s(i)s(j)``, which on the real coordinates is a signed
    permutation: coordinate ``k`` goes to ``sigma_k`` times the
    coordinate ``p(k)`` of the same part on the sorted pair ``(s(i),
    s(j))``, and ``sigma_k = -1`` exactly for an ``Im rho_ij`` with
    ``s(i) > s(j)``.  A fixed coordinate (``p(k) = k``) is the even
    column ``e_k`` when ``sigma_k = 1`` and the odd column ``e_k``
    otherwise; each swapped pair ``k < p(k)`` gives the even column
    ``(e_k + sigma_k e_p(k)) / sqrt(2)`` and the odd column ``(e_k -
    sigma_k e_p(k)) / sqrt(2)``.  The even columns come first, each half
    ordered by ``k``, so even column 0 holds coordinate 0.  Also returns
    the number of even columns.
    """
    dim = swap.size
    swap_i, swap_j = swap[i], swap[j]
    # coordinates are sorted by this key, so the partner is a lookup
    key = (i * dim + j) * 2 + part
    swapped = (np.minimum(swap_i, swap_j) * dim + np.maximum(swap_i, swap_j)) * 2 + part
    partner = np.searchsorted(key, swapped)
    sign = np.where((part == 1) & (swap_i > swap_j), -1.0, 1.0)
    coord = np.arange(key.size)
    fixed, lead = partner == coord, coord < partner
    even = np.flatnonzero(lead | (fixed & (sign > 0)))
    odd = np.flatnonzero(lead | (fixed & (sign < 0)))
    first = np.concatenate((even, odd))  # the smaller coordinate of each column
    column = np.arange(first.size)
    paired = lead[first]
    weight = np.where(paired, np.sqrt(0.5), 1.0)
    parity = np.repeat([1.0, -1.0], [even.size, odd.size])
    rows = np.concatenate((first, partner[first[paired]]))
    cols = np.concatenate((column, column[paired]))
    values = np.concatenate((weight, (parity * sign[first] * weight)[paired]))
    return sp.csr_matrix((values, (rows, cols)), shape=(key.size, key.size)), even.size


def steady_state_dm(liouvillian: Liouvillian) -> np.ndarray:
    """Unique unit-trace fixed point of a trace-preserving generator.

    The generator conserves its charge, so it maps the charge-diagonal
    block (the entries of ``vec(rho)`` with ``charge[i] == charge[j]``,
    which hold the whole diagonal) to itself, and the fixed point is
    solved there.  It also maps Hermitian operators to Hermitian ones, so
    in the block's real Hermitian basis ``U`` (:func:`_hermitian_basis`)
    it is a real matrix of the block's side.  The declared swap (the
    identity when there is none) maps the block to itself, since it
    negates the charge, and splits the real coordinates into an even and
    an odd half ``[E O]`` (:func:`_swap_parity`).  The generator is
    projected once onto ``W = U [E O]``: ``W^H L W``.  An imaginary entry
    above ``ROUNDOFF_RTOL * scale`` means the generator does not preserve
    Hermiticity, and an entry between the halves above the same bound
    means it does not commute with the swap; either raises
    :class:`ConfigInvalid`.  Both halves are then factored by sparse LU.
    The trace functional is even, and trace preservation makes the even
    row holding ``rho_00`` (row 0) redundant, so that row is replaced by
    ``scale`` times the trace functional and the even half is solved
    with right-hand side ``scale * e_0``.  The steady state has no odd
    part, and the traceless odd half must be nonsingular on its own.
    ``W`` maps the solution back to a full Hermitian matrix, zero off the
    block.  With no swap the odd half is empty and the even half is the
    whole block.

    The same factors certify that the block kernel is one-dimensional: a
    singular factorization of either half, or a condition estimate of at
    least ``_CONDITION_LIMIT``, raises :class:`DegenerateSteadyState`
    rather than silently picking a representative.  The estimate is that
    of the trace-bordered block, which is the direct sum of the bordered
    even half and the odd half: the larger of the halves' 1-norms times
    the larger of their inverse-norm estimates.  ``W`` is unitary, so
    the real bordered system is a unitary similarity of the complex
    block with its row along ``W``'s first column (the ``rho_00`` row
    when the swap fixes basis state 0) replaced by the trace, and has its
    2-norm condition.  That certifies the full kernel too.  The real map
    is a similarity on the Hermitian part of the block, and Hermitian
    fixed points span the kernel (the Hermitian and anti-Hermitian parts
    of a fixed point are fixed points), so a one-dimensional real kernel
    is a one-dimensional block kernel.
    Fixed points of a trace-preserving generator are spanned by density
    matrices, so a second fixed point would give a second steady state
    ``sigma``.  Its charge pinching ``sum_q P_q sigma P_q`` is also
    stationary (it averages ``e^{i phi Q} sigma e^{-i phi Q}``, with
    which the generator commutes) and lies in the block, so it equals
    the block's unique state ``rho``.  A pinching never shrinks the
    support, so every steady state lives on the support of ``rho``; there
    ``rho`` is faithful, and the steady states mirror the fixed-point
    algebra of the adjoint generator, a finite-dimensional algebra on
    which the U(1) action fixes only the multiples of the identity.  Such
    an ergodic action of U(1) is trivial, so the algebra, and the kernel,
    is one-dimensional: ``sigma = rho``.  Factoring the even half alone
    would not do: averaging over the swap instead pins only the even
    part, and the two-element group can act ergodically on a larger
    algebra (it may exchange two stationary states, as in
    ``|01><01| - |10><10|`` of two qubits that both decay into the
    singly excited states).

    The result is normalized, and checked for residual against the stored
    generator (without round-off) and for positivity.
    """
    dim = liouvillian.dim
    scale = liouvillian.scale
    swap = np.arange(dim) if liouvillian.swap is None else liouvillian.swap
    hermitian, i, j, part = _hermitian_basis(liouvillian.charge)
    parity, n_even = _swap_parity(i, j, part, swap)
    basis = hermitian @ parity
    # rows of W^H pick the block rows; off-block columns meet empty rows of W
    block = ((basis.conj().T @ liouvillian.matrix) @ basis).tocsr()
    imaginary = float(np.abs(block.data.imag).max()) if block.nnz else 0.0
    if imaginary > ROUNDOFF_RTOL * scale:
        raise ConfigInvalid(
            f"generator does not preserve Hermiticity: imaginary entry "
            f"{imaginary:.3e} in the real basis (above {ROUNDOFF_RTOL:.0e} * "
            f"scale {scale:.3e})"
        )
    block = block.real
    block.eliminate_zeros()
    side = block.shape[0]
    crossing = _largest_crossing(block, np.arange(side) >= n_even)
    if crossing > ROUNDOFF_RTOL * scale:
        raise ConfigInvalid(
            f"generator does not commute with the declared swap: entry "
            f"{crossing:.3e} couples its even and odd halves (above "
            f"{ROUNDOFF_RTOL:.0e} * scale {scale:.3e})"
        )
    # the trace functional: 1 on each rho_ii coordinate, rotated by [E O]
    trace_row = np.asarray(parity[i == j].sum(axis=0)).ravel()[:n_even]
    even_system = sp.vstack(
        [sp.csr_matrix(scale * trace_row), block[1:n_even, :n_even]], format="csc"
    )
    lu, even_norm, even_inverse = _factor(even_system, "trace-bordered even half")
    _, odd_norm, odd_inverse = _factor(block[n_even:, n_even:].tocsc(), "odd half")
    condition = max(even_norm, odd_norm) * max(even_inverse, odd_inverse)
    if not condition < _CONDITION_LIMIT:
        raise DegenerateSteadyState(
            f"condition estimate {condition:.3e} of the trace-bordered generator "
            f"is not below {_CONDITION_LIMIT:.0e}: kernel is not one-dimensional"
        )
    rhs = np.zeros(n_even)
    rhs[0] = scale
    rho = unvec(basis[:, :n_even] @ lu.solve(rhs), dim)
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


def assert_density_matrix(rho: np.ndarray) -> None:
    """Finiteness / Hermiticity / unit-trace / positivity checks, with small tolerances.

    Each check is written ``not (value <= bound)``, so a NaN fails it
    instead of passing the comparison.
    """
    mat = np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidState(f"density matrix must be square, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidState("density matrix has a non-finite entry")
    if not np.abs(mat - mat.conj().T).max() <= 1e-10 * max(1.0, np.abs(mat).max()):
        raise InvalidState("density matrix is not Hermitian")
    trace = np.trace(mat)
    if not (abs(trace.real - 1.0) <= 1e-10 and abs(trace.imag) <= 1e-10):
        raise InvalidState(f"density matrix trace {trace} != 1")
    min_eig = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
    if not min_eig >= _EIG_FLOOR:
        raise InvalidState(f"density matrix has eigenvalue {min_eig:.3e} < {_EIG_FLOOR}")


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
