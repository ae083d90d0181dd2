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
before it is returned, all on the generator over a power of two near its
scale, which moves no bit and keeps every sum finite.  Each certificate
meets its bound in :func:`~entrep.errors.certify`, whose refusal names
the value and the bound.  Without a swap the odd half is empty, and an
all-zero charge makes the block the whole space.  The U(1) block
reduction is that of Buca and Prosen, New J. Phys. 14, 073007 (2012);
the Z2 symmetry sectors are as in Albert and Jiang, Phys. Rev. A 89,
022118 (2014).

A generator that is affine in a real ``mbar``, ``L = L_free + mbar
L_per``, such as a spin model swept over its drive's cross-correlation,
is solved for many ``mbar`` at once by :func:`steady_state_sweep`, which
takes ``L_per``, a slope and not a generator, as a matrix on
``L_free``'s space: the basis is built, and each part projected onto the
two real halves, once, and each point forms its halves as the same
combination of the parts' on one pattern, then only factors and solves
them.  :func:`steady_state_dm` is its one-point case, with no ``L_per``,
and solves its generator on that generator's own patterns.  The
certificates split by what they are of.  Charge conservation is
certified on each part as a :class:`Liouvillian` (``L_per`` wrapped with
``L_free``'s charge and swap), and a sum of charge-conserving parts
conserves the charge.  Preserving Hermiticity and commuting with the
swap are linear too, so a point meets their bound when each part's
largest offending entry, weighted by the magnitude of its coefficient
and summed, does: at most ``ROUNDOFF_RTOL`` times the point's scale.
The rest are the point's own: the condition estimate (below
``_CONDITION_LIMIT``), the trace, the residual against ``L_free + mbar
L_per`` at that sum's own scale, and positivity.

Every generator is assembled by one routine, :func:`quadratic_superop`,
for a master equation quadratic in one list of operators, as one
sandwich sum.  Each of its terms, ``o_j rho o_k`` with the weight that
keeps it trace-preserving, ``A rho`` and ``rho B``, is a sandwich ``x rho
y``, which the identity above places; one sparse product over the rows
``x`` (the operators, then ``A``, ``B`` and the identity) sums them all.
That row order fixes the order in which each entry is summed, and so its
last bit.  :func:`gksl_superop` is the routine's GKSL front (Gorini,
Kossakowski and Sudarshan, J. Math. Phys. 17, 821 (1976)).  Sizes are
read off the inputs, never passed alongside them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import isqrt, prod

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ROUNDOFF_RTOL,
    ConfigInvalid,
    DegenerateSteadyState,
    IndexOutOfRange,
    InvalidState,
    NoConvergence,
    as_integer,
    as_real,
    certify,
)

__all__ = [
    "Liouvillian",
    "fidelity_pure",
    "gksl_superop",
    "logneg_qubits",
    "partial_trace",
    "quadratic_superop",
    "reduced_pair_dm",
    "steady_state_dm",
    "steady_state_sweep",
    "unvec",
    "vec",
]

def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector).reshape((dim, dim), order="F")


def quadratic_superop(ops, left, right) -> sp.csr_matrix:
    """Trace-preserving superoperator quadratic in the operators ``ops = [o_1, ..., o_n]``.

    ``left`` weights ``o_j o_k rho`` and ``right`` weights ``rho o_j o_k``
    (each an ``n x n`` coefficient matrix, summed over ``j, k``); ``o_j rho
    o_k`` gets ``mid = -(left + right)^T``, the one weight that preserves the
    trace.  Every term is a sandwich ``x rho y``: with ``A = sum_jk left_jk
    o_j o_k`` and ``B = sum_jk right_jk o_j o_k`` the generator is ``sum_jk
    C_jk x_j rho x_k`` over the rows ``x = (o_1, ..., o_n, A, B, 1)``, where
    ``C`` holds ``mid`` over the operators, ``C[A, 1] = 1`` and ``C[1, B] =
    1``.  With those rows flattened into ``F``, entry ``(a, b)`` of ``F^T
    (C F)`` is ``sum_jk C_jk x_j[a] x_k[b]``, and ``vec(x rho y) = (y^T kron
    x) vec(rho)`` moves it to one entry of the generator.  The product sums
    each entry in row order: the operators' sandwich terms, then ``A rho``,
    then ``rho B``.  That order fixes the rounding, so keep it.
    """
    ops = [sp.coo_matrix(op) for op in ops]
    dim = ops[0].shape[0]
    n_ops = len(ops)
    which = np.repeat(np.arange(n_ops), [op.nnz for op in ops])
    rows = np.concatenate([op.row for op in ops])
    cols = np.concatenate([op.col for op in ops])
    data = np.concatenate([op.data for op in ops])
    flat = sp.csr_matrix((data, (which, rows * dim + cols)), shape=(n_ops, dim * dim))
    side_by_side = sp.csr_matrix((data, (rows, which * dim + cols)), shape=(dim, n_ops * dim))
    # row s n + j of the k-sums is sum_k coeff_jk o_k, coeff = (left, right)[s];
    # its entry (m, c) goes to row j dim + m and column s dim + c, so that
    # side_by_side times the moved k-sums is [A B]
    k_sums = (sp.csr_matrix(np.concatenate((left, right)).astype(complex)) @ flat).tocoo()
    side, j = np.divmod(k_sums.row, n_ops)
    m, c = np.divmod(k_sums.col, dim)
    moved = sp.csr_matrix(
        (k_sums.data, (j * dim + m, side * dim + c)), shape=(n_ops * dim, 2 * dim)
    )
    one_sided = (side_by_side @ moved).tocoo()  # [A B]
    side, c = np.divmod(one_sided.col, dim)
    # F: the operators, A, B and the identity, one row-major flattened row each
    diagonal = np.arange(dim) * (dim + 1)
    f_rows = np.concatenate((which, n_ops + side, np.full(dim, n_ops + 2)))
    f_cols = np.concatenate((rows * dim + cols, one_sided.row * dim + c, diagonal))
    f_data = np.concatenate((data, one_sided.data, np.ones(dim)))
    f_mat = sp.csr_matrix((f_data, (f_rows, f_cols)), shape=(n_ops + 3, dim * dim))
    weights = np.zeros((n_ops + 3, n_ops + 3), complex)
    weights[:n_ops, :n_ops] = -(np.asarray(left) + np.asarray(right)).T
    weights[n_ops, n_ops + 2] = weights[n_ops + 2, n_ops + 1] = 1.0
    # entry (a_r dim + a_c, b_r dim + b_c) of F^T (C F) is sum_jk C_jk
    # x_j[a_r, a_c] x_k[b_r, b_c], which kron(x_k^T, x_j) puts at row
    # b_c dim + a_r and column b_r dim + a_c
    outer = (f_mat.T @ (sp.csr_matrix(weights) @ f_mat)).tocoo()
    a_r, a_c = np.divmod(outer.row, dim)
    b_r, b_c = np.divmod(outer.col, dim)
    return sp.csr_matrix(
        (outer.data, (b_c * dim + a_r, b_r * dim + a_c)), shape=(dim * dim, dim * dim)
    )


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
    return quadratic_superop(ops, -1j * h - e.T, 1j * h - e.T)


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

    ``matrix`` must be finite and square, of side ``dim**2``; a copy without
    its round-off, the entries at or below ``ROUNDOFF_RTOL * scale``, is
    stored.  ``charge`` holds one integer U(1) charge per Hilbert basis state
    (default all zeros); every stored entry must map its operator sector
    ``charge[i] - charge[j]`` to itself.  ``swap`` optionally declares a
    symmetry: a permutation ``s`` of the Hilbert basis, an involution with
    ``charge[s] == -charge``, whose superoperator ``rho_ij -> rho_s(i)s(j)``
    the generator commutes with (the exchange of two identical arrays).
    Construction checks only the permutation; the commutation is checked
    per point of a solve (:func:`steady_state_sweep`).
    """

    matrix: sp.csr_matrix  # any sparse matrix or dense array; stored as CSR
    charge: np.ndarray | None = None  # stored as a read-only int64 array
    swap: np.ndarray | None = None  # stored as a read-only int64 array

    def __post_init__(self) -> None:
        # the round-off is dropped below, so store a copy of the caller's matrix
        object.__setattr__(self, "matrix", sp.csr_matrix(self.matrix, copy=True))
        rows, cols = self.matrix.shape
        if rows != cols or isqrt(rows) ** 2 != rows:
            raise ConfigInvalid(f"generator shape {self.matrix.shape} is not square of square side")
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
        certify(crossing, 0.0, ConfigInvalid, "generator crosses charge sectors: largest entry")

    @property
    def dim(self) -> int:
        """Hilbert dimension: the square root of the generator's side."""
        return isqrt(self.matrix.shape[0])

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
    estimate is deterministic.  The steps take overflow-free norms, and an
    empty system gets 0; steps that overflow give a non-finite estimate,
    which the certificate refuses.  A singular factorization raises
    :class:`DegenerateSteadyState` naming the ``name`` system.
    """
    try:
        lu = spla.splu(system)
    except RuntimeError as exc:
        raise DegenerateSteadyState(f"{name} is singular: kernel is not one-dimensional") from exc
    one_norm = float(np.asarray(abs(system).sum(axis=0)).max(initial=0.0))
    x = np.random.default_rng(0).standard_normal(system.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(3):
            x = lu.solve(lu.solve(x, trans="H"))
            growth = sla.norm(x, check_finite=False)
            x /= growth
    return lu, one_norm, float(np.sqrt(growth))


def _ldexp(values: np.ndarray, exponent: int) -> np.ndarray:
    """Complex ``values`` times ``2**exponent``, part by part, also where that power overflows."""
    return np.ldexp(np.ascontiguousarray(values, complex).view(float), exponent).view(complex)


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


def _on_one_pattern(
    free: sp.spmatrix, per_mbar: sp.spmatrix | None, by_column: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Two matrices' entries on one compressed pattern (CSC when ``by_column``).

    Returns the pattern's indices and pointers and each matrix's entries
    on it, so that ``free + mbar per_mbar`` is the same sum of the two data
    arrays.  Without ``per_mbar`` the pattern is ``free``'s own and its
    entries are its data, uncopied.  With it, each matrix's entries are
    padded with zeros at the other's, and scipy's conversion from
    coordinates sorts and sums them, zeros kept, into the union's pattern.
    """
    free = free.tocsc() if by_column else free.tocsr()
    if per_mbar is None:
        return free.indices, free.indptr, free.data, None
    free, per_mbar = free.tocoo(), per_mbar.tocoo()
    at = (np.concatenate((free.row, per_mbar.row)), np.concatenate((free.col, per_mbar.col)))
    compressed = sp.csc_matrix if by_column else sp.csr_matrix
    # one padded buffer serves both conversions; each copies it
    data = np.zeros(at[0].size, np.result_type(free.dtype, per_mbar.dtype))
    data[: free.nnz] = free.data
    free_on = compressed((data, at), shape=free.shape)
    data[: free.nnz] = 0
    data[free.nnz :] = per_mbar.data
    per_on = compressed((data, at), shape=free.shape)
    return free_on.indices, free_on.indptr, free_on.data, per_on.data


def _combine(free, per_mbar, c_free: float, c_per: float):
    """``c_free free + c_per per_mbar``, or ``c_free free`` without a per-``mbar`` part."""
    return c_free * free if per_mbar is None else c_free * free + c_per * per_mbar


def _project(
    liouvillian: Liouvillian, basis: sp.csr_matrix, border: np.ndarray
) -> tuple[float, float, float, sp.csc_matrix, sp.csr_matrix]:
    """Scale, linear certificates' values and real halves of ``W^H L W`` over ``2**-e``.

    ``e`` is the exponent of the generator's scale, split between the two
    sides of the product.  The values are the largest imaginary entry and
    the largest entry between the halves (:func:`steady_state_sweep`).  The
    even half is the first ``border.size`` coordinates, with its row 0
    replaced by ``border``.
    """
    scale = liouvillian.scale
    exponent = int(np.frexp(scale)[1])
    # half of 2**-exponent on each side: no copy of the generator, no overflow
    left, right = -exponent // 2, (1 - exponent) // 2
    # rows of W^H pick the block rows; off-block columns meet empty rows of W
    rows = basis.conj().T
    rows.data = _ldexp(rows.data, left)
    block = ((rows @ liouvillian.matrix) @ basis).tocsr()
    block.data = _ldexp(block.data, right)
    imaginary = float(np.abs(block.data.imag).max(initial=0.0))
    block = block.real
    block.eliminate_zeros()
    n_even = border.size
    crossing = _largest_crossing(block, np.arange(block.shape[0]) >= n_even)
    even = sp.vstack([sp.csr_matrix(border), block[1:n_even, :n_even]], format="csc")
    return scale, imaginary, crossing, even, block[n_even:, n_even:]


def _sweep_solver(
    free: Liouvillian, per_mbar: Liouvillian | None
) -> Callable[[float], np.ndarray]:
    """The steady-state solve of one point of :func:`steady_state_sweep`.

    Does what does not depend on ``mbar``, and keeps only what a point
    reads: the solve's own arrays are freed when it returns.
    """
    dim = free.dim
    swap = np.arange(dim) if free.swap is None else free.swap
    hermitian, i, j, re_im = _hermitian_basis(free.charge)
    parity, n_even = _swap_parity(i, j, re_im, swap)
    basis = hermitian @ parity
    n_odd, side = basis.shape[1] - n_even, dim * dim
    # the trace functional: 1 on each rho_ii coordinate, rotated by [E O]
    trace_row = np.asarray(parity[i == j].sum(axis=0)).ravel()[:n_even]
    # the free part's even half carries the trace border in row 0, which
    # the point scales; the per-mbar part's has an empty row 0
    free_scale, free_imaginary, free_crossing, free_even, free_odd = _project(
        free, basis, trace_row
    )
    per_scale, per_imaginary, per_crossing = 1.0, None, None
    per_even = per_odd = per_generator = None
    if per_mbar is not None:
        per_scale, per_imaginary, per_crossing, per_even, per_odd = _project(
            per_mbar, basis, np.zeros(n_even)
        )
        per_generator = per_mbar.matrix
    g_indices, g_indptr, g_free, g_per = _on_one_pattern(free.matrix, per_generator, False)
    e_indices, e_indptr, e_free, e_per = _on_one_pattern(free_even, per_even, True)
    o_indices, o_indptr, o_free, o_per = _on_one_pattern(free_odd, per_odd, True)
    border = np.flatnonzero(e_indices == 0)
    free_exponent, per_exponent = np.frexp(free_scale)[1], np.frexp(per_scale)[1]
    even_basis = basis[:, :n_even]

    def solve(mbar: float) -> np.ndarray:
        mbar = as_real("mbar", mbar)
        generator, largest = g_free, free_scale
        if g_per is not None:
            # a sum that leaves the float range is refused just below
            with np.errstate(over="ignore", invalid="ignore"):
                generator = g_free + mbar * g_per
                largest = np.abs(generator).max(initial=0.0)
        if not np.isfinite(largest):
            raise ConfigInvalid("generator has non-finite entries")
        scale, exponent = np.frexp(largest)
        left, right = -exponent // 2, (1 - exponent) // 2
        c_free = np.ldexp(1.0, free_exponent - exponent)
        c_per = np.ldexp(mbar, per_exponent - exponent)
        bound = ROUNDOFF_RTOL * scale
        imaginary = _combine(free_imaginary, per_imaginary, c_free, abs(c_per))
        what = "generator does not preserve Hermiticity: largest imaginary entry in the real basis"
        certify(imaginary, bound, ConfigInvalid, what)
        crossing = _combine(free_crossing, per_crossing, c_free, abs(c_per))
        what = "generator does not commute with the declared swap: largest even-odd entry"
        certify(crossing, bound, ConfigInvalid, what)
        even = _combine(e_free, e_per, c_free, c_per)
        even[border] = scale * e_free[border]
        even_system = sp.csc_matrix((even, e_indices, e_indptr), shape=(n_even, n_even))
        odd = _combine(o_free, o_per, c_free, c_per)
        odd_system = sp.csc_matrix((odd, o_indices, o_indptr), shape=(n_odd, n_odd))
        lu, even_norm, even_inverse = _factor(even_system, "trace-bordered even half")
        _, odd_norm, odd_inverse = _factor(odd_system, "odd half")
        condition = max(even_norm, odd_norm) * max(even_inverse, odd_inverse)
        what = "kernel is not one-dimensional: condition estimate of the trace-bordered generator"
        certify(condition, _CONDITION_LIMIT, DegenerateSteadyState, what, strict=True)
        rhs = np.zeros(n_even)
        rhs[0] = scale
        rho = unvec(even_basis @ lu.solve(rhs), dim)
        trace = np.trace(rho).real
        what = "steady-state trace is zero or not finite: -|trace|"
        certify(-abs(trace), -1e-10, NoConvergence, what, strict=True)
        rho /= trace
        matrix = sp.csr_matrix((generator, g_indices, g_indptr), shape=(side, side))
        residual = np.abs(_ldexp(matrix @ _ldexp(vec(rho), left), right)).max()
        certify(residual, _RESIDUAL_RTOL * scale, NoConvergence, "steady-state residual")
        assert_density_matrix(rho)
        return rho

    return solve


def steady_state_dm(liouvillian: Liouvillian) -> np.ndarray:
    """Unique unit-trace fixed point of a trace-preserving generator.

    The one-point case of :func:`steady_state_sweep`: no per-``mbar``
    part, so the point's generator is ``liouvillian`` itself, solved on
    its own patterns.
    """
    return next(steady_state_sweep(liouvillian, None, [0.0]))


def steady_state_sweep(
    free: Liouvillian, per_mbar: sp.spmatrix | None, mbars
) -> Iterator[np.ndarray]:
    """Steady state of ``L = free + mbar per_mbar`` for each ``mbar`` of ``mbars``, in order.

    ``per_mbar``, a sparse matrix on ``free``'s space, is wrapped once as
    ``Liouvillian(per_mbar, free.charge, free.swap)``, which drops its
    round-off and certifies that it conserves the charge, so every ``L``
    does (else :class:`ConfigInvalid`, before anything is factored).  A
    ``per_mbar`` of any shape but ``free.matrix.shape`` is refused first,
    as ConfigInvalid naming both shapes.
    ``per_mbar=None`` is the zero part: ``L`` is ``free`` at every point,
    solved on its own patterns with no copy of its entries.  ``mbars`` may
    be a lazy iterable: a point is read, as a real named ``mbar``
    (:func:`~entrep.errors.as_real`), and solved, only when its state is
    asked for.  Everything that does not depend on ``mbar`` is done once, by
    the call itself: the basis below, each part's projection and its linear
    certificates' values, and the patterns of the systems factored per point
    (with a ``per_mbar``, one per system for both parts, each padded with
    explicit zeros at the other's entries).  Per point each half is
    ``c_free`` times the free part's projected half plus ``c_per`` times the
    per-``mbar`` part's on that pattern, and only their factorization, the
    solve and the point's own certificates remain.

    Each solve runs on ``L`` times ``2**-e`` (``scale = f 2**e``, ``f`` in
    ``[0.5, 1)``: ``np.frexp``, ``scale`` the point's largest entry).  A
    power of two moves no bit (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002): each step gives what it gives on the generator
    itself where that stays normal, and no sum overflows.  Each part is
    projected over its own power of two, ``2**-e_free`` or ``2**-e_per``,
    split between the two sides of the product, and enters the point's
    scaled halves with its coefficient: ``c_free = 2**(e_free - e)`` and
    ``c_per = mbar 2**(e_per - e)``.  Without a per-``mbar`` part ``e_free
    = e`` and ``c_free = 1``, which moves no bit.  ``L`` and ``scale``
    below are the scaled generator and its largest entry.

    The generator conserves its charge, so it maps the charge-diagonal
    block (the entries of ``vec(rho)`` with ``charge[i] == charge[j]``,
    which hold the whole diagonal) to itself, and the fixed point is
    solved there.  It also maps Hermitian operators to Hermitian ones, so
    in the block's real Hermitian basis ``U`` (:func:`_hermitian_basis`)
    it is a real matrix of the block's side.  The declared swap (the
    identity when there is none) maps the block to itself, since it
    negates the charge, and splits the real coordinates into an even and
    an odd half ``[E O]`` (:func:`_swap_parity`).  Each part is projected
    once onto ``W = U [E O]``: ``W^H L_k W``.  An imaginary entry of ``L``'s
    projection above ``ROUNDOFF_RTOL * scale`` means the generator does
    not preserve Hermiticity, and an entry between the halves above the
    same bound means it does not commute with the swap; either raises
    :class:`ConfigInvalid`.  Both are linear in the parts, so a point is
    certified from the parts' values: ``c_free value_free + |c_per|
    value_per`` bounds the point's largest such entry and must meet the
    bound; without a per-``mbar`` part the free part's own value does.
    Both halves are then factored by sparse LU.  The trace functional is
    even, and trace preservation makes the even row holding
    ``rho_00`` (row 0) redundant, so that row is replaced by ``scale`` times
    the trace functional and the even half is solved with right-hand side
    ``scale * e_0``.  The steady state has no odd part, and the traceless
    odd half must be nonsingular on its own.  ``W`` maps the solution back
    to a full Hermitian matrix, zero off the block.  With no swap the odd
    half is empty and the even half is the whole block.

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

    Each result is normalized, and checked for residual against the
    point's scaled generator ``(free + mbar per_mbar) 2**-e`` (the parts
    without their round-off) and for positivity.  The condition estimate,
    the trace, the residual and the positivity are the point's own.
    """
    if per_mbar is not None:
        if np.shape(per_mbar) != free.matrix.shape:
            raise ConfigInvalid(
                f"per-mbar matrix of shape {np.shape(per_mbar)} is off the free "
                f"generator's space, of shape {free.matrix.shape}"
            )
        # rebound, so that a caller's unnamed matrix is freed once it is wrapped
        per_mbar = Liouvillian(per_mbar, free.charge, free.swap)
    return map(_sweep_solver(free, per_mbar), mbars)


def assert_density_matrix(rho: np.ndarray) -> None:
    """Finiteness / Hermiticity / unit-trace / positivity checks, with small tolerances."""
    mat = np.asarray(rho)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidState(f"density matrix must be square, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise InvalidState("density matrix has a non-finite entry")
    skew = np.abs(mat - mat.conj().T).max()
    what = "density matrix is not Hermitian: largest |rho - rho^H| entry"
    certify(skew, 1e-10 * max(1.0, np.abs(mat).max()), InvalidState, what)
    trace = np.trace(mat)
    what = "density matrix trace is not 1: max(|Re trace - 1|, |Im trace|)"
    certify(max(abs(trace.real - 1.0), abs(trace.imag)), 1e-10, InvalidState, what)
    lowest = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T)).min()
    what = "density matrix has a negative eigenvalue: minus the lowest"
    certify(-lowest, -_EIG_FLOOR, InvalidState, what)


def partial_trace(
    rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]
) -> np.ndarray:
    """Reduced density matrix on the ``keep`` subsystems, in the given order."""
    dims = tuple(as_integer("dims", d, 1) for d in dims)
    keep = tuple(as_integer("keep", s) for s in keep)
    n_sites = len(dims)
    if len(set(keep)) != len(keep) or any(not 0 <= s < n_sites for s in keep):
        raise IndexOutOfRange(f"cannot keep subsystems {keep} of {n_sites}")
    rho, side = np.asarray(rho), prod(dims)
    if rho.shape != (side, side):
        raise ConfigInvalid(f"state of shape {rho.shape} does not fit dims {dims} (side {side})")
    tensor = rho.reshape(dims + dims)
    row = list(range(n_sites))
    col = list(range(n_sites, 2 * n_sites))
    for site in range(n_sites):
        if site not in keep:
            col[site] = row[site]
    out_subs = [row[s] for s in keep] + [col[s] for s in keep]
    reduced = np.einsum(tensor, row + col, out_subs)
    dim_keep = prod(dims[s] for s in keep)
    return reduced.reshape(dim_keep, dim_keep)


def reduced_pair_dm(rho: np.ndarray, j: int, k: int) -> np.ndarray:
    """4x4 state of qubits ``j`` and ``k`` (0-based) of ``rho``, traced over the rest.

    The qubit count is ``log2`` of ``rho``'s side; any other side is refused.
    """
    if j == k:
        raise IndexOutOfRange(f"need two distinct qubits, got ({j}, {k})")
    side = len(rho)
    n_qubits = side.bit_length() - 1
    if side < 1 or side != 1 << n_qubits:
        raise ConfigInvalid(f"state side {side} is not a power of two: not a state of qubits")
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
    """Overlap <psi| rho |psi> with a pure reference state.

    A ``rho`` that is not square, or a ``psi`` whose length is not its
    side, is refused as ConfigInvalid naming both sizes.
    """
    rho, psi = np.asarray(rho), np.asarray(psi).reshape(-1)
    if rho.shape != (psi.size, psi.size):
        raise ConfigInvalid(f"state of shape {rho.shape} does not fit psi of length {psi.size}")
    return float(np.real(psi.conj() @ rho @ psi))
