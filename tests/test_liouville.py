"""Tests for the vectorized master-equation machinery.

The steady-state extractor is checked against constructive oracles:
generators engineered to have a *known* unique fixed point (pure
absorbing states, thermal qubits), plus degenerate and near-degenerate
cases that must be refused.  A dense singular-value kernel extraction
of the full generator, kept here only as a reference, checks the sparse
LU solve of the charge-diagonal block, in its real Hermitian basis, on
random generators and on the two-pair spin models.  The random
generators are summed term by term from ``superop_reference``; the
quadratic assembler is checked against dense products.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from entrep.errors import (
    ConfigInvalid,
    DegenerateSteadyState,
    IndexOutOfRange,
    InvalidState,
    ModelError,
)
from entrep.liouville import (
    Liouvillian,
    _hermitian_basis,
    _swap_parity,
    assert_density_matrix,
    fidelity_pure,
    gksl_superop,
    logneg_qubits,
    partial_trace,
    quadratic_superop,
    reduced_pair_dm,
    steady_state_dm,
    steady_state_sweep,
    unvec,
    vec,
)
import entrep.liouville
from entrep.arrays import ArrayConfig
from entrep.spins import (
    build_effective_closed_form,
    build_effective_general,
    build_xx_liouvillian,
)
from superop_reference import (
    QUBIT_LOWER,
    apply,
    destroy,
    embed_operator,
    hamiltonian_superop,
    left_multiply,
    lindblad_dissipator,
    right_multiply,
    sandwich,
    trace_defect,
)


def random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_density_matrix(rng, dim):
    mat = random_matrix(rng, dim)
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, dim):
    q_mat, r_mat = np.linalg.qr(random_matrix(rng, dim))
    return q_mat * (np.diag(r_mat) / np.abs(np.diag(r_mat)))


def absorbing_liouvillian(rng, dim, with_hamiltonian=True):
    """Generator whose unique fixed point is a known random pure state.

    Jump operators |psi><phi_i| over a basis of the orthogonal
    complement funnel every state into |psi>; an extra Hamiltonian that
    commutes with |psi><psi| leaves the fixed point untouched.
    """
    basis = random_unitary(rng, dim)
    psi = basis[:, 0]
    generator = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for idx in range(1, dim):
        jump = np.outer(psi, basis[:, idx].conj())
        generator = generator + lindblad_dissipator(jump, rng.uniform(0.5, 2.0))
    if with_hamiltonian:
        projector = np.outer(psi, psi.conj())
        rest = np.eye(dim) - projector
        h_rand = random_matrix(rng, dim)
        hamiltonian = (
            rng.uniform(-1, 1) * projector
            + rest @ (h_rand + h_rand.conj().T) @ rest
        )
        generator = generator + hamiltonian_superop(hamiltonian)
    return Liouvillian(matrix=generator.tocsr()), psi


def svd_steady_state(liou, gap_rtol=1e-8):
    """Reference fixed point: the dense right-singular vector of the smallest
    singular value, after checking that the second-smallest is not tiny."""
    _, svals, vh = np.linalg.svd(liou.matrix.toarray())
    assert svals[-2] >= gap_rtol * svals[0], "reference kernel is not one-dimensional"
    rho = unvec(vh[-1].conj(), liou.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def charged_liouvillian(rng, n_qubits):
    """Random generator conserving ``Q = sum_k sign_k n_k`` on qubits.

    Each qubit counts with a random sign; the Hamiltonian is a random
    Hermitian matrix masked to ``Q``-conserving entries, and each jump is
    a random matrix masked to charge -1 or +1 (both kinds appear).
    """
    dim = 2**n_qubits
    signs = rng.choice([-1, 1], size=n_qubits)
    charge = sum(
        sign * ((np.arange(dim) >> (n_qubits - 1 - site)) & 1)
        for site, sign in enumerate(signs)
    )
    shift = np.subtract.outer(charge, charge)
    h_rand = random_matrix(rng, dim)
    generator = hamiltonian_superop(np.where(shift == 0, h_rand + h_rand.conj().T, 0.0))
    for jump_charge in (-1, 1, int(rng.choice([-1, 1]))):
        jump = np.where(shift == jump_charge, random_matrix(rng, dim), 0.0)
        generator = generator + lindblad_dissipator(jump, rng.uniform(0.5, 2.0))
    return Liouvillian(matrix=generator, charge=charge)


def swapped_liouvillian(rng, dim):
    """Random generator commuting with a random involution of the basis.

    The involution exchanges a random number of random state pairs (it
    may move state 0); each term is added together with its image.
    """
    order = rng.permutation(dim)
    swap = np.arange(dim)
    n_pairs = int(rng.integers(1, dim // 2 + 1))
    swap[order[: 2 * n_pairs : 2]] = order[1 : 2 * n_pairs : 2]
    swap[order[1 : 2 * n_pairs : 2]] = order[: 2 * n_pairs : 2]
    perm = np.eye(dim)[:, swap]  # perm e_i = e_swap[i]
    h_rand = random_matrix(rng, dim)
    h_rand = h_rand + h_rand.conj().T
    generator = hamiltonian_superop(h_rand + perm @ h_rand @ perm.T)
    for _ in range(3):
        jump, rate = random_matrix(rng, dim), rng.uniform(0.5, 2.0)
        generator = generator + lindblad_dissipator(jump, rate)
        generator = generator + lindblad_dissipator(perm @ jump @ perm.T, rate)
    return Liouvillian(matrix=generator, swap=swap)


def qubit_decay(dims, rates):
    """Decay of each qubit ``site`` at ``rates[site]`` on the register ``dims``."""
    generator = sum(
        lindblad_dissipator(embed_operator({site: QUBIT_LOWER}, dims), rate)
        for site, rate in rates.items()
    )
    return Liouvillian(matrix=generator)


class TestVectorization:
    def test_vec_unvec_round_trip(self):
        rng = np.random.default_rng(11)
        mat = random_matrix(rng, 5)
        assert np.array_equal(unvec(vec(mat), 5), mat)

    def test_vec_is_column_stacking(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(mat), [1.0, 3.0, 2.0, 4.0])

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_superops_match_direct_products(self, dim, seed):
        rng = np.random.default_rng(seed)
        a_mat, b_mat, x_mat = (random_matrix(rng, dim) for _ in range(3))
        assert np.allclose(unvec(left_multiply(a_mat) @ vec(x_mat), dim), a_mat @ x_mat)
        assert np.allclose(unvec(right_multiply(b_mat) @ vec(x_mat), dim), x_mat @ b_mat)
        assert np.allclose(
            unvec(sandwich(a_mat, b_mat) @ vec(x_mat), dim), a_mat @ x_mat @ b_mat
        )

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_assembler_matches_dense_products(self, dim, n_ops, seed):
        rng = np.random.default_rng(seed)
        ops = [random_matrix(rng, dim) for _ in range(n_ops)]
        left, right, h_mat, e_mat = (random_matrix(rng, n_ops) for _ in range(4))
        x_mat = random_matrix(rng, dim)
        pairs = [(j, k) for j in range(n_ops) for k in range(n_ops)]
        got = unvec(quadratic_superop(ops, left, right) @ vec(x_mat), dim)
        # the sandwich term is the one that preserves the trace
        mid = -(left + right).T
        want = sum(
            left[j, k] * ops[j] @ ops[k] @ x_mat
            + right[j, k] * x_mat @ ops[j] @ ops[k]
            + mid[j, k] * ops[j] @ x_mat @ ops[k]
            for j, k in pairs
        )
        assert np.allclose(got, want)
        assert abs(np.trace(got)) <= 1e-10 * max(1.0, np.abs(want).max())
        # the GKSL front: -i [H, X] + sum_jk e_jk (2 o_j X o_k - {o_k o_j, X})
        hamiltonian = sum(h_mat[j, k] * ops[j] @ ops[k] for j, k in pairs)
        got = unvec(gksl_superop(ops, h_mat, e_mat) @ vec(x_mat), dim)
        want = -1j * (hamiltonian @ x_mat - x_mat @ hamiltonian) + sum(
            e_mat[j, k]
            * (
                2.0 * ops[j] @ x_mat @ ops[k]
                - ops[k] @ ops[j] @ x_mat
                - x_mat @ ops[k] @ ops[j]
            )
            for j, k in pairs
        )
        assert np.allclose(got, want)
        # a jump c at rate sits on e[c, c^dag]: rate (2 c X c^dag - {c^dag c, X})
        c_mat, rate = ops[0], 0.37
        cdag = c_mat.conj().T
        jump = gksl_superop([c_mat, cdag], np.zeros((2, 2)), [[0.0, rate], [0.0, 0.0]])
        want = rate * (
            2.0 * c_mat @ x_mat @ cdag - cdag @ c_mat @ x_mat - x_mat @ cdag @ c_mat
        )
        assert np.allclose(unvec(jump @ vec(x_mat), dim), want)


class TestGeneratorStructure:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_generator_preserves_trace_and_hermiticity(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        generator = hamiltonian_superop(
            (lambda m: m + m.conj().T)(random_matrix(rng, dim))
        )
        for _ in range(int(rng.integers(1, 4))):
            generator = generator + lindblad_dissipator(
                random_matrix(rng, dim), rng.uniform(0.1, 2.0)
            )
        liou = Liouvillian(matrix=generator.tocsr())
        assert trace_defect(liou) <= 1e-12 * max(1.0, liou.scale)
        rho = random_density_matrix(rng, dim)
        image = apply(liou, rho)
        assert abs(np.trace(image)) <= 1e-12 * max(1.0, liou.scale)
        assert np.abs(image - image.conj().T).max() <= 1e-12 * max(1.0, liou.scale)

    def test_liouvillian_shape_mismatch_rejected(self):
        # the generator's side is dim**2: it must be square, with a square side
        with pytest.raises(ConfigInvalid, match="not square"):
            Liouvillian(matrix=sp.identity(4, format="csr")[:, :3])
        with pytest.raises(ConfigInvalid, match="not square"):
            Liouvillian(matrix=sp.identity(3, format="csr"))
        assert Liouvillian(matrix=sp.identity(9, format="csr")).dim == 3
        with pytest.raises(ConfigInvalid):
            Liouvillian(matrix=sp.identity(4, format="csr"), charge=[0, 1, 2])
        with pytest.raises(ConfigInvalid):
            Liouvillian(matrix=sp.identity(4, format="csr"), charge=[0, 0.5])

    def test_cross_sector_entry_rejected(self):
        # vec index 1 is rho_10 (sector 1), index 0 is rho_00 (sector 0)
        generator = lindblad_dissipator(QUBIT_LOWER, 1.0).tolil()
        generator[1, 0] = 0.3
        with pytest.raises(ConfigInvalid, match="crosses charge sectors"):
            Liouvillian(matrix=generator, charge=[0, 1])
        # without a charge every entry is in the one sector
        Liouvillian(matrix=generator)

    def test_round_off_cross_sector_entry_dropped(self):
        generator = lindblad_dissipator(QUBIT_LOWER, 1.0).tolil()
        generator[1, 0] = 1e-15
        generator = generator.tocsr()
        liou = Liouvillian(matrix=generator, charge=[0, 1])
        # the round-off is dropped from a copy; the caller's matrix keeps it
        assert liou.matrix[1, 0] == 0.0 and liou.matrix.nnz == generator.nnz - 1
        assert generator[1, 0] == 1e-15
        # the floor holds in every sector, not only for crossing entries
        assert Liouvillian(matrix=generator).matrix.nnz == generator.nnz - 1
        rho = steady_state_dm(liou)
        assert np.array_equal(rho, np.diag([1.0, 0.0]))


class TestSteadyState:
    @pytest.mark.parametrize("dim", [3, 6, 11])
    def test_absorbing_fixed_point(self, dim):
        rng = np.random.default_rng(dim)
        liou, psi = absorbing_liouvillian(rng, dim)
        rho = steady_state_dm(liou)
        assert fidelity_pure(rho, psi) >= 1.0 - 1e-10
        assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-8

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_svd_reference(self, dim, seed):
        rng = np.random.default_rng(seed)
        liou, _ = absorbing_liouvillian(rng, dim)
        assert np.abs(steady_state_dm(liou) - svd_steady_state(liou)).max() <= 1e-10

    @given(st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_charge_block_matches_svd_reference(self, n_qubits, seed):
        liou = charged_liouvillian(np.random.default_rng(seed), n_qubits)
        assert np.abs(steady_state_dm(liou) - svd_steady_state(liou)).max() <= 1e-10

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_swap_matches_svd_reference(self, dim, seed):
        liou = swapped_liouvillian(np.random.default_rng(seed), dim)
        rho = steady_state_dm(liou)
        assert np.abs(rho - svd_steady_state(liou)).max() <= 1e-10
        assert np.abs(rho[np.ix_(liou.swap, liou.swap)] - rho).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("mbar", [1.2, math.sqrt(2.0)], ids=["mbar-1.2", "mbar-sqrt2"])
    @pytest.mark.parametrize("model", ["xx", "effective", "closed-form"])
    def test_two_pair_spin_models_match_svd_reference(self, model, mbar):
        nbar, eta, zeta, g = 1.0, 1.0, 1.0, 0.01
        if model == "xx":
            liou = build_xx_liouvillian(2, 1.0, 0.5, nbar, mbar)
        elif model == "effective":
            cfg = ArrayConfig.homogeneous(2, eta=eta, zeta=zeta, nbar=nbar, mbar=mbar, g=g)
            liou = build_effective_general(cfg)
        else:
            liou = build_effective_closed_form(2, eta=eta, zeta=zeta, g=g, nbar=nbar, mbar=mbar)
        assert liou.charge.any()
        assert np.abs(steady_state_dm(liou) - svd_steady_state(liou)).max() <= 1e-10

    def test_thermal_qubit_populations(self):
        nbar = 0.7
        generator = lindblad_dissipator(QUBIT_LOWER, nbar + 1.0) + lindblad_dissipator(
            QUBIT_LOWER.T, nbar
        )
        rho = steady_state_dm(Liouvillian(matrix=generator))
        expected = np.diag([(nbar + 1.0), nbar]) / (2.0 * nbar + 1.0)
        assert np.abs(rho - expected).max() <= 1e-12

    @pytest.mark.parametrize(
        "liou",
        [
            # dissipation on qubit 0 only: the other qubits are untouched
            qubit_decay((2, 2), {0: 1.0}),
            qubit_decay((2, 2, 2), {0: 1.0}),
            # pure dephasing keeps every diagonal state; SuperLU fails
            # here with a different message than "exactly singular"
            Liouvillian(matrix=lindblad_dissipator(np.diag(np.arange(6.0)), 1.0)),
            # the same with six charge sectors: the block is the diagonal alone
            Liouvillian(
                matrix=lindblad_dissipator(np.diag(np.arange(6.0)), 1.0), charge=np.arange(6)
            ),
            # the bonds are round-off of a drive at 4e307 and are not stored,
            # so the far spins decouple; the solve's sums stay finite
            build_xx_liouvillian(3, 1.0, 4e307, 0, 0),
        ],
        ids=[
            "two-qubits", "three-qubits", "dephasing-d6", "dephasing-d6-charged", "xx-huge-drive"
        ],
    )
    def test_degenerate_kernel_refused(self, liou):
        with pytest.raises(DegenerateSteadyState) as caught:
            steady_state_dm(liou)
        # one line that names the half; SuperLU's own text stays in the cause
        message = str(caught.value)
        assert "\n" not in message and "SuperLU" not in message
        assert message.startswith("trace-bordered even half is singular")

    def test_near_degenerate_kernel_refused(self):
        # qubit 1 decays at rate eps: a second state is stationary up to eps
        with pytest.raises(DegenerateSteadyState, match="condition estimate"):
            steady_state_dm(qubit_decay((2, 2), {0: 1.0, 1: 1e-10}))
        rho = steady_state_dm(qubit_decay((2, 2), {0: 1.0, 1: 1e-6}))
        assert fidelity_pure(rho, np.eye(4)[0]) >= 1.0 - 1e-10

    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("factor", [1e-100, 1e100])
    def test_a_multiple_of_a_generator_gets_its_state_and_its_verdict(self, factor):
        # the kernel certificate reads the generator's shape, not its scale:
        # at these multiples its estimate once over- or underflowed to NaN
        def verdict(liou):
            try:
                return steady_state_dm(liou)
            except DegenerateSteadyState:
                return None

        cfg = ArrayConfig.homogeneous(2, nbar=1.0, mbar=1.2, g=0.01)
        for liou in (
            build_xx_liouvillian(2, 1.0, 0.5, 1.0, 1.2),
            build_effective_general(cfg),
            qubit_decay((2, 2), {0: 1.0, 1: 1e-10}),  # refused at every scale
        ):
            want = verdict(liou)
            got = verdict(Liouvillian(factor * liou.matrix, liou.charge, liou.swap))
            assert (got is None) == (want is None)
            if want is not None:
                assert np.abs(got - want).max() <= 1e-12
        assert want is None

    @pytest.mark.parametrize("gamma", [1e-320, 1e-310, 3e307])
    def test_a_one_pair_chain_gets_its_state_at_any_rate(self, gamma):
        # the solve runs on the generator over its scale, so a subnormal
        # or a nearly overflowing rate solves like gamma = 1
        want = steady_state_dm(build_xx_liouvillian(1, 1.0, 1.0, 0, 0))
        assert np.array_equal(steady_state_dm(build_xx_liouvillian(1, 1.0, gamma, 0, 0)), want)

    def test_non_hermiticity_preserving_generator_refused(self):
        # rho -> -i H rho without its -rho H partner maps the Hermitian
        # rho_00 to an imaginary multiple of itself
        generator = lindblad_dissipator(QUBIT_LOWER, 1.0) + left_multiply(
            -0.3j * np.diag([1.0, -1.0])
        )
        with pytest.raises(ConfigInvalid, match="does not preserve Hermiticity"):
            steady_state_dm(Liouvillian(matrix=generator))

    def test_factored_system_is_real_and_block_sized(self, monkeypatch):
        factored = []
        splu = spla.splu

        def spy(system, *args, **kwargs):
            factored.append(system)
            return splu(system, *args, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        liou = build_xx_liouvillian(2, 1.0, 0.5, 1.0, 1.2)
        assert np.iscomplexobj(liou.matrix.data)
        steady_state_dm(liou)
        # C(8, 4) = 70 charge-diagonal entries; the swap fixes the four
        # states with equal arrays, so its trace on the block is 4**2 and
        # the halves hold (70 + 16) / 2 and (70 - 16) / 2 coordinates
        even, odd = factored
        assert even.dtype == odd.dtype == np.float64
        assert even.shape == (43, 43)
        assert odd.shape == (27, 27)
        assert even.shape[0] + odd.shape[0] == 70

    @pytest.mark.parametrize(
        "leak,message", [(0.0, "odd half is singular"), (1e-10, "condition estimate")]
    )
    def test_degenerate_odd_half_refused(self, leak, message):
        # both singly excited states absorb; the even half has the unique
        # state |01><01| + |10><10| (halved), but the odd
        # |01><01| - |10><10| is stationary too, up to the rate of a leak
        # between them
        ket = np.eye(4)
        generator = sum(
            lindblad_dissipator(np.outer(ket[to], ket[source]), rate)
            for to, source, rate in [
                (1, 3, 1.0), (2, 3, 1.0), (1, 0, 1.0), (2, 0, 1.0), (1, 2, leak), (2, 1, leak)
            ]
        )
        liou = Liouvillian(matrix=generator, charge=[0, -1, 1, 0], swap=[0, 2, 1, 3])
        with pytest.raises(DegenerateSteadyState, match=message):
            steady_state_dm(liou)

    def test_bad_declared_swap_refused(self):
        # qubits decaying at unequal rates do not commute with their swap
        unequal = qubit_decay((2, 2), {0: 1.0, 1: 2.0}).matrix
        with pytest.raises(ConfigInvalid, match="does not commute with the declared swap"):
            steady_state_dm(Liouvillian(matrix=unequal, swap=[0, 2, 1, 3]))
        equal = qubit_decay((2, 2), {0: 1.0, 1: 1.0}).matrix
        with pytest.raises(ConfigInvalid, match="not a permutation"):
            Liouvillian(matrix=equal, swap=[0, 2, 2, 3])
        with pytest.raises(ConfigInvalid, match="not a permutation"):
            Liouvillian(matrix=equal, swap=[0, 2, 1, 4])
        with pytest.raises(ConfigInvalid, match="swap must hold 4 integers"):
            Liouvillian(matrix=equal, swap=[0.0, 2.0, 1.0, 3.0])
        with pytest.raises(ConfigInvalid, match="not an involution"):
            Liouvillian(matrix=equal, swap=[1, 2, 0, 3])
        # the charge N_0 - N_1 is negated by the swap, N_0 + N_1 is not
        with pytest.raises(ConfigInvalid, match="does not map charge to -charge"):
            Liouvillian(matrix=equal, charge=[0, 1, 1, 2], swap=[0, 2, 1, 3])
        swapped = Liouvillian(matrix=equal, charge=[0, -1, 1, 0], swap=[0, 2, 1, 3])
        assert not swapped.swap.flags.writeable
        assert np.array_equal(steady_state_dm(swapped), np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_swapped_solve_is_deterministic(self):
        liou = build_xx_liouvillian(3, 1.0, 0.5, 1.0, 1.2)
        assert liou.swap is not None
        assert np.array_equal(steady_state_dm(liou), steady_state_dm(liou))

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_parity_basis_is_unitary_and_splits_the_swap(self, n_pairs):
        liou = build_xx_liouvillian(n_pairs, 1.0, 0.5, 1.0, 1.2)
        dim, swap = liou.dim, liou.swap
        hermitian, i, j, part = _hermitian_basis(liou.charge)
        parity, n_even = _swap_parity(i, j, part, swap)
        basis = (hermitian @ parity).toarray()
        assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-15
        # column k is vec of a Hermitian matrix that the swap maps to
        # +itself (even, k < n_even) or -itself (odd)
        for k in range(basis.shape[1]):
            mat = unvec(basis[:, k], dim)
            assert np.array_equal(mat, mat.conj().T)
            parity_sign = 1.0 if k < n_even else -1.0
            assert np.array_equal(mat[np.ix_(swap, swap)], parity_sign * mat)
        # even column 0 holds rho_00 alone: the swap fixes the ground state
        assert basis[0, 0] == 1.0 and np.count_nonzero(basis[0]) == 1

    def test_non_finite_generator_refused(self):
        for bad in (np.nan, np.inf):
            generator = lindblad_dissipator(QUBIT_LOWER, 1.0).tolil()
            generator[1, 2] = bad
            with pytest.raises(ModelError):
                steady_state_dm(Liouvillian(matrix=generator))


def trace_distance(rho, sigma):
    return 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()


class TestSteadyStateSweep:
    """A sweep of ``free + mbar per_mbar`` against the one-point solve of each sum."""

    @pytest.fixture
    def factored(self, monkeypatch):
        calls = []
        factor = entrep.liouville._factor

        def spy(system, name):
            calls.append(name)
            return factor(system, name)

        monkeypatch.setattr(entrep.liouville, "_factor", spy)
        return calls

    @pytest.fixture
    def patterns(self, monkeypatch):
        calls = []
        on_one_pattern = entrep.liouville._on_one_pattern

        def spy(free, per_mbar, by_column):
            out = on_one_pattern(free, per_mbar, by_column)
            calls.append((free, per_mbar, by_column, out))
            return out

        monkeypatch.setattr(entrep.liouville, "_on_one_pattern", spy)
        return calls

    def xx_parts(self, n_pairs):
        free = build_xx_liouvillian(n_pairs, 1.0, 0.5, 1.0, 0.0)
        return free, build_xx_liouvillian(n_pairs, 1.0, 0.5, 1.0, 1.0).matrix - free.matrix

    def total(self, free, per_mbar, mbar):
        matrix = free.matrix + mbar * per_mbar
        return Liouvillian(matrix=matrix, charge=free.charge, swap=free.swap)

    MBARS = (0.0, 0.7, 1.2, math.sqrt(2.0))

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_each_point_is_the_state_of_its_sum(self, n_pairs, factored):
        free, per_mbar = self.xx_parts(n_pairs)
        states = list(steady_state_sweep(free, per_mbar, self.MBARS))
        assert factored == ["trace-bordered even half", "odd half"] * len(self.MBARS)
        for mbar, rho in zip(self.MBARS, states):
            want = steady_state_dm(self.total(free, per_mbar, mbar))
            assert trace_distance(rho, want) <= 1e-12

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_each_point_matches_the_svd_reference(self, n_pairs):
        free, per_mbar = self.xx_parts(n_pairs)
        for mbar, rho in zip(self.MBARS, steady_state_sweep(free, per_mbar, self.MBARS)):
            want = svd_steady_state(self.total(free, per_mbar, mbar))
            assert np.abs(rho - want).max() <= 1e-10
        # without a per-mbar part every point is the free generator's state
        for rho in steady_state_sweep(free, None, [0.0, 1.2]):
            assert np.abs(rho - svd_steady_state(free)).max() <= 1e-10

    def test_points_are_solved_when_asked_for(self, factored):
        def mbars():
            yield 1.2
            raise RuntimeError("second point read")

        states = steady_state_sweep(*self.xx_parts(2), mbars())
        assert factored == []
        next(states)
        assert len(factored) == 2
        with pytest.raises(RuntimeError, match="second point read"):
            next(states)

    @pytest.mark.parametrize(
        "mbar",
        [1j, None, "one", True, [1.0], math.nan, math.inf, -math.inf],
        ids=["complex", "none", "word", "bool", "list", "nan", "inf", "-inf"],
    )
    def test_each_mbar_is_read_as_a_real_number(self, mbar, factored):
        free, per_mbar = self.xx_parts(1)
        for part in (per_mbar, None):
            states = steady_state_sweep(free, part, [1.2, mbar])
            next(states)
            factored.clear()
            with pytest.raises(ConfigInvalid, match=r"^mbar (=|must be finite)"):
                next(states)
            assert factored == []
        # a string that spells a number is that number, as for every real input
        (rho,) = steady_state_sweep(free, per_mbar, ["1.2"])
        assert np.array_equal(rho, next(steady_state_sweep(free, per_mbar, [1.2])))

    @pytest.mark.parametrize(
        "term,message",
        [
            # decay of one array's end spin only: Hermitian, charge-free, not swap-even
            (lambda dims: lindblad_dissipator(embed_operator({0: QUBIT_LOWER}, dims), 0.3),
             "does not commute with the declared swap"),
            # -i H rho without its -rho H partner, H even under the swap
            (lambda dims: left_multiply(-0.3j * embed_operator(
                {0: np.diag([1.0, -1.0]), 1: np.diag([1.0, -1.0])}, dims)),
             "does not preserve Hermiticity"),
        ],
        ids=["swap", "hermiticity"],
    )
    def test_a_per_mbar_part_that_breaks_a_symmetry_is_refused_unfactored(
        self, term, message, factored
    ):
        free, per_mbar = self.xx_parts(1)
        broken = per_mbar + term((2, 2))
        states = steady_state_sweep(free, broken, [1.2, 1.3])
        with pytest.raises(ConfigInvalid, match=message + r".* = \S+, not <= \S+$"):
            next(states)
        assert factored == []
        # the symmetric part alone still solves, at mbar zero
        (rho,) = steady_state_sweep(free, broken, [0.0])
        assert trace_distance(rho, steady_state_dm(free)) <= 1e-12

    @pytest.mark.parametrize(
        "other,message",
        [
            # a generator of two pairs on the space of one
            (lambda per_mbar: build_xx_liouvillian(2, 1.0, 0.5, 1.0, 1.0).matrix,
             "charge must hold 16 integers"),
            (lambda per_mbar: sp.eye(5), r"shape \(5, 5\) is not square of square side"),
            # sigma^- rho on one array's end spin lowers that array's charge
            (lambda per_mbar: per_mbar + left_multiply(embed_operator({0: QUBIT_LOWER}, (2, 2))),
             "generator crosses charge sectors"),
        ],
        ids=["two-pair", "not-square-side", "crossing"],
    )
    def test_a_per_mbar_matrix_off_the_free_generators_space_is_refused(
        self, other, message, factored
    ):
        free, per_mbar = self.xx_parts(1)
        with pytest.raises(ConfigInvalid, match=message):
            steady_state_sweep(free, other(per_mbar), [1.0])
        assert factored == []

    def test_an_overflowing_sum_is_refused(self):
        free, per_mbar = self.xx_parts(1)
        # each part is finite, and so is its projection; 1e308 * 4 is not
        with pytest.raises(ConfigInvalid, match="non-finite entries"):
            next(steady_state_sweep(free, 4.0 * per_mbar, [1e308]))

    def test_both_parts_are_laid_on_one_canonical_pattern(self, patterns):
        free, per_mbar = self.xx_parts(2)
        steady_state_sweep(free, per_mbar, [])
        # the generator, then the even and the odd half
        assert [by_column for _, _, by_column, _ in patterns] == [False, True, True]
        for free_part, per_part, by_column, (indices, indptr, *data) in patterns:
            n_major, n_minor = free_part.shape[::-1] if by_column else free_part.shape
            # canonical: each major line sorted, each entry once
            keys = np.repeat(np.arange(n_major), np.diff(indptr)) * n_minor + indices
            assert np.all(np.diff(keys) > 0)
            stored = [
                set(zip(*((m.col, m.row) if by_column else (m.row, m.col))))
                for m in (free_part.tocoo(), per_part.tocoo())
            ]
            assert set(zip(*divmod(keys, n_minor))) == stored[0] | stored[1]
            compressed = sp.csc_matrix if by_column else sp.csr_matrix
            for part, values in zip((free_part, per_part), data):
                # each part's own entries, and explicit zeros at the other's positions
                assert values.size == keys.size
                on_pattern = compressed((values, indices, indptr), shape=free_part.shape)
                assert np.array_equal(on_pattern.toarray(), part.toarray())

    def test_a_lone_generator_is_solved_on_its_own_entries(self, patterns):
        free, _ = self.xx_parts(2)
        steady_state_dm(free)
        generator, per_mbar, _, (indices, indptr, data, per_data) = patterns[0]
        assert generator is free.matrix and per_mbar is None and per_data is None
        assert np.shares_memory(data, free.matrix.data)
        assert indices is free.matrix.indices and indptr is free.matrix.indptr


class TestOperators:
    def test_destroy_matrix_elements(self):
        a_op = destroy(4)
        state = np.zeros(4)
        state[3] = 1.0
        assert np.allclose(a_op @ state, np.sqrt(3.0) * np.eye(4)[2])
        comm = a_op @ a_op.conj().T - a_op.conj().T @ a_op
        assert np.allclose(np.diag(comm), [1.0, 1.0, 1.0, -3.0])

    def test_destroy_needs_two_levels(self):
        with pytest.raises(ConfigInvalid):
            destroy(1)

    def test_embed_operator_site_order(self):
        number = np.diag([0.0, 1.0])
        op = embed_operator({0: number}, (2, 2)).toarray()
        # site 0 is the most significant factor
        assert np.allclose(np.diag(op), [0.0, 0.0, 1.0, 1.0])
        op = embed_operator({1: number}, (2, 2)).toarray()
        assert np.allclose(np.diag(op), [0.0, 1.0, 0.0, 1.0])

    def test_embed_operator_shape_mismatch(self):
        with pytest.raises(ConfigInvalid):
            embed_operator({0: np.eye(3)}, (2, 2))


class TestPartialTrace:
    def test_product_state_factors(self):
        rng = np.random.default_rng(3)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), (0,)), rho_a)
        assert np.allclose(partial_trace(joint, (2, 3), (1,)), rho_b)

    def test_keep_order_is_respected(self):
        rng = np.random.default_rng(5)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        joint = np.kron(rho_a, rho_b)
        swapped = partial_trace(joint, (2, 2), (1, 0))
        assert np.allclose(swapped, np.kron(rho_b, rho_a))

    def test_entangled_pair_marginal_is_maximally_mixed(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = np.outer(bell, bell)
        assert np.allclose(partial_trace(rho, (2, 2), (0,)), 0.5 * np.eye(2))

    def test_reduced_pair_dm_picks_the_right_qubits(self):
        rng = np.random.default_rng(8)
        singles = [random_density_matrix(rng, 2) for _ in range(3)]
        joint = np.kron(np.kron(singles[0], singles[1]), singles[2])
        got = reduced_pair_dm(joint, 0, 2)
        assert np.allclose(got, np.kron(singles[0], singles[2]))

    def test_bad_subsystems_rejected(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(IndexOutOfRange):
            partial_trace(rho, (2, 2), (0, 2))
        with pytest.raises(IndexOutOfRange):
            reduced_pair_dm(rho, 1, 1)
        # the state must have the size the subsystems multiply to
        with pytest.raises(ConfigInvalid, match=r"\(16, 16\).*\(2, 2, 3\).*12"):
            partial_trace(np.eye(16) / 16, (2, 2, 3), (0,))
        with pytest.raises(ConfigInvalid, match=r"\(4, 2\)"):
            partial_trace(np.ones((4, 2)), (2, 2), (0,))
        # a state of qubits has a power-of-two side
        with pytest.raises(ConfigInvalid, match="side 6 is not a power of two"):
            reduced_pair_dm(np.eye(6) / 6, 0, 1)


class TestQubitLogneg:
    def test_bell_state_is_one(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        assert logneg_qubits(np.outer(bell, bell)) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(21)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert logneg_qubits(rho) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_werner_family_closed_form(self, weight):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
        rho = weight * np.outer(bell, bell) + (1.0 - weight) * np.eye(4) / 4.0
        expected = (
            np.log2(2.0 * (3.0 * weight - 1.0) / 4.0 + 1.0) if weight > 1.0 / 3.0 else 0.0
        )
        assert logneg_qubits(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_non_states(self):
        with pytest.raises(InvalidState):
            logneg_qubits(np.eye(4))  # trace 4
        with pytest.raises(InvalidState):
            logneg_qubits(np.diag([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(InvalidState):
            logneg_qubits(np.eye(8) / 8.0)
        # NaN passes every ">" and "<" test, so it must be refused as such
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidState):
                logneg_qubits(np.full((4, 4), bad))


class TestStateChecks:
    def test_assert_density_matrix_accepts_random_states(self):
        rng = np.random.default_rng(31)
        assert_density_matrix(random_density_matrix(rng, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_assert_density_matrix_refuses_non_finite_entries(self, bad):
        with pytest.raises(InvalidState):
            assert_density_matrix(np.full((2, 2), bad))
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 0] = bad
        with pytest.raises(InvalidState):
            assert_density_matrix(rho)

    def test_fidelity_pure_on_eigenstate(self):
        psi = np.array([1.0, 0.0])
        rho = np.diag([0.8, 0.2])
        assert fidelity_pure(rho, psi) == pytest.approx(0.8, abs=1e-15)
