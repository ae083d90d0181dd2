"""Tests for the vectorized master-equation machinery.

The steady-state extractor is checked against constructive oracles:
generators engineered to have a *known* unique fixed point (pure
absorbing states, thermal qubits), plus degenerate and near-degenerate
cases that must be refused.  A dense singular-value kernel extraction,
kept here only as a reference, checks the sparse LU solve on random
generators.
"""

import numpy as np
import pytest
import scipy.sparse as sp
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
    QUBIT_LOWER,
    assert_density_matrix,
    destroy,
    embed_operator,
    fidelity_pure,
    hamiltonian_superop,
    left_multiply,
    lindblad_dissipator,
    logneg_qubits,
    partial_trace,
    reduced_pair_dm,
    right_multiply,
    sandwich,
    steady_state_dm,
    unvec,
    vec,
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
    return Liouvillian(dim=dim, matrix=generator.tocsr()), psi


def svd_steady_state(liou, gap_rtol=1e-8):
    """Reference fixed point: the dense right-singular vector of the smallest
    singular value, after checking that the second-smallest is not tiny."""
    _, svals, vh = np.linalg.svd(liou.matrix.toarray())
    assert svals[-2] >= gap_rtol * svals[0], "reference kernel is not one-dimensional"
    rho = unvec(vh[-1].conj(), liou.dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def qubit_decay(dims, rates):
    """Decay of each qubit ``site`` at ``rates[site]`` on the register ``dims``."""
    generator = sum(
        lindblad_dissipator(embed_operator({site: QUBIT_LOWER}, dims), rate)
        for site, rate in rates.items()
    )
    return Liouvillian(dim=2 ** len(dims), matrix=generator)


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

    def test_hamiltonian_superop_is_commutator(self):
        rng = np.random.default_rng(7)
        h_rand = random_matrix(rng, 4)
        h_mat = h_rand + h_rand.conj().T
        rho = random_density_matrix(rng, 4)
        got = unvec(hamiltonian_superop(h_mat) @ vec(rho), 4)
        assert np.allclose(got, -1j * (h_mat @ rho - rho @ h_mat))

    def test_dissipator_matches_bracket(self):
        rng = np.random.default_rng(13)
        c_mat = random_matrix(rng, 3)
        rho = random_density_matrix(rng, 3)
        rate = 0.37
        got = unvec(lindblad_dissipator(c_mat, rate) @ vec(rho), 3)
        cdag = c_mat.conj().T
        want = rate * (
            2.0 * c_mat @ rho @ cdag - cdag @ c_mat @ rho - rho @ cdag @ c_mat
        )
        assert np.allclose(got, want)


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
        liou = Liouvillian(dim=dim, matrix=generator.tocsr())
        assert liou.trace_defect() <= 1e-12 * max(1.0, liou.scale)
        rho = random_density_matrix(rng, dim)
        image = liou.apply(rho)
        assert abs(np.trace(image)) <= 1e-12 * max(1.0, liou.scale)
        assert np.abs(image - image.conj().T).max() <= 1e-12 * max(1.0, liou.scale)

    def test_liouvillian_shape_mismatch_rejected(self):
        with pytest.raises(ConfigInvalid):
            Liouvillian(dim=3, matrix=sp.identity(4, format="csr"))


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

    def test_thermal_qubit_populations(self):
        nbar = 0.7
        generator = lindblad_dissipator(QUBIT_LOWER, nbar + 1.0) + lindblad_dissipator(
            QUBIT_LOWER.T, nbar
        )
        rho = steady_state_dm(Liouvillian(dim=2, matrix=generator))
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
            Liouvillian(dim=6, matrix=lindblad_dissipator(np.diag(np.arange(6.0)), 1.0)),
        ],
        ids=["two-qubits", "three-qubits", "dephasing-d6"],
    )
    def test_degenerate_kernel_refused(self, liou):
        with pytest.raises(DegenerateSteadyState):
            steady_state_dm(liou)

    def test_near_degenerate_kernel_refused(self):
        # qubit 1 decays at rate eps: a second state is stationary up to eps
        with pytest.raises(DegenerateSteadyState, match="condition estimate"):
            steady_state_dm(qubit_decay((2, 2), {0: 1.0, 1: 1e-10}))
        rho = steady_state_dm(qubit_decay((2, 2), {0: 1.0, 1: 1e-6}))
        assert fidelity_pure(rho, np.eye(4)[0]) >= 1.0 - 1e-10

    def test_non_finite_generator_refused(self):
        generator = lindblad_dissipator(QUBIT_LOWER, 1.0).tolil()
        generator[1, 2] = np.nan
        with pytest.raises(ModelError):
            steady_state_dm(Liouvillian(dim=2, matrix=generator))


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
        got = reduced_pair_dm(joint, 0, 2, 3)
        assert np.allclose(got, np.kron(singles[0], singles[2]))

    def test_bad_subsystems_rejected(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(IndexOutOfRange):
            partial_trace(rho, (2, 2), (0, 2))
        with pytest.raises(IndexOutOfRange):
            reduced_pair_dm(rho, 1, 1, 2)


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


class TestStateChecks:
    def test_assert_density_matrix_accepts_random_states(self):
        rng = np.random.default_rng(31)
        assert_density_matrix(random_density_matrix(rng, 5))

    def test_fidelity_pure_on_eigenstate(self):
        psi = np.array([1.0, 0.0])
        rho = np.diag([0.8, 0.2])
        assert fidelity_pure(rho, psi) == pytest.approx(0.8, abs=1e-15)
