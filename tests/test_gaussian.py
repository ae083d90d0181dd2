"""Tests for the Gaussian-state core.

The Lyapunov solver is cross-checked against the integral representation
sigma = int_0^inf exp(A t) D exp(A^T t) dt evaluated by adaptive
quadrature, the real Sylvester solve against scipy's dense complex one, and
the entanglement routines against closed forms for two-mode squeezed
thermal states.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgees, dtrsyl

import entrep.gaussian
from entrep.errors import (
    ConfigInvalid,
    IndexOutOfRange,
    NoConvergence,
    NonPhysicalResult,
    NotHurwitz,
    NotPositiveDefinite,
    OverSqueezed,
)
from entrep.gaussian import (
    SchurForm,
    chain_phases,
    check_drive,
    log_negativity_gaussian,
    logneg_from_nu,
    normalized_logneg,
    schur_form,
    solve_lyapunov,
    solve_rank_one_sylvester,
    squeezing_bound,
    symplectic_eigenvalues,
    symplectic_form,
    uncertainty_margin,
)
from quadrature_oracle import (
    gauge,
    quadrature_embedding,
    reduce_to_pair,
    two_mode_squeezed_thermal_cm,
)

# Reference: -log2(3 - 2*sqrt(2)), the negativity of the (nbar=1,
# mbar=sqrt(2)) two-mode squeezed vacuum, and its normalized value.
E_SQUEEZED_VACUUM_N1 = 2.5431066063272256
E_SQUEEZED_VACUUM_N1_NORM = 0.7177618087431478


def random_physical_cm(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """Random physical covariance via a symplectic congruence of a thermal one."""
    dim = 2 * n_modes
    k = rng.normal(size=(dim, dim))
    k = 0.3 * (k + k.T)
    s = scipy.linalg.expm(symplectic_form(n_modes) @ k)
    nus = 1.0 + rng.uniform(0.0, 2.0, size=n_modes)
    return s @ np.diag(np.repeat(nus, 2)) @ s.T


def random_thermal_generator(rng: np.random.Generator, n_modes: int):
    """``(drift, diffusion)`` of a random hopping Hamiltonian with per-mode thermal damping.

    Always a valid quantum generator: the Hamiltonian part is Hermitian
    and each mode is damped into its own thermal environment, so the
    drift is Hurwitz and the steady state physical by construction.
    """
    g = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    g = 0.5 * (g + g.conj().T)
    kappa = rng.uniform(0.3, 1.5, size=n_modes)
    nbar = rng.uniform(0.0, 2.0, size=n_modes)
    drift = quadrature_embedding(-1j * g - np.diag(kappa))
    diffusion = np.diag(np.repeat(2.0 * kappa * (2.0 * nbar + 1.0), 2))
    return drift, diffusion


class TestSymplecticForm:
    @pytest.mark.parametrize("n_modes", [1, 2, 5])
    def test_square_and_antisymmetry(self, n_modes):
        omega = symplectic_form(n_modes)
        assert np.array_equal(omega.T, -omega)
        assert np.allclose(omega @ omega, -np.eye(2 * n_modes))

    def test_rejects_zero_modes(self):
        with pytest.raises(ConfigInvalid):
            symplectic_form(0)


class TestSolveLyapunov:
    def test_vacuum_fixed_point(self):
        sigma = solve_lyapunov(-np.eye(4), 2.0 * np.eye(4))
        assert np.allclose(sigma, np.eye(4), atol=1e-13)

    def test_integral_representation_oracle(self):
        drift = np.array([[-1.0, 0.3], [-0.3, -1.0]])
        diffusion = 2.0 * np.eye(2)

        def integrand(t):
            propagator = scipy.linalg.expm(drift * t)
            return propagator @ diffusion @ propagator.T

        brute, _ = scipy.integrate.quad_vec(integrand, 0.0, 50.0, epsabs=1e-12)
        solved = solve_lyapunov(drift, diffusion)
        assert np.abs(solved - brute).max() <= 1e-8

    def test_integral_oracle_on_random_generator(self):
        rng = np.random.default_rng(7)
        drift, diffusion = random_thermal_generator(rng, 2)

        def integrand(t):
            propagator = scipy.linalg.expm(drift * t)
            return propagator @ diffusion @ propagator.T

        brute, _ = scipy.integrate.quad_vec(integrand, 0.0, 80.0, epsabs=1e-12)
        solved = solve_lyapunov(drift, diffusion)
        assert np.abs(solved - brute).max() <= 1e-8

    def test_residual_and_physicality_over_random_generators(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            drift, diffusion = random_thermal_generator(rng, 1 + trial % 4)
            sigma = solve_lyapunov(drift, diffusion)
            residual = np.abs(drift @ sigma + sigma @ drift.T + diffusion).max()
            assert residual <= 1e-10 * max(1.0, np.abs(diffusion).max())
            assert np.array_equal(sigma, sigma.T)
            assert symplectic_eigenvalues(sigma).min() >= 1.0 - 1e-9

    def test_result_is_a_symmetric_read_only_array(self):
        # an asymmetric drift gives a covariance symmetric to round-off only
        # before the solver symmetrizes it; the caller cannot write to it
        drift = np.kron(np.array([[-1.0, 0.4], [-0.7, -1.3]]), np.eye(2))
        sigma = solve_lyapunov(drift, 3.0 * np.eye(4))
        assert type(sigma) is np.ndarray
        assert np.array_equal(sigma, sigma.T)
        with pytest.raises(ValueError, match="read-only"):
            sigma[0, 0] = 5.0

    def test_rejects_marginally_stable_drift(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.zeros((2, 2)), np.eye(2))

    def test_rejects_unphysical_generator(self):
        # classically solvable, but the steady covariance violates the
        # uncertainty bound (sigma = 0.25*I)
        with pytest.raises(NonPhysicalResult):
            solve_lyapunov(-np.eye(4), 0.5 * np.eye(4))

    def test_diffusion_validation(self):
        asym = np.eye(2)
        asym = asym + np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigInvalid, match="^diffusion matrix must be symmetric$"):
            solve_lyapunov(-np.eye(2), asym)
        with pytest.raises(ConfigInvalid, match="^diffusion matrix must be positive semidefinite$"):
            solve_lyapunov(-np.eye(2), -np.eye(2))
        with pytest.raises(ConfigInvalid, match="^drift and diffusion entries must be finite$"):
            solve_lyapunov([[np.nan, 0.0], [0.0, -1.0]], np.eye(2))
        with pytest.raises(ConfigInvalid, match="^drift and diffusion entries must be finite$"):
            solve_lyapunov(-np.eye(2), [[np.inf, 0.0], [0.0, 1.0]])


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert np.allclose(symplectic_eigenvalues(np.eye(4)), [1.0, 1.0])

    def test_single_thermal_mode(self):
        assert np.allclose(symplectic_eigenvalues(3.0 * np.eye(2)), [3.0])

    def test_pure_squeezed_limit(self):
        # mbar = sqrt(nbar*(nbar+1)) is a pure state: unit symplectic spectrum
        sigma = two_mode_squeezed_thermal_cm(1.0, math.sqrt(2.0))
        assert np.abs(symplectic_eigenvalues(sigma) - 1.0).max() <= 1e-9

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(NotPositiveDefinite):
            symplectic_eigenvalues(np.diag([1.0, -1.0, 1.0, 1.0]))

    def test_rejects_asymmetric_matrix(self):
        mat = np.eye(4)
        mat[0, 1] = 0.5
        with pytest.raises(ConfigInvalid):
            symplectic_eigenvalues(mat)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_symplectic_congruence(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_physical_cm(rng, 2)
        k = rng.normal(size=(4, 4))
        k = 0.25 * (k + k.T)
        s = scipy.linalg.expm(symplectic_form(2) @ k)
        before = symplectic_eigenvalues(sigma)
        after = symplectic_eigenvalues(s @ sigma @ s.T)
        assert np.abs(before - after).max() <= 1e-9 * max(1.0, before.max())

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_physical_family_respects_quantum_bound(self, seed):
        rng = np.random.default_rng(seed)
        sigma = random_physical_cm(rng, 3)
        assert symplectic_eigenvalues(sigma).min() >= 1.0 - 1e-9


class TestLogNegativity:
    def test_separable_inputs_give_zero(self):
        assert log_negativity_gaussian(np.eye(4)) == 0.0
        assert log_negativity_gaussian(two_mode_squeezed_thermal_cm(1.0, 1.0)) == 0.0

    def test_reference_squeezed_vacuum_value(self):
        value = log_negativity_gaussian(two_mode_squeezed_thermal_cm(1.0, math.sqrt(2.0)))
        assert abs(value - (-math.log2(3.0 - 2.0 * math.sqrt(2.0)))) <= 1e-12
        assert abs(value - E_SQUEEZED_VACUUM_N1) <= 1e-12
        assert round(value, 4) == 2.5431

    @pytest.mark.parametrize("nbar", [0.0, 0.5, 1.0, 5.0])
    def test_partial_transpose_spectrum_closed_form(self, nbar):
        # smallest PT symplectic eigenvalue of the squeezed thermal family
        # equals 2*nbar + 1 - 2*mbar
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        for fraction in (0.0, 0.3, 0.7, 1.0):
            mbar = fraction * squeezing_bound(nbar)
            sigma = two_mode_squeezed_thermal_cm(nbar, mbar)
            nu_min = symplectic_eigenvalues(flip @ sigma @ flip)[0]
            assert abs(nu_min - (2.0 * nbar + 1.0 - 2.0 * mbar)) <= 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.0, 2.0 * math.pi),
        mode=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_local_rotations(self, seed, theta, mode):
        rng = np.random.default_rng(seed)
        nbar = rng.uniform(0.0, 2.0)
        mbar = rng.uniform(0.0, 1.0) * squeezing_bound(nbar)
        sigma = two_mode_squeezed_thermal_cm(nbar, mbar)
        rot = np.eye(4)
        block = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        rot[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
        before = log_negativity_gaussian(sigma)
        after = log_negativity_gaussian(rot @ sigma @ rot.T)
        assert abs(before - after) <= 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(ConfigInvalid):
            log_negativity_gaussian(np.eye(6))

    def test_vectorized_rule_matches_the_two_mode_route(self):
        nus = np.array([1.0 - 1e-13, 1.0, 1.7, 0.2, 1.0 - 1e-9])
        assert np.array_equal(logneg_from_nu(nus)[:3], np.zeros(3))
        assert logneg_from_nu(nus)[3] == -math.log2(0.2)
        assert logneg_from_nu(nus)[4] > 0.0
        sigma = two_mode_squeezed_thermal_cm(1.0, math.sqrt(2.0))
        flip = np.diag([1.0, 1.0, 1.0, -1.0])
        nu = symplectic_eigenvalues(flip @ sigma @ flip)[0]
        assert log_negativity_gaussian(sigma) == float(logneg_from_nu(nu))

    @pytest.mark.parametrize("nu", [0.0, -1e-9, math.nan, math.inf])
    def test_refuses_an_eigenvalue_with_no_digits(self, nu):
        # a cancelled nu would give an infinite or NaN negativity
        with pytest.raises(NonPhysicalResult):
            logneg_from_nu(nu)
        with pytest.raises(NonPhysicalResult):
            logneg_from_nu(np.array([1.5, 0.3, nu]))


class TestCheckDrive:
    def test_the_bound_keeps_the_bits_of_the_root_of_the_product(self):
        # from 2**54 up the bound is nbar itself; below, the formula as written
        rng = np.random.default_rng(0)
        large = np.exp(rng.uniform(math.log(2.0**54), math.log(1.3407807929942596e154), 2000))
        small = np.exp(rng.uniform(math.log(1e-300), math.log(2.0**54), 2000))
        for nbar in [0.0, 0.5, 1e8, 2.0**53, 2.0**53 + 2.0, *large.tolist(), *small.tolist()]:
            assert squeezing_bound(nbar) == math.sqrt(nbar * (nbar + 1.0))

    @pytest.mark.parametrize("nbar", [1e155, 1e160, 1e300, 8e307])
    def test_the_bound_is_finite_where_the_product_overflows(self, nbar):
        assert squeezing_bound(nbar) == nbar

    @pytest.mark.parametrize("nbar", [1.0, 1e150, 1e160, 1e300])
    def test_an_over_squeezed_drive_is_refused_at_any_occupation(self, nbar):
        with pytest.raises(OverSqueezed):
            check_drive(nbar, 10.0 * nbar)
        assert check_drive(nbar, nbar) == (nbar, nbar)

    def test_an_overflowing_drive_scale_is_refused(self):
        with pytest.raises(ConfigInvalid, match=r"2 nbar \+ 1 must be finite, got inf"):
            check_drive(1e308, 0.0)
        assert check_drive(8e307, 0.0) == (8e307, 0.0)


def chain_ladder(bonds, damping, drive: float) -> np.ndarray:
    """Open-chain ladder drift ``-i (hopping) - diag(damping + drive e0)``."""
    drift = -1j * (np.diag(bonds, 1) + np.diag(bonds, -1)) - np.diag(damping)
    drift[0, 0] -= drive
    return drift


def random_hurwitz_ladder(rng: np.random.Generator, n: int) -> np.ndarray:
    """Open chain with random bonds, random site damping and a random drive on site 0."""
    bonds = rng.normal(size=n - 1)
    return chain_ladder(bonds, rng.uniform(0.2, 1.0, size=n), rng.uniform(0.5, 2.0))


def ungauged(gauged: np.ndarray, conjugate: bool) -> np.ndarray:
    """The moments of a gauged solve: ``P Y P^*`` (normal, ``conjugate``) or ``P^* Y P^*`` (cross)."""
    phases = chain_phases(gauged.shape[-1])
    return (phases if conjugate else phases.conj())[:, None] * gauged * phases.conj()


class TestRankOneSylvester:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_matches_dense_sylvester_solve(self, seed, conjugate):
        # the gauged solve gives conj(L_1) N + N L_2^T (conjugate) and
        # L_1 M + M L_2^T alike, on the one real form of each drift
        rng = np.random.default_rng(seed)
        one = random_hurwitz_ladder(rng, 5)
        two = random_hurwitz_ladder(rng, 5)
        source = rng.uniform(-2.0, 2.0)
        forms = schur_form(gauge(np.array([one, two])))
        got = solve_rank_one_sylvester(forms[:1], forms[1:], source)
        rhs = np.zeros((5, 5), complex)
        rhs[0, 0] = source
        want = scipy.linalg.solve_sylvester(one.conj() if conjugate else one, two.T, rhs)
        assert np.isrealobj(got)
        assert np.abs(ungauged(got[0], conjugate) - want).max() <= 1e-12

    def test_schur_form_refuses_a_marginal_drift(self):
        with pytest.raises(NotHurwitz):
            schur_form(np.array([[[-1.0, 0.0], [0.0, 1e-14]]]))

    def test_refuses_an_inaccurate_solve(self):
        form = schur_form(gauge(random_hurwitz_ladder(np.random.default_rng(1), 4)[None]))
        wrong = SchurForm(1.01 * form.gauged, form.t, form.z)
        with pytest.raises(NoConvergence):
            solve_rank_one_sylvester(wrong, form, 1.0)


def random_ladder_stack(seed: int, slices: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([random_hurwitz_ladder(rng, n) for _ in range(slices)])


def assert_solves_like_dense_solves(stack: np.ndarray, columns: int, shifts) -> None:
    """``SchurForm.solve`` against one dense solve per shift and slice, to 1e-12 relative."""
    rng = np.random.default_rng(columns)
    slices, n, _ = stack.shape
    rhs = rng.normal(size=(slices, n, columns)) + 1j * rng.normal(size=(slices, n, columns))
    got = schur_form(gauge(stack)).solve(rhs, shifts)
    assert got.shape == (len(shifts), slices, n, columns)
    for w, shift in enumerate(shifts):
        for k in range(slices):
            want = np.linalg.solve(stack[k] + shift * np.eye(n), rhs[k])
            assert np.abs(got[w, k] - want).max() <= 1e-12 * np.abs(want).max()


class TestShiftedSolve:
    """``SchurForm.solve`` gives ``(drift + s)^-1 rhs`` on the forms alone."""

    @pytest.mark.parametrize("slices", [1, 2])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_matches_dense_solves(self, slices, columns):
        stack = random_ladder_stack(5 + slices, slices, 6)
        assert_solves_like_dense_solves(stack, columns, [0.0, 0.8j, -0.8j, 2.5j])

    def test_a_defective_drift(self):
        # the exceptional point -1.5 (twice) of a damped two-site array
        block = np.array([[-2.5, -1j], [-1j, -0.5]])
        assert abs(np.linalg.det(block + 1.5 * np.eye(2))) <= 1e-15
        assert_solves_like_dense_solves(block[None], 2, [0.0, 1.5j, -0.3j])

    def test_a_shift_is_solved_alike_on_any_grid(self):
        form = schur_form(gauge(random_ladder_stack(9, 2, 5)))
        rhs = np.ones((2, 5, 1))
        grid = 1j * np.linspace(-2.0, 2.0, 7)
        whole = form.solve(rhs, grid)
        assert np.array_equal(form.solve(rhs, grid[::-1]), whole[::-1])
        assert np.array_equal(form.solve(rhs, grid[3:4])[0], whole[3])


def block_structure_stack(kind: str) -> np.ndarray:
    """Open chains whose real Schur forms have the named diagonal block structure.

    In the real gauge a complex eigenvalue pair is a 2 x 2 block and a real
    eigenvalue a 1 x 1 block.
    """
    rng = np.random.default_rng(11)
    bonds = rng.uniform(0.5, 1.5, size=(3, 4))
    if kind == "lossless":
        # damping only from the drive, far below the bonds: complex pairs only
        return np.array([chain_ladder(b, np.zeros(4), 0.3) for b in bonds[:, :3]])
    if kind == "overdamped":
        # bonds far below the spread of the damping: real eigenvalues only
        return np.array([chain_ladder(0.01 * b, np.linspace(0.2, 1.8, 5), 0.1) for b in bonds])
    if kind == "mixed":
        # three strongly bonded, weakly damped sites, then two strongly damped ones
        damping = [0.1, 0.1, 0.2, 2.0, 4.0]
        return np.array([chain_ladder(0.02 * b * [50, 50, 1, 1], damping, 0.2) for b in bonds])
    if kind == "one-site":
        return -rng.uniform(0.1, 2.0, size=(4, 1, 1)).astype(complex)
    if kind == "two-site":
        return np.array([chain_ladder([b], [0.1, 0.4], 0.5) for b in (0.05, 0.5, 3.0)])
    # the exceptional point -1.5 (twice) of a damped two-site array
    return np.array([[[-2.5, -1j], [-1j, -0.5]]])


class TestStackedCore:
    """Stacks ``(S, N, N)`` give, slice by slice, what stacks of one give."""

    @pytest.mark.parametrize("slices", [1, 4])
    def test_stacked_solve_equals_the_per_slice_solves(self, slices):
        one, two = random_ladder_stack(0, slices, 5), random_ladder_stack(1, slices, 5)
        forms_one, forms_two = schur_form(gauge(one)), schur_form(gauge(two))
        assert forms_one.t.shape == forms_one.z.shape == (slices, 5, 5)
        got = solve_rank_one_sylvester(forms_one, forms_two, 0.7)
        for k in range(slices):
            single_one = schur_form(gauge(one[k : k + 1]))
            single_two = schur_form(gauge(two[k : k + 1]))
            assert np.array_equal(forms_one.t[k], single_one.t[0])
            assert np.array_equal(forms_one.z[k], single_one.z[0])
            want = solve_rank_one_sylvester(single_one, single_two, 0.7)
            assert np.array_equal(got[k], want[0])

    def test_stacked_margin_equals_the_per_slice_margins(self):
        n = np.diag([0.5, 2.0])
        m = np.array([[0.3, 0.1], [0.0, 0.4]])
        scales = np.array([0.0, 0.5, 1.0])
        margins = uncertainty_margin(
            np.array([n] * 3), np.array([n] * 3), scales[:, None, None] * m
        )
        assert margins.shape == (3,)
        for k, scale in enumerate(scales):
            assert margins[k] == uncertainty_margin(n[None], n[None], scale * m[None])[0]

    @pytest.mark.parametrize(
        "kind", ["lossless", "overdamped", "mixed", "one-site", "two-site", "exceptional"]
    )
    def test_every_block_structure_is_an_exact_schur_form(self, kind):
        stack = block_structure_stack(kind)
        form = schur_form(gauge(stack))
        scale = np.abs(stack).max()
        n = stack.shape[-1]
        assert np.array_equal(form.gauged, gauge(stack))
        rebuilt = form.z @ form.t @ form.z.swapaxes(-1, -2)
        assert np.abs(rebuilt - form.gauged).max() <= 1e-13 * scale
        assert np.abs(form.z.swapaxes(-1, -2) @ form.z - np.eye(n)).max() <= 1e-13
        # quasi triangular: no two 2 x 2 blocks overlap
        below = form.t.diagonal(offset=-1, axis1=-2, axis2=-1) != 0.0
        assert not np.tril(form.t, -2).any() and not (below[:, 1:] & below[:, :-1]).any()
        # the complex forms that the shifted solves split off rebuild the drift itself
        t, q = form._triangular
        rebuilt = q @ t @ q.conj().swapaxes(-1, -2)
        assert np.abs(rebuilt - stack).max() <= 1e-13 * scale
        assert np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(n)).max() <= 1e-13
        assert not np.tril(t, -1).any()
        for k in range(len(stack)):
            single = schur_form(gauge(stack[k : k + 1]))
            assert np.array_equal(form.t[k], single.t[0])
            assert np.array_equal(form.z[k], single.z[0])
            assert np.array_equal(t[k], single._triangular[0][0])
            assert np.array_equal(q[k], single._triangular[1][0])

    def test_the_stacks_hold_the_block_structures_they_name(self):
        # 2 x 2 real Schur blocks are complex pairs, 1 x 1 blocks real eigenvalues
        def complex_pairs(kind):
            return np.abs(np.linalg.eigvals(block_structure_stack(kind)).imag) > 1e-9

        assert complex_pairs("lossless").sum(axis=-1).tolist() == [4, 4, 4]
        assert not complex_pairs("overdamped").any()
        assert complex_pairs("mixed").any(axis=-1).all()
        assert not complex_pairs("mixed").all(axis=-1).any()

    @pytest.mark.parametrize(
        "kind", ["lossless", "overdamped", "mixed", "one-site", "two-site", "exceptional"]
    )
    def test_real_schur_blocks_are_in_standard_form(self, kind):
        # the pair split relies on it: every 2 x 2 block [[a, b], [c, d]] has
        # a == d exactly and b c < 0, so no b c is formed that could overflow
        t, _ = entrep.gaussian._real_schur(gauge(block_structure_stack(kind)))
        slices, k = np.nonzero(t.diagonal(offset=-1, axis1=-2, axis2=-1))
        assert np.array_equal(t[slices, k, k], t[slices, k + 1, k + 1])
        assert np.all(t[slices, k, k + 1] * t[slices, k + 1, k] < 0.0)

    def test_refuses_a_complex_stack(self):
        # the drifts come gauged and real; complex entries, even with no
        # imaginary part, are not a gauged drift
        stack = gauge(random_ladder_stack(0, 3, 4))
        with pytest.raises(ConfigInvalid, match="got a complex stack"):
            schur_form(stack.astype(complex))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_drift(self, value):
        stack = gauge(random_ladder_stack(1, 3, 4))
        stack[2, 1, 2] = value
        with pytest.raises(ConfigInvalid, match=r"has a non-finite entry: count \(slice 2\) = 1"):
            schur_form(stack)

    def test_a_failed_real_factorization_is_named(self, monkeypatch):
        calls = []

        def failing(select, matrix):
            *factors, info = dgees(select, matrix)
            calls.append(matrix.shape)
            return (*factors, 2 if len(calls) == 2 else info)

        monkeypatch.setattr(entrep.gaussian, "dgees", failing)
        with pytest.raises(NoConvergence, match=r"failed: \|dgees info\| \(slice 1\) = 2,"):
            schur_form(gauge(random_ladder_stack(2, 3, 4)))
        # every slice is factored, then the first failure is named
        assert len(calls) == 3

    def test_marginal_slice_is_named(self):
        stack = gauge(random_ladder_stack(2, 4, 3))
        stack[2] = np.diag([-1.0, 1e-14, -0.5])  # one undamped mode
        with pytest.raises(NotHurwitz, match=r"\(slice 2\)"):
            schur_form(stack)

    def test_a_margin_of_exactly_the_tolerance_is_refused(self):
        # the Hurwitz bound is strict: max Re eigenvalue == -1e-12 has no steady state
        drift = np.diag([-1e-12, -1.0])
        with pytest.raises(NotHurwitz, match=r"entries up to 1: .* = -1e-12, not < -1e-12$"):
            schur_form(drift[None])
        with pytest.raises(NotHurwitz, match=r"= -1e-12, not < -1e-12$"):
            solve_lyapunov(np.kron(drift, np.eye(2)), np.eye(4))
        schur_form(np.diag([np.nextafter(-1e-12, -1.0), -1.0])[None])

    def test_inaccurate_slice_is_named(self):
        form = schur_form(gauge(random_ladder_stack(3, 3, 4)))
        drift = form.gauged.copy()
        drift[1] *= 1.01
        with pytest.raises(NoConvergence, match=r"Sylvester residual \(slice 1\)"):
            solve_rank_one_sylvester(SchurForm(drift, form.t, form.z), form, 1.0)

    def test_singular_triangular_slice_is_named(self):
        # t_a + t_b = 0 on slice 1: dtrsyl reports a perturbed solve
        t_a = np.array([[[-1.0]], [[-1.0]]])
        t_b = np.array([[[-1.0]], [[1.0]]])
        z = np.ones((2, 1, 1))
        with pytest.raises(NoConvergence, match=r"solve failed: \|dtrsyl info\| \(slice 1\) = 1,"):
            solve_rank_one_sylvester(SchurForm(t_a, t_a, z), SchurForm(t_b, t_b, z), 1.0)

    def test_a_non_finite_residual_is_refused(self):
        # an overflowing source makes the residual NaN, which no bound admits
        form = schur_form(gauge(random_ladder_stack(4, 2, 3)))
        with pytest.raises(NoConvergence, match="residual"):
            solve_rank_one_sylvester(form, form, -math.inf)

    def test_oversqueezed_slice_is_named(self):
        n = np.ones((3, 1, 1))
        m = np.array([[[1.0]], [[math.sqrt(2.0)]], [[1.5]]])
        with pytest.raises(NonPhysicalResult, match=r"violated \(slice 2\)"):
            uncertainty_margin(n, n, m)


def long_structure_stack(kind: str, n: int) -> np.ndarray:
    """Two chains of ``n`` sites with the block structure of :func:`block_structure_stack`'s ``kind``.

    Each chain has one uniform bond (0.8, then 1.2), so that no mode of a
    long lossless chain is localized away from its drive.
    """
    bonds = np.outer([0.8, 1.2], np.ones(n - 1))
    if kind == "lossless":
        return np.array([chain_ladder(b, np.zeros(n), 1.0) for b in bonds])
    if kind == "overdamped":
        return np.array([chain_ladder(0.01 * b, 0.2 + 0.05 * np.arange(n), 0.1) for b in bonds])
    # a strongly bonded, weakly damped half, then a weakly bonded, strongly damped one
    half = n // 2
    damping = np.r_[np.full(half, 0.1), 2.0 + 0.05 * np.arange(n - half)]
    strength = np.r_[np.ones(half), np.full(n - 1 - half, 0.01)]
    return np.array([chain_ladder(strength * b, damping, 0.2) for b in bonds])


SIDES = [1, 2, 64, 65, 130, 257]


class TestRecursiveSylvester:
    """The recursive blocked solve on quasi-triangular factors of every side and block structure."""

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("kind", ["lossless", "overdamped", "mixed"])
    def test_matches_dense_solves_of_the_ungauged_drifts(self, kind, n):
        stack = long_structure_stack(kind, n)
        form = schur_form(gauge(stack))
        rhs = np.zeros((n, n), complex)
        rhs[0, 0] = 0.7
        # the moments lose digits like the inverse of the slowest decay rate
        tol = 1e-13 * max(1.0, 1.0 / -form.t.diagonal(axis1=-2, axis2=-1).max())
        cross = ungauged(solve_rank_one_sylvester(form[:1], form[1:], 0.7)[0], False)
        want = scipy.linalg.solve_sylvester(stack[0], stack[1].T, rhs)
        assert np.abs(cross - want).max() <= tol * np.abs(want).max()
        normal = ungauged(solve_rank_one_sylvester(form[1:], form[1:], 0.7)[0], True)
        want = scipy.linalg.solve_sylvester(stack[1].conj(), stack[1].T, rhs)
        assert np.abs(normal - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("n", SIDES)
    @pytest.mark.parametrize("kind", ["lossless", "overdamped", "mixed"])
    def test_matches_one_flat_dtrsyl_call(self, kind, n):
        t_a, t_b = schur_form(gauge(long_structure_stack(kind, n))).t
        c = np.random.default_rng(n).normal(size=(n, n))
        got, scale, info = entrep.gaussian._quasi_triangular_sylvester(t_a, t_b, c)
        want, want_scale, want_info = dtrsyl(t_a, t_b, c, trana="N", tranb="T")
        assert (scale, info) == (want_scale, want_info) == (1.0, 0)
        if n <= 64:
            # a side of at most 64 is one leaf: the flat call itself
            assert np.array_equal(got, want)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["lossless", "mixed"])
    def test_a_cut_inside_a_two_by_two_block_moves_past_it(self, kind):
        # the middle of 257 splits a complex pair's block of the first chain
        t = schur_form(gauge(long_structure_stack(kind, 257))).t[0]
        assert t[128, 127] != 0.0
        assert entrep.gaussian._cut(t) == 129
        assert entrep.gaussian._cut(t[:128, :128]) == 64 + (t[64, 63] != 0.0)

    def test_every_leaf_is_at_most_64_wide(self, monkeypatch):
        leaves = []

        def recording(t_a, t_b, c, **kwargs):
            leaves.append(c.shape)
            return dtrsyl(t_a, t_b, c, **kwargs)

        monkeypatch.setattr(entrep.gaussian, "dtrsyl", recording)
        form = schur_form(gauge(long_structure_stack("mixed", 130)))
        solve_rank_one_sylvester(form[:1], form[1:], 1.0)
        assert max(max(shape) for shape in leaves) <= 64
        assert sum(rows * cols for rows, cols in leaves) == 130 * 130

    def test_a_scaled_leaf_gives_the_unscaled_solution(self, monkeypatch):
        # a leaf that scales its right-hand side by 1/2 against overflow:
        # every later leaf and the other half follow, and the scale divides out
        form = schur_form(gauge(long_structure_stack("lossless", 130)))
        want = solve_rank_one_sylvester(form[:1], form[1:], 1.0)
        calls = []

        def scaling(t_a, t_b, c, **kwargs):
            y, scale, info = dtrsyl(t_a, t_b, c, **kwargs)
            calls.append(c.shape)
            return (0.5 * y, 0.5 * scale, info) if len(calls) == 2 else (y, scale, info)

        monkeypatch.setattr(entrep.gaussian, "dtrsyl", scaling)
        got = solve_rank_one_sylvester(form[:1], form[1:], 1.0)
        assert len(calls) > 2
        assert np.array_equal(got, want)

    def test_a_failed_leaf_names_its_slice(self, monkeypatch):
        form = schur_form(gauge(random_ladder_stack(5, 3, 70)))
        leaves = []

        def failing(t_a, t_b, c, **kwargs):
            y, scale, info = dtrsyl(t_a, t_b, c, **kwargs)
            # a leaf's factor is a view of its slice's t
            leaves.append(np.shares_memory(t_a, form.t[1]))
            return y, scale, 1 if leaves[-1] else info

        monkeypatch.setattr(entrep.gaussian, "dtrsyl", failing)
        with pytest.raises(NoConvergence, match=r"\|dtrsyl info\| \(slice 1\) = 1,"):
            solve_rank_one_sylvester(form, form, 1.0)
        # every slice is solved, in leaves, then the first failure is named
        assert len(leaves) > 3 and leaves.count(True) == len(leaves) // 3


class TestUncertaintyMargin:
    """Stacks of one two-group state."""

    def test_two_mode_squeezed_vacuum_sits_on_the_boundary(self):
        n = np.array([[[1.0]]])
        m = np.array([[[-math.sqrt(2.0)]]])
        assert abs(uncertainty_margin(n, n, m)[0]) <= 1e-12

    def test_thermal_state_keeps_half_its_gap(self):
        n = np.diag([0.5, 2.0])[None]
        assert uncertainty_margin(n, n, np.zeros((1, 2, 2)))[0] == pytest.approx(0.5)

    def test_refuses_oversqueezed_moments(self):
        n = np.array([[[1.0]]])
        with pytest.raises(NonPhysicalResult):
            uncertainty_margin(n, n, np.array([[[1.5]]]))


class TestNormalizedLogneg:
    def test_endpoints(self):
        assert normalized_logneg(0.0) == 0.0
        value = normalized_logneg(E_SQUEEZED_VACUUM_N1)
        assert abs(value - E_SQUEEZED_VACUUM_N1_NORM) <= 1e-12
        assert round(value, 4) == 0.7178

    def test_rejects_negative(self):
        # NaN passes a "value < 0" test, so it is named here too
        for value in (-0.1, -1e-3, math.nan):
            with pytest.raises(ConfigInvalid):
                normalized_logneg(value)
            with pytest.raises(ConfigInvalid):
                normalized_logneg(np.array([[0.5, value], [0.0, 1.0]]))

    def test_elementwise_map_is_the_closed_form_bit_for_bit(self):
        raw = np.random.default_rng(7).exponential(size=(3, 5))
        raw[0, 0] = 0.0
        got = normalized_logneg(raw)
        assert got.shape == raw.shape and np.array_equal(got, raw / (1.0 + raw))
        assert type(normalized_logneg(raw[1, 1])) is float

    @given(
        small=st.floats(0.0, 50.0),
        gap=st.floats(1e-6, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_monotone(self, small, gap):
        assert normalized_logneg(small) < normalized_logneg(small + gap) < 1.0


class TestReduceToPair:
    def test_identity_blocks(self):
        assert np.array_equal(reduce_to_pair(np.eye(8), 0, 2), np.eye(4))

    def test_block_diagonal_extraction(self):
        pair = two_mode_squeezed_thermal_cm(0.7, 0.9)
        full = np.eye(8)
        idx = [0, 1, 4, 5]  # modes 0 and 2
        full[np.ix_(idx, idx)] = pair
        assert np.allclose(reduce_to_pair(full, 0, 2), pair)

    def test_permutation_oracle(self):
        rng = np.random.default_rng(11)
        sigma = random_physical_cm(rng, 4)
        j, k = 1, 3
        perm = np.zeros((8, 8))
        order = [j, k] + [m for m in range(4) if m not in (j, k)]
        for new, old in enumerate(order):
            perm[2 * new, 2 * old] = 1.0
            perm[2 * new + 1, 2 * old + 1] = 1.0
        permuted = perm @ sigma @ perm.T
        direct = reduce_to_pair(sigma, j, k)
        via_perm = reduce_to_pair(permuted, 0, 1)
        assert np.abs(direct - via_perm).max() <= 1e-12

    @pytest.mark.parametrize("pair", [(0, 0), (0, 4), (-1, 1)])
    def test_rejects_bad_indices(self, pair):
        with pytest.raises(IndexOutOfRange):
            reduce_to_pair(np.eye(8), *pair)


class TestTwoModeSqueezedThermal:
    def test_vacuum_case(self):
        assert np.array_equal(two_mode_squeezed_thermal_cm(0.0, 0.0), np.eye(4))

    def test_block_structure(self):
        sigma = two_mode_squeezed_thermal_cm(1.0, math.sqrt(2.0))
        assert np.allclose(sigma[:2, :2], 3.0 * np.eye(2))
        assert np.allclose(sigma[2:, 2:], 3.0 * np.eye(2))
        assert np.allclose(sigma[:2, 2:], np.diag([2.0 * math.sqrt(2.0), -2.0 * math.sqrt(2.0)]))

    def test_rejects_oversqueezed(self):
        with pytest.raises(OverSqueezed):
            two_mode_squeezed_thermal_cm(1.0, 1.5)

    def test_rejects_negative_occupations(self):
        with pytest.raises(ConfigInvalid):
            two_mode_squeezed_thermal_cm(-0.1, 0.0)


class TestQuadratureEmbedding:
    def test_spectrum_is_union_of_conjugate_spectra(self):
        rng = np.random.default_rng(3)
        ladder = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        embedded = quadrature_embedding(ladder)

        def by_parts(values):
            return np.array(
                sorted(values, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            )

        expected = by_parts(
            np.concatenate([np.linalg.eigvals(ladder), np.linalg.eigvals(ladder.conj())])
        )
        actual = by_parts(np.linalg.eigvals(embedded))
        assert np.abs(expected - actual).max() <= 1e-9

