"""Tests for the spin-array models and their mutual cross-checks.

The three routes to the spin physics (exact two-chain master equation,
general second-order reduction, closed-form reduction) are pinned against
each other and against analytical fixed points: the replicated pair
state under a purely-squeezed drive, the product thermal state under an
uncorrelated drive, and the Fock-truncated cavity+spin oracle.
"""

import numpy as np
import pytest

from entrep.arrays import ArrayConfig, drift_matrices, steady_state
from entrep.baselines import pair_amplitude, pure_pair_logneg, replicated_state
from entrep.errors import (
    ConfigInvalid,
    DimensionBudgetExceeded,
    TruncationUnconverged,
)
from entrep.liouville import (
    fidelity_pure,
    logneg_qubits,
    reduced_pair_dm,
    steady_state_dm,
)
from entrep.output import ladder_correlations_from_cm
from entrep.spins import (
    TruncationSpec,
    _array_charge,
    _fock_liouvillian,
    _squeezed_frame,
    adiabaticity_ratio,
    build_effective_closed_form,
    build_effective_general,
    build_xx_liouvillian,
    closed_form_rates,
    coupling_pattern_matrices,
    default_fock_levels,
    full_cavity_atom_oracle,
)


def pure_drive(nbar: float) -> float:
    """Cross-correlation of a purely two-mode-squeezed reservoir."""
    return np.sqrt(nbar * (nbar + 1.0))


def random_hermitian(rng, dim):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return mat + mat.conj().T


def check_generator_structure(liouvillian, seed=0):
    rng = np.random.default_rng(seed)
    tol = 1e-12 * max(1.0, liouvillian.scale)
    assert liouvillian.trace_defect() <= tol
    for _ in range(5):
        image = liouvillian.apply(random_hermitian(rng, liouvillian.dim))
        assert abs(np.trace(image)) <= 10 * tol * liouvillian.dim
        assert np.abs(image - image.conj().T).max() <= 10 * tol * liouvillian.dim


def test_array_charge_counts_excitations_per_array():
    # a three-level mode in array one, a qubit in array two; site 0 leftmost
    assert np.array_equal(_array_charge((3, 2), [0]), [0, -1, 1, 0, 2, 1])
    assert np.array_equal(_array_charge((2, 2), range(2)), [0, 1, 1, 2])


class TestXXChains:
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("nbar", [0.5, 1.0])
    def test_pure_drive_pins_replicated_state(self, n_pairs, nbar):
        liou = build_xx_liouvillian(n_pairs, 1.0, 0.4, nbar, pure_drive(nbar))
        rho = steady_state_dm(liou)
        target = replicated_state(nbar, n_pairs)
        assert fidelity_pure(rho, target) >= 1.0 - 1e-7

    def test_replication_is_independent_of_the_couplings(self):
        nbar = 0.8
        liou = build_xx_liouvillian(3, [1.3, 0.45], 0.7, nbar, pure_drive(nbar))
        rho = steady_state_dm(liou)
        assert fidelity_pure(rho, replicated_state(nbar, 3)) >= 1.0 - 1e-7

    def test_every_pair_carries_the_pure_pair_entanglement(self):
        nbar = 1.0
        rho = steady_state_dm(build_xx_liouvillian(2, 1.0, 0.5, nbar, pure_drive(nbar)))
        expected = pure_pair_logneg(pair_amplitude(nbar))
        for pair in ((0, 2), (1, 3)):
            value = logneg_qubits(reduced_pair_dm(rho, *pair, 4))
            assert value == pytest.approx(expected, abs=1e-8)

    def test_thermal_drive_gives_product_thermal_state(self):
        nbar = 0.7
        rho = steady_state_dm(build_xx_liouvillian(2, 1.0, 0.5, nbar, 0.0))
        single = np.diag([nbar + 1.0, nbar]) / (2.0 * nbar + 1.0)
        expected = single
        for _ in range(3):
            expected = np.kron(expected, single)
        assert np.abs(rho - expected).max() <= 1e-9

    def test_classically_correlated_drive_leaves_pairs_separable(self):
        nbar = 0.8
        rho = steady_state_dm(build_xx_liouvillian(2, 1.0, 0.5, nbar, nbar))
        for pair in ((0, 2), (1, 3)):
            assert logneg_qubits(reduced_pair_dm(rho, *pair, 4)) == 0.0

    def test_entanglement_onset_sits_close_to_the_pure_drive_point(self):
        # the spin pairs entangle only near maximal reservoir squeezing:
        # well above the drive's own entanglement threshold (mbar > nbar)
        # the pairs can still be separable
        nbar = 1.0
        values = []
        for fraction in (0.9, 0.98, 1.0):
            rho = steady_state_dm(
                build_xx_liouvillian(2, 1.0, 0.5, nbar, fraction * pure_drive(nbar))
            )
            values.append(logneg_qubits(reduced_pair_dm(rho, 0, 2, 4)))
        assert 0.9 * pure_drive(nbar) > nbar  # the drive itself is entangled
        assert values[0] == 0.0
        assert 0.0 < values[1] < values[2]

    def test_generator_preserves_trace_and_hermiticity(self):
        check_generator_structure(
            build_xx_liouvillian(2, 0.9, 0.6, 0.8, 0.7), seed=1
        )

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            build_xx_liouvillian(0, 1.0, 0.5, 1.0, 0.0)
        with pytest.raises(ConfigInvalid):
            build_xx_liouvillian(3, [1.0, 2.0, 3.0], 0.5, 1.0, 0.0)
        with pytest.raises(ConfigInvalid):
            build_xx_liouvillian(2, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigInvalid):
            build_xx_liouvillian(2, 1.0, 0.5, -0.1, 0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigInvalid):
                build_xx_liouvillian(2, 1.0, bad, 1.0, 0.0)
            with pytest.raises(ConfigInvalid):
                build_xx_liouvillian(2, 1.0, 0.5, bad, 0.0)
            with pytest.raises(ConfigInvalid):
                build_xx_liouvillian(2, bad, 0.5, 1.0, 0.0)
        with pytest.raises(DimensionBudgetExceeded):
            build_xx_liouvillian(6, 1.0, 0.5, 1.0, 0.0)


def reduced_config(n_sites, *, nbar, mbar, g=0.02, eta=1.0, zeta=1.0, kappa=0.0):
    return ArrayConfig.homogeneous(
        n_sites, eta=eta, kappa=kappa, zeta=zeta, nbar=nbar, mbar=mbar, g=g
    )


class TestEffectiveReduction:
    def test_single_pair_matches_replicated_state(self):
        cfg = reduced_config(1, nbar=1.0, mbar=pure_drive(1.0))
        rho = steady_state_dm(build_effective_general(cfg).liouvillian)
        assert fidelity_pure(rho, replicated_state(1.0, 1)) >= 1.0 - 1e-9

    def test_three_pair_chain_replicates(self):
        nbar = 1.0
        cfg = reduced_config(3, nbar=nbar, mbar=pure_drive(nbar), g=0.01)
        rho = steady_state_dm(build_effective_general(cfg).liouvillian)
        assert fidelity_pure(rho, replicated_state(nbar, 3)) >= 1.0 - 1e-6
        expected = pure_pair_logneg(pair_amplitude(nbar))
        for pair in ((0, 3), (1, 4), (2, 5)):
            value = logneg_qubits(reduced_pair_dm(rho, *pair, 6))
            assert value == pytest.approx(expected, abs=1e-6)

    def test_three_pair_solve_is_bitwise_repeatable(self):
        cfg = reduced_config(3, nbar=1.0, mbar=1.2, g=0.01)
        liou = build_effective_general(cfg).liouvillian
        assert np.array_equal(steady_state_dm(liou), steady_state_dm(liou))

    def test_kernel_scales_with_coupling_squared(self):
        cfg = reduced_config(2, nbar=0.6, mbar=0.7, g=0.01)
        cfg_double = reduced_config(2, nbar=0.6, mbar=0.7, g=0.02)
        small = build_effective_general(cfg)
        large = build_effective_general(cfg_double)
        assert np.allclose(large.kernel, 4.0 * small.kernel, rtol=1e-12, atol=0.0)
        assert np.allclose(
            large.kernel_reversed, 4.0 * small.kernel_reversed, rtol=1e-12, atol=0.0
        )

    def test_generator_preserves_trace_and_hermiticity(self):
        model = build_effective_general(reduced_config(2, nbar=0.8, mbar=1.0))
        check_generator_structure(model.liouvillian, seed=2)

    def test_adiabaticity_ratio_value(self):
        cfg = reduced_config(1, nbar=1.0, mbar=0.5, g=0.05, zeta=0.7, kappa=0.3)
        assert adiabaticity_ratio(cfg) == pytest.approx(
            0.05 * np.sqrt(2.0) / 1.0, rel=1e-12
        )
        assert adiabaticity_ratio(reduced_config(1, nbar=1.0, mbar=0.5, g=0.0)) == 0.0

    def test_slow_field_triggers_warning(self):
        cfg = reduced_config(1, nbar=1.0, mbar=0.5, g=0.5)
        with pytest.warns(UserWarning, match="timescale-separation"):
            build_effective_general(cfg)

    def test_coupling_validation(self):
        base = reduced_config(2, nbar=0.5, mbar=0.5)
        from dataclasses import replace

        with pytest.raises(ConfigInvalid):
            build_effective_general(replace(base, g=(0.1, 0.2)))
        with pytest.raises(ConfigInvalid):
            build_effective_general(replace(base, g=(0.0, 0.0)))
        with pytest.raises(DimensionBudgetExceeded):
            build_effective_general(reduced_config(6, nbar=0.5, mbar=0.5))


class TestClosedForm:
    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("nbar,mbar", [(0.5, 0.5), (1.0, 1.2), (1.0, np.sqrt(2.0))])
    def test_matches_general_construction(self, n_pairs, nbar, mbar):
        eta, zeta, g = 0.8, 1.3, 0.03
        cfg = reduced_config(n_pairs, nbar=nbar, mbar=mbar, g=g, eta=eta, zeta=zeta)
        general = build_effective_general(cfg).liouvillian
        closed = build_effective_closed_form(
            n_pairs, eta=eta, zeta=zeta, g=g, nbar=nbar, mbar=mbar
        ).liouvillian
        difference = general.matrix - closed.matrix
        gap = np.abs(difference.data).max() if difference.nnz else 0.0
        assert gap <= 1e-12 * max(1.0, general.scale)

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4, 5])
    def test_pattern_identity_reproduces_field_drift_inverse(self, n_sites):
        eta, zeta, g = 0.9, 1.4, 0.07
        cfg = ArrayConfig.homogeneous(n_sites, eta=eta, kappa=0.0, zeta=zeta)
        single_array = drift_matrices(cfg).ladder[:n_sites, :n_sites]
        hopping_rate, damping_rate = closed_form_rates(n_sites, eta, zeta, g)
        pats = coupling_pattern_matrices(n_sites)
        reconstructed = (
            1j * hopping_rate * pats.hopping - damping_rate * pats.damping
        )
        assert np.allclose(
            g**2 * np.linalg.inv(single_array), reconstructed, atol=1e-12
        )

    def test_rates_by_parity(self):
        eta, zeta, g = 0.8, 1.3, 0.05
        assert closed_form_rates(2, eta, zeta, g) == (
            pytest.approx(g**2 / eta),
            pytest.approx(zeta * g**2 / eta**2),
        )
        assert closed_form_rates(3, eta, zeta, g) == (
            pytest.approx(g**2 / eta),
            pytest.approx(g**2 / zeta),
        )
        assert closed_form_rates(1, eta, zeta, g) == (0.0, pytest.approx(g**2 / zeta))

    def test_fixed_point_is_replicated(self):
        nbar = 0.9
        model = build_effective_closed_form(
            2, eta=1.0, zeta=1.2, g=0.02, nbar=nbar, mbar=pure_drive(nbar)
        )
        rho = steady_state_dm(model.liouvillian)
        assert fidelity_pure(rho, replicated_state(nbar, 2)) >= 1.0 - 1e-9

    def test_generator_preserves_trace_and_hermiticity(self):
        model = build_effective_closed_form(
            3, eta=0.7, zeta=1.1, g=0.04, nbar=0.6, mbar=0.8
        )
        check_generator_structure(model.liouvillian, seed=3)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            build_effective_closed_form(2, eta=1.0, zeta=0.0, g=0.1, nbar=1.0, mbar=0.0)
        with pytest.raises(ConfigInvalid):
            build_effective_closed_form(2, eta=0.0, zeta=1.0, g=0.1, nbar=1.0, mbar=0.0)
        with pytest.raises(DimensionBudgetExceeded):
            build_effective_closed_form(6, eta=1.0, zeta=1.0, g=0.1, nbar=1.0, mbar=0.0)


class TestFockOracle:
    def test_field_moments_match_gaussian_route(self):
        # the squeezed joint mode carries occupation ~ nbar + mbar, so the
        # Fock tail decays like ((nbar+mbar)/(nbar+mbar+1))^n: the cutoff
        # must resolve that mode, not just the single-site marginals
        cfg = ArrayConfig.homogeneous(1, kappa=0.1, zeta=1.0, nbar=0.5, mbar=0.6)
        result = full_cavity_atom_oracle(cfg, TruncationSpec(n_max=10))
        exact = ladder_correlations_from_cm(steady_state(cfg)).stacked()
        assert result.check_mode == "full"
        assert result.check_shift <= 1e-3
        assert result.spin_dm is None
        assert np.abs(result.moments - exact).max() <= 5e-4

    def test_truncation_error_shrinks_with_cutoff(self):
        cfg = ArrayConfig.homogeneous(1, kappa=0.1, zeta=1.0, nbar=0.5, mbar=0.6)
        exact = ladder_correlations_from_cm(steady_state(cfg)).stacked()
        errors = []
        for n_max in (3, 6):
            result = full_cavity_atom_oracle(cfg, TruncationSpec(n_max=n_max, check="none"))
            errors.append(np.abs(result.moments - exact).max())
        assert errors[1] < errors[0]

    def test_unconverged_truncation_raises(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        with pytest.raises(TruncationUnconverged):
            full_cavity_atom_oracle(cfg, TruncationSpec(n_max=2, check="full"))

    def test_budget_guard(self):
        cfg = ArrayConfig.homogeneous(2, zeta=1.0, nbar=1.0, mbar=1.0)
        with pytest.raises(DimensionBudgetExceeded):
            full_cavity_atom_oracle(cfg)

    def test_auto_check_falls_back_to_field_recheck(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.1, mbar=0.25, g=0.05)
        result = full_cavity_atom_oracle(
            cfg, TruncationSpec(n_max=4, side_budget=12_000)
        )
        assert result.check_mode == "field"
        assert result.check_shift <= 1e-3
        assert result.dims == (5, 5, 2, 2)
        assert result.spin_dm is not None

    def test_spin_state_matches_effective_reduction(self):
        nbar = 0.3
        cfg = ArrayConfig.homogeneous(
            1, zeta=1.0, nbar=nbar, mbar=pure_drive(nbar), g=0.05
        )
        oracle = full_cavity_atom_oracle(cfg, TruncationSpec(n_max=6, check="none"))
        reduced = steady_state_dm(build_effective_general(cfg).liouvillian)
        gap = 0.5 * np.abs(np.linalg.eigvalsh(oracle.spin_dm - reduced)).sum()
        assert gap <= 1.5e-2
        assert fidelity_pure(oracle.spin_dm, replicated_state(nbar, 1)) >= 0.99

    def test_default_fock_levels(self):
        assert default_fock_levels(0.0) == 8
        assert default_fock_levels(2.0) == 9

    def test_truncation_spec_validation(self):
        with pytest.raises(ConfigInvalid):
            TruncationSpec(check="bogus")
        with pytest.raises(ConfigInvalid):
            TruncationSpec(n_max=0)


class TestSqueezedBasisOracle:
    """The Bogoliubov-frame variant of the Fock truncation.

    In that frame the correlated drive becomes two independent thermal
    reservoirs with occupation (sqrt((2 nbar + 1)^2 - 4 mbar^2) - 1) / 2,
    so near-maximal cross-correlations — which defeat any practical bare
    Fock cutoff — truncate with tiny frame occupation instead.
    """

    def test_reduces_to_bare_generator_without_cross_correlation(self):
        # at mbar = 0 the frame rotation is the identity, so the two
        # generators must agree entry for entry
        cfg = ArrayConfig.homogeneous(1, kappa=0.2, zeta=1.0, nbar=0.7, g=0.04)
        bare, _, _ = _fock_liouvillian(cfg, 4, include_spins=True, basis="bare")
        squeezed, _, _ = _fock_liouvillian(cfg, 4, include_spins=True, basis="squeezed")
        gap = np.abs((bare.matrix - squeezed.matrix).toarray()).max()
        assert gap <= 1e-12 * max(1.0, bare.scale)

    def test_field_moments_match_gaussian_route_when_strongly_squeezed(self):
        # bare truncation at this cutoff is off by ~5e-2 for these
        # drive statistics; the frame change wins two orders of magnitude
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=1.2)
        exact = ladder_correlations_from_cm(steady_state(cfg)).stacked()
        result = full_cavity_atom_oracle(
            cfg, TruncationSpec(n_max=6, check="none", basis="squeezed")
        )
        assert np.abs(result.moments - exact).max() <= 1e-2

    def test_pure_drive_is_exact_at_small_cutoff(self):
        # a purely squeezed drive has zero frame occupation: the frame
        # vacuum is the exact steady state, whatever the cutoff
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        exact = ladder_correlations_from_cm(steady_state(cfg)).stacked()
        result = full_cavity_atom_oracle(
            cfg, TruncationSpec(n_max=4, check="none", basis="squeezed")
        )
        assert np.abs(result.moments - exact).max() <= 1e-10

    def test_spin_state_matches_effective_reduction_at_pure_drive(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0), g=0.01)
        oracle = full_cavity_atom_oracle(
            cfg, TruncationSpec(n_max=6, check="none", basis="squeezed")
        )
        reduced = steady_state_dm(build_effective_general(cfg).liouvillian)
        gap = 0.5 * np.abs(np.linalg.eigvalsh(oracle.spin_dm - reduced)).sum()
        assert gap <= 1e-6

    def test_frame_parameters_recombine_to_the_drive_statistics(self):
        nbar, mbar = 1.3, 1.1
        n_th, c, s = _squeezed_frame(nbar, mbar)
        nu = np.sqrt((2.0 * nbar + 1.0) ** 2 - 4.0 * mbar**2)
        assert c**2 - s**2 == pytest.approx(1.0, abs=1e-12)
        assert c * s * nu == pytest.approx(mbar, abs=1e-12)
        assert c**2 * n_th + s**2 * (n_th + 1.0) == pytest.approx(nbar, abs=1e-12)

    def test_basis_validation(self):
        with pytest.raises(ConfigInvalid):
            TruncationSpec(basis="rotated")
