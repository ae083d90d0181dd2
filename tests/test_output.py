"""Tests for the frequency-resolved output-field port moments.

The runtime port moments are checked three ways.  They are re-derived
from scratch in the time domain: two-time correlations obtained by
matrix-exponential evolution of the steady moments (quantum regression),
Fourier-integrated numerically, and sandwiched between the port gains.
They match the 4N stacked resolvent of ``quadrature_oracle`` on random
configurations.  And three exact anchors pin the overall normalization:
vacuum input gives zero port moments, a thermal cavity gives a
Lorentzian, and its integral is the photon flux, so the resolvent weight
cannot silently drift.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad, quad_vec
from scipy.linalg import block_diag, expm

import entrep.arrays
import entrep.gaussian
import entrep.output
import quadrature_oracle as oracle
from entrep.arrays import ArrayConfig, steady_state
from entrep.errors import ClosedPort, ConfigInvalid, NotHurwitz
from entrep.gaussian import pair_logneg, squeezing_bound
from entrep.output import (
    output_covariance,
    output_pair_spectrum,
    output_quadrature_map,
    peak_frequency,
)
from entrep.spins import build_effective_general


def lossy_config() -> ArrayConfig:
    """Two-site arrays with every port open and inhomogeneous losses."""
    return ArrayConfig(
        n_sites=2,
        eta=(1.0, 0.8),
        kappa=(0.45, 0.35, 0.5, 0.4),
        zeta=0.9,
        nbar=0.8,
        mbar=1.0,
        g=(0.0, 0.0),
    )


def end_damped_config() -> ArrayConfig:
    """Three-site arrays with ports only on the far ends."""
    return ArrayConfig(
        n_sites=3,
        eta=(1.0,) * 4,
        kappa=(0.0, 0.0, 0.4, 0.0, 0.0, 0.4),
        zeta=0.5,
        nbar=1.0,
        mbar=np.sqrt(2.0),
        g=(0.0,) * 3,
    )


def quarters(stacked: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ``<a a>``, ``<a adag>``, ``<adag a>`` and ``<adag adag>`` quarters."""
    n = stacked.shape[0] // 2
    return stacked[:n, :n], stacked[:n, n:], stacked[n:, :n], stacked[n:, n:]


class TestLadderCorrelations:
    """The oracle's covariance-to-moment map, and the runtime's moments."""

    def test_vacuum(self):
        corr = oracle.ladder_correlations_from_cm(np.eye(4))
        lower_lower, lower_upper, upper_lower, upper_upper = quarters(corr)
        assert np.allclose(lower_lower, 0.0, atol=1e-14)
        assert np.allclose(upper_lower, 0.0, atol=1e-14)
        assert np.allclose(upper_upper, 0.0, atol=1e-14)
        assert np.allclose(lower_upper, np.eye(2), atol=1e-14)

    def test_two_mode_squeezed_thermal(self):
        nbar, mbar = 0.7, 0.9
        corr = oracle.ladder_correlations_from_cm(oracle.two_mode_squeezed_thermal_cm(nbar, mbar))
        lower_lower, _, upper_lower, _ = quarters(corr)
        assert np.allclose(upper_lower, nbar * np.eye(2), atol=1e-12)
        assert np.allclose(np.diag(lower_lower), 0.0, atol=1e-12)
        assert abs(lower_lower[0, 1]) == pytest.approx(mbar, abs=1e-12)

    def test_operator_ordering_identities(self):
        # <adag adag> is the conjugate of <a a> and <a adag> differs from
        # <adag a> transposed by exactly the commutator -- for any state
        rng = np.random.default_rng(17)
        factor = rng.standard_normal((6, 6))
        cm = factor @ factor.T + np.eye(6)
        corr = oracle.ladder_correlations_from_cm(cm)
        lower_lower, lower_upper, upper_lower, upper_upper = quarters(corr)
        assert np.allclose(upper_upper, lower_lower.conj().T, atol=1e-12)
        assert np.allclose(lower_upper, upper_lower.T + np.eye(3), atol=1e-12)
        assert np.allclose(oracle.covariance_from_moments(corr), cm, atol=1e-12)

    @pytest.mark.parametrize("config", [lossy_config, end_damped_config])
    def test_stationary_moments_match_the_quadrature_route(self, config):
        cfg = config()
        got = steady_state(cfg).stacked()
        assert np.abs(got - oracle.stacked_moments(cfg)).max() <= 1e-12

    def test_conjugation_symmetry_of_stacked_moments(self):
        # conjugating <abar_j abar_k> equals transposing and swapping the
        # raising/lowering sectors, for any Hermitian state
        cfg = lossy_config()
        stacked = steady_state(cfg).stacked()
        n = cfg.n_modes
        swap = np.zeros((2 * n, 2 * n))
        swap[:n, n:] = np.eye(n)
        swap[n:, :n] = np.eye(n)
        assert np.allclose(stacked.conj(), swap @ stacked.T @ swap, atol=1e-12)


def kronecker_quadrature_map(n_modes: int) -> np.ndarray:
    """The quadrature map from its defining Kronecker-delta expression.

    Reference for :func:`output_quadrature_map`; 1-based in the formula,
    0-based in the array.
    """
    size = 2 * n_modes
    theta = np.zeros((size, size), complex)
    for j in range(1, size + 1):
        for k in range(1, size + 1):
            theta[j - 1, k - 1] = (
                (j == 2 * k - 1)
                + (j == 2 * k - size - 1)
                - 1j * ((j == 2 * k) - (j == 2 * k - size))
            )
    return theta


class TestQuadratureMap:
    @pytest.mark.parametrize("n_modes", range(1, 10))
    def test_matches_kronecker_reference(self, n_modes):
        assert np.array_equal(
            output_quadrature_map(n_modes), kronecker_quadrature_map(n_modes)
        )

    def test_single_mode(self):
        assert np.allclose(
            output_quadrature_map(1), np.array([[1.0, 1.0], [-1.0j, 1.0j]])
        )

    def test_two_modes(self):
        expected = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [-1.0j, 0.0, 1.0j, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, -1.0j, 0.0, 1.0j],
            ]
        )
        assert np.allclose(output_quadrature_map(2), expected)


def port_moments(cfg: ArrayConfig, pair, omegas) -> entrep.output.PortMoments:
    return output_covariance(cfg, steady_state(cfg), pair, np.asarray(omegas, float))


def random_config(seed: int) -> tuple[ArrayConfig, tuple[int, int]]:
    """An N <= 7 array pair with independent rates and a random open port pair."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    kappa = rng.uniform(0.05, 0.5, 2 * n) * (rng.random(2 * n) < 0.7)
    pair = (int(rng.integers(n)), n + int(rng.integers(n)))
    kappa[list(pair)] = rng.uniform(0.05, 0.5, 2)
    nbar = rng.uniform(0.0, 2.0)
    cfg = ArrayConfig(
        n_sites=n,
        eta=tuple(rng.uniform(0.2, 2.0, 2 * (n - 1))),
        kappa=tuple(kappa),
        zeta=rng.uniform(0.1, 2.0),
        nbar=nbar,
        mbar=rng.uniform(0.0, 1.0) * squeezing_bound(nbar),
    )
    return cfg, pair


#: Its array drift has one defective eigenvalue (-1.5, twice), so no
#: eigenvector basis diagonalizes the resolvent.
DEFECTIVE = ArrayConfig(
    n_sites=2, eta=(1.0, 1.0), kappa=(0.0, 0.5, 0.0, 0.5), zeta=2.5, nbar=1.0, mbar=1.2
)


def assert_matches_the_stacked_resolvent(cfg, pair, omegas):
    got = port_moments(cfg, pair, omegas)
    raw = output_pair_spectrum(cfg, omegas, pair=pair).raw
    assert np.array_equal(raw, pair_logneg(*got))
    for k, omega in enumerate(omegas):
        n_p, n_q, m = oracle.output_port_moments(cfg, pair, omega)
        assert abs(got.n_p[k] - n_p) <= 1e-12
        assert abs(got.n_q[k] - n_q) <= 1e-12
        assert abs(got.m[k] - m) <= 1e-12
        assert abs(raw[k] - oracle.output_pair_logneg(cfg, pair, omega)) <= 1e-12


class TestStackedResolventOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_configs_in_both_port_orders(self, seed):
        cfg, pair = random_config(seed)
        omegas = np.concatenate([[0.0], np.random.default_rng(seed).uniform(-3.0, 3.0, 4)])
        assert_matches_the_stacked_resolvent(cfg, pair, omegas)
        assert_matches_the_stacked_resolvent(cfg, pair[::-1], omegas)

    def test_defective_array_drift(self):
        block = oracle.ladder_drift(DEFECTIVE)[0]
        values, vectors = np.linalg.eig(block)
        assert abs(values[0] - values[1]) <= 1e-6
        assert np.linalg.cond(vectors) > 1e6
        assert_matches_the_stacked_resolvent(DEFECTIVE, (1, 3), np.linspace(-3.0, 3.0, 13))

    @pytest.mark.parametrize("omega", [0.0, 0.8, -1.7])
    def test_oracle_output_commutator_identity(self, omega):
        plus = quarters(oracle.output_correlations(lossy_config(), omega))
        minus = quarters(oracle.output_correlations(lossy_config(), -omega))
        assert np.allclose(plus[1], minus[2].T + np.eye(4), atol=1e-11)

    @pytest.mark.parametrize("seed", [0, 1, 3])  # configs with an imaginary m
    def test_oracle_covariance_reads_back_the_port_moments(self, seed):
        # the covariance's p rows follow p = (a - adag) / (i sqrt(2)), so
        # reading it back gives the cross-moment m, not its conjugate
        cfg, (p, q) = random_config(seed)
        n = cfg.n_modes
        omegas = [0.0, 0.9, -1.6]
        moments = port_moments(cfg, (p, q), omegas)
        assert np.abs(moments.m.imag).max() > 1e-3  # m and conj(m) differ
        for k, omega in enumerate(omegas):
            stacked = oracle.ladder_correlations_from_cm(oracle.output_covariance(cfg, omega))
            assert abs(stacked[p, q] - moments.m[k]) <= 1e-12
            assert abs(stacked[n + p, p] - moments.n_p[k]) <= 1e-12
            assert abs(stacked[n + q, q] - moments.n_q[k]) <= 1e-12

    def test_oracle_vacuum_input_gives_identity_covariance(self):
        cfg = replace(lossy_config(), nbar=0.0, mbar=0.0)
        for omega in (0.0, -0.6, 2.2):
            sigma = oracle.output_covariance(cfg, omega)
            assert np.abs(sigma - np.eye(8)).max() <= 1e-12


def regression_oracle_block(block, gains, omega, drift_first, drift_second):
    """Fourier transform of the two-time correlation, from scratch.

    Forward branch evolves the first operator with its own drift; the
    reversed branch evolves the second operator.  The port gains and the
    factor two come from the input-output relation for the leaking field.
    """

    def integrand(t: float) -> np.ndarray:
        forward = expm(drift_first * t) @ block * np.exp(1j * omega * t)
        reverse = block @ expm(drift_second.T * t) * np.exp(-1j * omega * t)
        return forward + reverse

    value, _ = quad_vec(integrand, 0.0, 90.0, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * gains @ value @ gains


class TestRegressionOracle:
    @pytest.mark.parametrize("omega", [0.0, 0.37, -1.1])
    def test_port_moments_match_time_domain_integration(self, omega):
        cfg = lossy_config()
        ladder = block_diag(*oracle.ladder_drift(cfg))
        pairs, _, normal, _ = quarters(steady_state(cfg).stacked())
        gains = np.diag(np.sqrt(np.asarray(cfg.kappa, float)))
        conj = ladder.conj()
        # symmetrized spectra: <b b> from the pair moments, and <b^dag b>
        # from <adag(t) a(0)> and <a(t) adag(0)>, whose port-sandwiched
        # part carries <adag a> transposed; the output commutator adds
        # only the one half that separates the symmetrized moment from n_p
        anomalous = regression_oracle_block(pairs, gains, omega, ladder, ladder)
        occupation = 0.5 * (
            regression_oracle_block(normal, gains, omega, conj, ladder)
            + regression_oracle_block(normal.T, gains, omega, ladder, conj)
        )
        for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
            p, q = pair
            got = port_moments(cfg, pair, [omega])
            assert abs(got.n_p[0] - occupation[p, p].real) <= 5e-8
            assert abs(got.n_q[0] - occupation[q, q].real) <= 5e-8
            assert abs(got.m[0] - 0.5 * (anomalous[p, q] + anomalous[q, p])) <= 5e-8


class TestNormalizationAnchors:
    def test_vacuum_input_gives_zero_port_moments(self):
        cfg = ArrayConfig(
            n_sites=2,
            eta=(1.0, 1.0),
            kappa=(0.3, 0.2, 0.25, 0.15),
            zeta=0.9,
            nbar=0.0,
            mbar=0.0,
            g=(0.0, 0.0),
        )
        omegas = [0.0, -0.6, 0.6, 2.2]
        for pair in ((0, 2), (0, 3), (1, 2), (1, 3)):
            moments = port_moments(cfg, pair, omegas)
            assert max(np.abs(values).max() for values in moments) <= 1e-12

    def test_thermal_cavity_photon_spectrum_closed_form(self):
        kappa, zeta, nbar = 0.3, 0.8, 0.6
        cfg = ArrayConfig.homogeneous(1, kappa=kappa, zeta=zeta, nbar=nbar, mbar=0.0)
        occupation = zeta * nbar / (zeta + kappa)
        width = zeta + kappa
        omegas = np.array([0.0, 0.45, 1.3])
        found = port_moments(cfg, (0, 1), omegas)
        lorentzian = 4.0 * kappa * width * occupation / (width**2 + omegas**2)
        assert np.abs(found.n_p - lorentzian).max() <= 1e-12
        assert np.abs(found.n_q - lorentzian).max() <= 1e-12
        assert np.abs(found.m).max() <= 1e-12

    def test_integrated_flux_matches_steady_occupation(self):
        # integral of the photon spectrum over omega / 2 pi must equal
        # the photon flux 2 kappa <n> leaving the port; this pins the
        # resolvent weight 2
        kappa, zeta, nbar = 0.3, 0.8, 0.6
        cfg = ArrayConfig.homogeneous(1, kappa=kappa, zeta=zeta, nbar=nbar, mbar=0.0)
        occupation = zeta * nbar / (zeta + kappa)
        moments = steady_state(cfg)

        def spectrum(omega: float) -> float:
            return output_covariance(cfg, moments, (0, 1), np.array([omega])).n_p[0]

        flux, _ = quad(spectrum, -np.inf, np.inf)
        assert flux / (2.0 * np.pi) == pytest.approx(2.0 * kappa * occupation, abs=1e-9)


class TestPairSpectra:
    def test_spectrum_is_even_in_frequency(self):
        cfg = ArrayConfig.homogeneous(
            3, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0)
        )
        omegas = np.linspace(-2.5, 2.5, 21)
        spec = output_pair_spectrum(cfg, omegas)
        assert spec.pair == (2, 5)
        assert np.allclose(spec.raw, spec.raw[::-1], atol=1e-10)
        assert np.all(spec.normalized == spec.raw / (1.0 + spec.raw))
        assert not spec.normalized.flags.writeable

    def test_spectrum_arrays_are_read_only(self):
        cfg = ArrayConfig.homogeneous(2, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=1.0)
        omegas = np.linspace(-1.0, 1.0, 5)
        spec = output_pair_spectrum(cfg, omegas)
        raw = spec.raw.copy()
        for values in (spec.omegas, spec.raw):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 7.0
        assert np.array_equal(spec.raw, raw)
        # the caller's grid is copied, not frozen
        omegas[0] = 0.5

    def test_end_damped_chain_peaks_at_normal_modes(self):
        # with ports only on the far ends, the entanglement spectrum
        # peaks near the chain normal modes 2 eta cos(k pi / (N+1))
        cfg = end_damped_config()
        omegas = np.linspace(-3.0, 3.0, 241)
        spec = output_pair_spectrum(cfg, omegas)
        raw = spec.raw
        maxima = [
            omegas[i]
            for i in range(1, len(omegas) - 1)
            if raw[i] > raw[i - 1] and raw[i] > raw[i + 1]
        ]
        expected = sorted(2.0 * np.cos(k * np.pi / 4.0) for k in (1, 2, 3))
        assert len(maxima) == 3
        assert np.abs(np.array(sorted(maxima)) - expected).max() <= 0.1
        assert np.all(raw > 0.0)

    def test_peak_refinement_improves_on_the_grid(self):
        cfg = end_damped_config()
        coarse = np.linspace(1.0, 1.8, 9)
        spec = output_pair_spectrum(cfg, coarse)
        omega_star, value_star = peak_frequency(cfg, coarse)
        assert value_star >= spec.raw.max()
        assert coarse[0] <= omega_star <= coarse[-1]
        assert abs(omega_star - 1.34) <= 0.05

    def test_mirror_peaks_tie_to_the_lowest_frequency(self):
        # a fig5a point: the spectrum is even, so its two highest grid
        # values mirror each other, and rounding alone once made the
        # positive-frequency one the larger
        kappa = [0.0] * 20
        kappa[9] = kappa[19] = 0.7356422544596414
        cfg = ArrayConfig(
            n_sites=10, eta=(1.0,) * 18, kappa=tuple(kappa), zeta=0.5, nbar=1.0, mbar=np.sqrt(2.0)
        )
        grid = np.linspace(-3.0, 3.0, 121)
        omega_star, value_star = peak_frequency(cfg, grid)
        mirror_star, mirror_value = peak_frequency(cfg, grid[60:])
        assert omega_star < 0.0
        assert omega_star == pytest.approx(-mirror_star, abs=1e-4)
        assert value_star == pytest.approx(mirror_value, rel=1e-9)

    def test_peak_search_refuses_grids_that_are_not_increasing(self):
        cfg = end_damped_config()
        for grid in (np.linspace(1.8, 1.0, 9), [1.0, 1.2, 1.2, 1.4], [1.3]):
            with pytest.raises(ConfigInvalid, match="strictly increasing"):
                peak_frequency(cfg, grid)

    def test_pair_spectrum_keeps_any_grid_order(self):
        cfg = end_damped_config()
        grid = np.linspace(1.0, 1.8, 9)
        ascending = output_pair_spectrum(cfg, grid)
        descending = output_pair_spectrum(cfg, grid[::-1])
        assert np.array_equal(descending.omegas, ascending.omegas[::-1])
        assert np.array_equal(descending.raw, ascending.raw[::-1])

    def test_ports_must_be_open(self):
        closed = ArrayConfig.homogeneous(
            2, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=1.2
        )
        with pytest.raises(ClosedPort):
            output_pair_spectrum(closed, [0.0])

    def test_pair_validation(self):
        cfg = ArrayConfig.homogeneous(
            2, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=1.2
        )
        with pytest.raises(ConfigInvalid):
            output_pair_spectrum(cfg, [0.0], pair=(0, 4))
        with pytest.raises(ConfigInvalid):
            output_pair_spectrum(cfg, [0.0], pair=(1, 1))
        # the field has no within-array anomalous moments, so a same-array
        # pair would be separable at every frequency
        for pair in ((0, 1), (3, 2)):
            with pytest.raises(ConfigInvalid, match="one port in each array"):
                output_pair_spectrum(cfg, [0.0], pair=pair)
            with pytest.raises(ConfigInvalid, match="one port in each array"):
                peak_frequency(cfg, [0.0, 1.0], pair=pair)
        # exactly two integer ports: a bool, a fraction or a third port is
        # refused, never read as an index that gives a wrong-shaped result
        wide = ArrayConfig.homogeneous(3, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=1.2)
        for pair in ((True, 4), (2.5, 5), (0, 1, 2), (3,), 5):
            with pytest.raises(ConfigInvalid):
                output_pair_spectrum(wide, [0.0], pair=pair)
            with pytest.raises(ConfigInvalid):
                peak_frequency(wide, [0.0, 1.0], pair=pair)
        # a whole float is an integer port under the package's one rule
        assert np.array_equal(
            output_pair_spectrum(wide, [0.0, 1.0], pair=(2.0, 5)).raw,
            output_pair_spectrum(wide, [0.0, 1.0], pair=(2, 5)).raw,
        )
        assert peak_frequency(wide, [0.0, 1.0], pair=(2.0, 5)) == peak_frequency(
            wide, [0.0, 1.0], pair=(2, 5)
        )
        for omegas in ([np.nan], [0.0, np.inf], [-np.inf, 0.5], []):
            with pytest.raises(ConfigInvalid):
                output_pair_spectrum(cfg, omegas)
            with pytest.raises(ConfigInvalid):
                peak_frequency(cfg, omegas)

    def test_either_port_order_gives_the_same_spectrum(self):
        cfg = end_damped_config()
        grid = np.linspace(-3.0, 3.0, 25)
        forward = output_pair_spectrum(cfg, grid, pair=(2, 5))
        backward = output_pair_spectrum(cfg, grid, pair=(5, 2))
        assert backward.pair == (5, 2)
        assert np.array_equal(backward.raw, forward.raw)
        assert peak_frequency(cfg, grid, pair=(5, 2)) == peak_frequency(cfg, grid)

    def test_coupled_spins_are_rejected(self):
        cfg = ArrayConfig.homogeneous(
            1, kappa=0.1, zeta=1.0, nbar=0.5, mbar=0.5, g=0.1
        )
        with pytest.raises(ConfigInvalid):
            output_pair_spectrum(cfg, [0.0])

    def test_undamped_model_has_no_output(self):
        cfg = ArrayConfig.homogeneous(
            2, eta=1.0, kappa=0.0, zeta=0.0, nbar=0.5, mbar=0.5
        )
        with pytest.raises(NotHurwitz):
            steady_state(cfg)
        with pytest.raises(ClosedPort):
            output_pair_spectrum(cfg, [0.0])


class TestSteadyStateReuse:
    """Every output route solves the Gaussian steady state once per config."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(cfg):
            seen.append(cfg)
            return steady_state(cfg)

        monkeypatch.setattr(entrep.output, "steady_state", counting)
        return seen

    def test_pair_spectrum(self, calls):
        output_pair_spectrum(end_damped_config(), np.linspace(-2.5, 2.5, 21))
        assert len(calls) == 1

    def test_peak_frequency_scan_and_refinement(self, calls):
        peak_frequency(end_damped_config(), np.linspace(1.0, 1.8, 9))
        assert len(calls) == 1


def effective_model(cfg: ArrayConfig) -> None:
    build_effective_general(replace(cfg, g=(0.01,) * cfg.n_sites))


class TestOneFactorization:
    """Steady state, resolvents, kernels and decay rates share one Schur form per array."""

    @pytest.fixture
    def factored(self, monkeypatch):
        seen = []
        dgees = entrep.gaussian.dgees

        def counting(select, matrix):
            seen.append(matrix.shape)
            return dgees(select, matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("a second factorization of the drift")

        # each real Schur factorization of one gauged drift slice is one dgees call
        monkeypatch.setattr(entrep.gaussian, "dgees", counting)
        monkeypatch.setattr(scipy.linalg, "schur", refuse)
        for name in ("solve", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        return seen

    @pytest.mark.parametrize(
        "route",
        [
            lambda cfg: output_pair_spectrum(cfg, np.linspace(-2.5, 2.5, 21)),
            lambda cfg: peak_frequency(cfg, np.linspace(0.0, 1.8, 10)),
            effective_model,
        ],
        ids=["pair-spectrum", "peak-frequency", "effective-model"],
    )
    @pytest.mark.parametrize(
        ("cfg", "arrays"),
        [(end_damped_config(), 1), (lossy_config(), 2)],
        ids=["mirrored", "unmirrored"],
    )
    def test_one_schur_form_per_distinct_array(self, factored, route, cfg, arrays):
        route(cfg)
        assert len(factored) == arrays


class TestPairSplits:
    """The complex split of a Schur form's 2 x 2 blocks runs once per form, on the first shifted solve."""

    @pytest.fixture
    def splits(self, monkeypatch):
        seen = []
        split = entrep.gaussian._split_pairs

        def counting(t, z):
            seen.append(t.shape)
            return split(t, z)

        monkeypatch.setattr(entrep.gaussian, "_split_pairs", counting)
        return seen

    @pytest.mark.parametrize("cfg", [end_damped_config(), lossy_config()], ids=["mirrored", "unmirrored"])
    def test_a_spectrum_splits_its_forms_once(self, splits, cfg):
        output_pair_spectrum(cfg, np.linspace(-3.0, 3.0, 241))
        assert splits == [(2, cfg.n_sites, cfg.n_sites)]

    def test_a_peak_search_splits_its_forms_once(self, splits):
        # the scan and every refinement step solve on the same steady forms
        peak_frequency(end_damped_config(), np.linspace(1.0, 1.8, 9))
        assert len(splits) == 1


class TestDriftReuse:
    """Every frequency reads the drift off the steady record: one drift build per route."""

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []
        build = entrep.arrays._gauged_blocks

        def counting(cfg, bonds):
            seen.append(cfg)
            return build(cfg, bonds)

        monkeypatch.setattr(entrep.arrays, "_gauged_blocks", counting)
        return seen

    def test_pair_spectrum(self, builds):
        output_pair_spectrum(end_damped_config(), np.linspace(-2.5, 2.5, 21))
        assert len(builds) == 1

    def test_peak_frequency_scan_and_refinement(self, builds):
        peak_frequency(end_damped_config(), np.linspace(1.0, 1.8, 9))
        assert len(builds) == 1

    def test_a_grid_is_one_port_moment_call(self, monkeypatch):
        grids = []

        def counting(cfg, moments, pair, omegas):
            grids.append(len(omegas))
            return output_covariance(cfg, moments, pair, omegas)

        monkeypatch.setattr(entrep.output, "output_covariance", counting)
        output_pair_spectrum(end_damped_config(), np.linspace(-2.5, 2.5, 21))
        assert grids == [21]
        grids.clear()
        peak_frequency(end_damped_config(), np.linspace(1.0, 1.8, 9))
        assert grids[0] == 9 and set(grids[1:]) == {1}
