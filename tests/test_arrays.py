"""Tests for the driven cavity-array model.

The drift is checked against hand-expanded two-site equations of motion,
the quadrature oracle's diffusion against the moment equations of the
isolated driven pair, and the steady moments against the replication
identities (every lossless pair reproduces the reservoir's squeezed
thermal statistics, with an alternating sign on the cross-moment) and
against the 4N-quadrature Lyapunov route of ``quadrature_oracle``.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrep.arrays
import entrep.gaussian
import quadrature_oracle as oracle
from entrep.arrays import (
    ArrayConfig,
    DisorderResult,
    DisorderSpec,
    disorder_sweep,
    drive_split,
    gauged_drift,
    pair_entanglement_profile,
    steady_state,
)
from entrep.baselines import driving_entanglement
from entrep.errors import ConfigInvalid, ModelError, NonPhysicalResult, NotHurwitz, OverSqueezed
from entrep.gaussian import (
    squeezing_bound,
    symplectic_eigenvalues,
    uncertainty_margin,
)

#: The exceptional-point configuration: its single-array drift has one
#: defective eigenvalue, so no eigenvector basis exists.
EXCEPTIONAL_POINT = ArrayConfig.homogeneous(2, eta=1.0, zeta=2.0, nbar=1.0, mbar=1.2)


def end_driven_config(n_sites: int, kappa_end: float, **kwargs) -> ArrayConfig:
    """Homogeneous couplings, loss only on the last site of each array."""
    kappa = [0.0] * (2 * n_sites)
    kappa[n_sites - 1] = kappa_end
    kappa[2 * n_sites - 1] = kappa_end
    base = ArrayConfig.homogeneous(n_sites, **kwargs)
    return replace(base, kappa=tuple(kappa))


class TestArrayConfig:
    def test_homogeneous_factory(self):
        cfg = ArrayConfig.homogeneous(3, eta=2.0, kappa=0.1, nbar=1.0, mbar=1.2)
        assert cfg.eta == (2.0,) * 4
        assert cfg.kappa == (0.1,) * 6
        assert cfg.zeta == 2.0  # defaults to eta
        assert cfg.g == (0.0,) * 3
        assert cfg.driven_modes == (0, 3)
        assert cfg.is_gaussian

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_sites=0, eta=(), kappa=(), zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=2, eta=(1.0,), kappa=(0.0,) * 4, zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=2, eta=(1.0, 1.0), kappa=(0.0,) * 3, zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=1, eta=(), kappa=(0.0, 0.0), zeta=-1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=1, eta=(), kappa=(0.0, 0.0), zeta=1.0, nbar=1.0, mbar=0.0, g=(0.1, 0.2)),
            dict(n_sites=1, eta=(), kappa=(0.0, 0.0), zeta=1.0, nbar=float("nan"), mbar=0.0),
            dict(n_sites=1, eta=(), kappa=(float("inf"), 0.0), zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=1, eta=(), kappa=(0.0, 0.0), zeta=1.0, nbar=1.0, mbar=0.0, g=(float("nan"),)),
            dict(n_sites=2.5, eta=(1.0, 1.0), kappa=(0.0,) * 4, zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=True, eta=(), kappa=(0.0, 0.0), zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=2, eta=("a", "b"), kappa=(0.0,) * 4, zeta=1.0, nbar=0.0, mbar=0.0),
            dict(n_sites=1, eta=(), kappa=(0.0, None), zeta=1.0, nbar=0.0, mbar=0.0),
        ],
    )
    def test_rejects_malformed_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            ArrayConfig(**kwargs)

    def test_site_count_takes_the_one_integer_rule(self):
        with pytest.raises(ConfigInvalid, match="n_sites = 2.5 is not an integer"):
            ArrayConfig.homogeneous(2.5)
        whole = ArrayConfig.homogeneous(2.0, kappa=0.1)
        assert type(whole.n_sites) is int and whole == ArrayConfig.homogeneous(2, kappa=0.1)

    @pytest.mark.parametrize(("nbar", "mbar"), [(1.0, 1.5), (1e150, 1e151), (1e160, 1e161)])
    def test_rejects_oversqueezed_reservoir(self, nbar, mbar):
        with pytest.raises(OverSqueezed):
            ArrayConfig.homogeneous(2, nbar=nbar, mbar=mbar)

    @pytest.mark.parametrize("eta", [(1.0, 1.0), (1.0, 1.1)], ids=["mirrored", "asymmetric"])
    def test_field_only_turns_off_the_couplings_alone(self, eta):
        cfg = ArrayConfig(
            n_sites=2, eta=eta, kappa=(0.1,) * 4, zeta=1.0, nbar=1.0, mbar=1.2, g=(0.1, 0.2)
        )
        field = cfg.field_only
        assert field.is_gaussian and field.field_only == field
        assert replace(field, g=cfg.g) == cfg
        assert field.mirrored == cfg.mirrored

    def test_mirrored_compares_bonds_and_losses(self):
        cfg = ArrayConfig.homogeneous(2, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=1.2)
        assert cfg.mirrored
        assert replace(cfg, g=(0.1, 0.2)).mirrored  # the couplings are shared
        assert not replace(cfg, eta=(1.0, 1.1)).mirrored
        assert not replace(cfg, kappa=(0.1, 0.1, 0.1, 0.0)).mirrored
        # different losses that round to one ladder diagonal: one drift,
        # so one array is solved, and their occupations agree
        close = replace(cfg, kappa=(1e-17, 0.1, 0.0, 0.1))
        drift = gauged_drift(close)
        assert np.array_equal(drift[0], drift[1]) and not close.mirrored
        moments = steady_state(close)
        assert np.array_equal(moments.n1, moments.n2)


class TestDrift:
    @pytest.mark.parametrize("n_sites", range(1, 10))
    def test_is_the_gauged_ladder_drift(self, n_sites):
        rng = np.random.default_rng(n_sites)
        cfg = ArrayConfig(
            n_sites=n_sites,
            eta=tuple(rng.uniform(0.1, 2.0, 2 * (n_sites - 1))),
            kappa=tuple(rng.uniform(0.0, 1.0, 2 * n_sites)),
            zeta=0.7,
            nbar=0.5,
            mbar=0.3,
        )
        drift = gauged_drift(cfg)
        assert drift.dtype == float
        assert np.array_equal(drift, oracle.gauge(oracle.ladder_drift(cfg)))

    def test_a_disorder_level_stacks_the_gauged_drifts_of_its_draws(self, monkeypatch):
        spec = DisorderSpec(
            base=ArrayConfig.homogeneous(4, eta=1.0, kappa=0.1, zeta=0.8, nbar=1.0, mbar=1.2),
            delta_xi=0.5,
            samples=3,
            seed=5,
        )
        stacks = []
        schur_form = entrep.arrays.schur_form

        def spy(drift):
            stacks.append(drift)
            return schur_form(drift)

        monkeypatch.setattr(entrep.arrays, "schur_form", spy)
        disorder_sweep(spec)
        configs = [replace(spec.base, eta=tuple(eta)) for eta in disorder_draws(spec)]
        want = np.array([oracle.gauge(oracle.ladder_drift(cfg)) for cfg in configs])
        # array one's block of every draw, then array two's
        assert len(stacks) == 1
        assert np.array_equal(stacks[0], np.concatenate(want.swapaxes(0, 1)))

    def test_single_pair_pure_damping(self):
        cfg = ArrayConfig.homogeneous(1, eta=1.0, kappa=0.0, zeta=1.0)
        assert np.array_equal(gauged_drift(cfg), -np.ones((2, 1, 1)))
        assert np.array_equal(oracle.quadrature_drift(cfg), -np.eye(4))

    def test_two_site_hopping_by_hand(self):
        # eta = 1, kappa = zeta = 0: dx_1/dt = +p_2, dp_1/dt = -x_2, and the
        # mirrored pattern in array two; no inter-array entries anywhere.
        cfg = ArrayConfig(n_sites=2, eta=(1.0, 1.0), kappa=(0.0,) * 4, zeta=0.0, nbar=0.0, mbar=0.0)
        quad = oracle.quadrature_drift(cfg)
        expected_block = np.zeros((4, 4))
        expected_block[0, 3] = 1.0   # dx_1 <- p_2
        expected_block[1, 2] = -1.0  # dp_1 <- x_2
        expected_block[2, 1] = 1.0   # dx_2 <- p_1
        expected_block[3, 0] = -1.0  # dp_2 <- x_1
        assert np.array_equal(quad[:4, :4], expected_block)
        assert np.array_equal(quad[4:, 4:], expected_block)
        assert np.array_equal(quad[:4, 4:], np.zeros((4, 4)))
        assert np.array_equal(quad[4:, :4], np.zeros((4, 4)))

    def test_quadrature_spectrum_matches_ladder_spectra(self):
        cfg = ArrayConfig(
            n_sites=3,
            eta=(1.0, 0.7, 1.2, 0.4),
            kappa=(0.1, 0.0, 0.3, 0.2, 0.0, 0.5),
            zeta=0.8,
            nbar=0.5,
            mbar=0.4,
        )
        ladder = oracle.ladder_drift(cfg)

        def by_parts(values):
            return np.array(
                sorted(values, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            )

        expected = by_parts(
            np.concatenate([np.linalg.eigvals(ladder), np.linalg.eigvals(ladder.conj())]).ravel()
        )
        actual = by_parts(np.linalg.eigvals(oracle.quadrature_drift(cfg)))
        assert np.abs(expected - actual).max() <= 1e-10

    def test_rejects_atom_couplings(self):
        cfg = ArrayConfig.homogeneous(2, g=0.1, nbar=1.0, mbar=1.0)
        with pytest.raises(ConfigInvalid):
            gauged_drift(cfg)


class TestQuadratureOracleDiffusion:
    def test_vacuum_decay_only(self):
        cfg = ArrayConfig.homogeneous(2, eta=1.0, kappa=0.3, zeta=0.0)
        assert np.array_equal(oracle.diffusion_matrix(cfg), 0.6 * np.eye(8))

    def test_driven_site_blocks(self):
        cfg = ArrayConfig.homogeneous(2, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=1.0)
        dmat = oracle.diffusion_matrix(cfg)
        # driven modes are 0 and 2; local blocks 2*zeta*(2*nbar+1) = 6
        assert np.allclose(np.diag(dmat), [6.0, 6.0, 0.0, 0.0, 6.0, 6.0, 0.0, 0.0])
        assert dmat[0, 4] == -4.0  # x-x cross: -4*zeta*mbar
        assert dmat[1, 5] == 4.0   # p-p cross: +4*zeta*mbar

    def test_isolated_pair_covariance(self):
        cfg = ArrayConfig.homogeneous(1, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        sigma = oracle.covariance(cfg)
        assert np.allclose(sigma[:2, :2], 3.0 * np.eye(2))
        assert np.allclose(sigma[2:, 2:], 3.0 * np.eye(2))
        root8 = 2.0 * math.sqrt(2.0)
        assert np.allclose(sigma[:2, 2:], np.diag([-root8, root8]))


@st.composite
def small_configs(draw):
    """Random N <= 6 arrays: independent bonds and losses in each array."""
    n = draw(st.integers(1, 6))
    rate = st.floats(0.0, 2.0, allow_nan=False)
    eta = tuple(draw(st.lists(rate, min_size=2 * (n - 1), max_size=2 * (n - 1))))
    loss = st.floats(0.0, 0.5, allow_nan=False)
    kappa = tuple(draw(st.lists(loss, min_size=2 * n, max_size=2 * n)))
    nbar = draw(st.floats(0.0, 2.0))
    mbar = draw(st.floats(0.0, 1.0)) * squeezing_bound(nbar)
    zeta = draw(st.floats(0.1, 2.0))
    return ArrayConfig(n_sites=n, eta=eta, kappa=kappa, zeta=zeta, nbar=nbar, mbar=mbar)


class TestSteadyState:
    @pytest.mark.parametrize("nbar,frac", [(0.5, 0.5), (1.0, 0.9), (2.0, 1.0), (1.0, 0.0)])
    def test_isolated_pair_moment_equations(self, nbar, frac):
        # the moment flow d<a_0 a_1>/dt = -2 zeta <a_0 a_1> - 2 zeta mbar
        # fixes the steady cross-moment at -mbar and the occupation at nbar
        mbar = frac * squeezing_bound(nbar)
        cfg = ArrayConfig.homogeneous(1, eta=1.0, kappa=0.0, zeta=1.0, nbar=nbar, mbar=mbar)
        moments = steady_state(cfg)
        assert abs(moments.m[0, 0] - (-mbar)) <= 1e-10
        assert abs(moments.n1[0, 0] - nbar) <= 1e-10
        assert abs(moments.n2[0, 0] - nbar) <= 1e-10

    def test_isolated_pair_reproduces_reservoir_entanglement(self):
        cfg = ArrayConfig.homogeneous(1, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        profile = pair_entanglement_profile(cfg)
        assert abs(profile.raw[0] - (-math.log2(3.0 - 2.0 * math.sqrt(2.0)))) <= 1e-12

    def test_closed_system_has_no_steady_state(self):
        cfg = ArrayConfig.homogeneous(2, eta=1.0, kappa=0.0, zeta=0.0)
        with pytest.raises(NotHurwitz):
            steady_state(cfg)

    def test_driving_alone_stabilizes_any_length(self):
        cfg = ArrayConfig.homogeneous(4, eta=1.0, kappa=0.0, zeta=1.0, nbar=0.5, mbar=0.5)
        moments = steady_state(cfg)
        assert moments.m.shape == (4, 4)
        assert moments.uncertainty_margin >= 0.0

    def test_lossless_replication_with_alternating_cross_sign(self):
        nbar, mbar = 1.0, math.sqrt(2.0)
        cfg = ArrayConfig.homogeneous(3, eta=1.0, kappa=0.0, zeta=1.0, nbar=nbar, mbar=mbar)
        moments = steady_state(cfg)
        for j in range(3):
            # cross-moment -mbar at the driven pair, sign alternating inward
            assert abs(moments.m[j, j] - (-1.0) ** (j + 1) * mbar) <= 1e-9
            assert abs(moments.n1[j, j] - nbar) <= 1e-9

    def test_moments_are_frozen(self):
        moments = steady_state(ArrayConfig.homogeneous(2, zeta=1.0, nbar=1.0, mbar=1.2))
        with pytest.raises(ValueError):
            moments.m[0, 0] = 0.0
        for field in (moments.forms.gauged, moments.forms.t, moments.forms.z):
            with pytest.raises(ValueError):
                field[0, 0, 0] = 0.0

    @pytest.mark.parametrize("kappa_two", [0.1, 0.3])  # mirrored, then not
    def test_moments_carry_both_drift_blocks(self, kappa_two):
        cfg = ArrayConfig(
            n_sites=2, eta=(1.0, 1.0), kappa=(0.1, 0.0, kappa_two, 0.0), zeta=0.8, nbar=0.5, mbar=0.4
        )
        assert steady_state(cfg).forms.gauged.tobytes() == gauged_drift(cfg).tobytes()

    @pytest.mark.parametrize("kappa_two", [0.1, 0.3])  # mirrored, then not
    def test_drive_split_is_the_state_with_its_cross_moments_per_unit_mbar(self, kappa_two):
        cfg = ArrayConfig(
            n_sites=3,
            eta=(1.0, 0.7, 1.0, 0.7),
            kappa=(0.1, 0.0, 0.2, kappa_two, 0.0, 0.2),
            zeta=0.8,
            nbar=0.5,
            mbar=0.6,
        )
        free, cross = drive_split(cfg)
        full = steady_state(cfg)
        # the occupations and forms do not depend on mbar, bit for bit
        for field in ("n1", "n2"):
            assert np.array_equal(getattr(free, field), getattr(full, field))
        assert free.forms.t.tobytes() == full.forms.t.tobytes()
        assert not free.m.any()
        assert np.abs(cfg.mbar * cross - full.m).max() <= 1e-15 * np.abs(full.m).max()

    @given(cfg=small_configs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_quadrature_lyapunov_route(self, cfg):
        try:
            want = oracle.stacked_moments(cfg)
        except NotHurwitz:
            with pytest.raises(NotHurwitz):
                steady_state(cfg)
            return
        # either route loses digits like the inverse of the slowest decay rate
        margin = -np.linalg.eigvals(oracle.ladder_drift(cfg)).real.max()
        tol = 1e-12 * max(1.0, 1.0 / margin)
        assert np.abs(steady_state(cfg).stacked() - want).max() <= 100.0 * tol
        got = pair_entanglement_profile(cfg).raw
        assert np.abs(got - oracle.pair_lognegs(cfg)).max() <= 1000.0 * tol

    def test_exceptional_point_matches_the_quadrature_route(self):
        values = np.linalg.eigvals(oracle.ladder_drift(EXCEPTIONAL_POINT)[0])
        assert abs(values[0] - values[1]) <= 1e-6  # one defective eigenvalue
        got = steady_state(EXCEPTIONAL_POINT).stacked()
        assert np.abs(got - oracle.stacked_moments(EXCEPTIONAL_POINT)).max() <= 1e-12
        profile = pair_entanglement_profile(EXCEPTIONAL_POINT).raw
        assert np.abs(profile - oracle.pair_lognegs(EXCEPTIONAL_POINT)).max() <= 1e-12

    def test_long_lossless_arrays_replicate_the_drive(self):
        cfg = ArrayConfig.homogeneous(120, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        profile = pair_entanglement_profile(cfg)
        assert np.abs(profile.raw - driving_entanglement(1.0, math.sqrt(2.0))).max() <= 1e-10

    def test_a_thousand_site_array_replicates_the_drive(self):
        # the paper's claim at scale.  The slowest decay rate of a lossless
        # array falls like 1/N^3, and the moments lose digits with it, on
        # the real route as on the complex route it replaced: the pairs sit
        # 2.7e-12 from the drive at N = 120, 1.4e-10 at N = 500 and 3.3e-10
        # at N = 1000, so this size has its own bound
        cfg = ArrayConfig.homogeneous(1000, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        profile = pair_entanglement_profile(cfg)
        assert np.abs(profile.raw - driving_entanglement(1.0, math.sqrt(2.0))).max() <= 1e-9

    @pytest.mark.parametrize("scale", [1.0, 1.2])
    def test_uncertainty_sign_agrees_with_symplectic_eigenvalues(self, scale):
        # near-pure end-damped arrays; scaling the cross moments by 1.2
        # breaks the uncertainty relation in both pictures at once
        cfg = end_driven_config(6, 0.5, eta=1.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        moments = steady_state(cfg)
        m = scale * moments.m
        stacked = moments.stacked()
        n = cfg.n_sites
        stacked[:n, n:2 * n] *= scale
        stacked[n:2 * n, :n] *= scale
        stacked[2 * n:, 2 * n:] = stacked[: 2 * n, : 2 * n].conj()
        try:
            nu_min = symplectic_eigenvalues(oracle.covariance_from_moments(stacked))[0]
        except ModelError:
            nu_min = -math.inf  # not even positive definite
        stack = (moments.n1[None], moments.n2[None], m[None])
        if scale == 1.0:
            assert nu_min >= 1.0 - 1e-9
            assert uncertainty_margin(*stack)[0] >= -1e-12
        else:
            assert nu_min < 1.0 - 1e-6
            with pytest.raises(NonPhysicalResult):
                uncertainty_margin(*stack)


@st.composite
def mirrored_configs(draw):
    """Random N <= 8 arrays that are mirror images: shared bonds and losses."""
    n = draw(st.integers(1, 8))
    bonds = tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1, max_size=n - 1)))
    losses = tuple(draw(st.lists(st.floats(0.0, 0.5), min_size=n, max_size=n)))
    nbar = draw(st.floats(0.0, 2.0))
    mbar = draw(st.floats(0.0, 1.0)) * squeezing_bound(nbar)
    zeta = draw(st.floats(0.1, 2.0))
    return ArrayConfig(
        n_sites=n, eta=bonds * 2, kappa=losses * 2, zeta=zeta, nbar=nbar, mbar=mbar
    )


class TestMirroredMargin:
    @given(cfg=mirrored_configs())
    @settings(max_examples=60, deadline=None)
    def test_the_two_uncertainty_blocks_agree(self, cfg):
        assert cfg.mirrored
        try:
            moments = steady_state(cfg)
        except NotHurwitz:
            return
        n1, n2, m = moments.n1, moments.n2, moments.m
        eye = np.eye(cfg.n_sites)
        first = np.block([[eye + n1.T, m], [m.conj().T, n2]])
        second = np.block([[eye + n2.T, m.T], [m.conj(), n1]])
        lowest = [np.linalg.eigvalsh(block)[0] for block in (first, second)]
        # both blocks carry the solve's error, which grows like the
        # inverse of the slowest decay rate
        margin = -np.linalg.eigvals(oracle.ladder_drift(cfg)).real.max()
        tol = 1e-13 * max(1.0, np.abs(first).max()) * max(1.0, 1.0 / margin)
        assert abs(lowest[0] - lowest[1]) <= tol
        assert abs(moments.uncertainty_margin - lowest[0]) <= tol
        margin = uncertainty_margin(n1[None], n2[None], m[None], mirrored=True)[0]
        assert margin == pytest.approx(lowest[0], abs=tol)


class TestEntanglementProfile:
    def test_lossless_profile_equals_drive_reference(self):
        cfg = ArrayConfig.homogeneous(4, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        profile = pair_entanglement_profile(cfg)
        assert profile.pair_labels == (1, 2, 3, 4)
        assert np.abs(profile.raw - profile.drive_raw).max() <= 1e-10
        assert abs(profile.drive_raw - driving_entanglement(1.0, math.sqrt(2.0))) <= 1e-15

    def test_derived_fields_follow_the_stored_ones(self):
        cfg = ArrayConfig.homogeneous(3, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=1.2)
        profile = pair_entanglement_profile(cfg)
        result = disorder_sweep(DisorderSpec(base=cfg, delta_xi=0.3, samples=4, seed=2))
        assert profile.pair_labels == result.pair_labels == (1, 2, 3)
        assert np.array_equal(profile.normalized, profile.raw / (1.0 + profile.raw))
        for arr in (profile.raw, profile.normalized, result.raw_mean, result.norm_sem):
            assert not arr.flags.writeable

    def test_separable_drive_replicates_nothing(self):
        cfg = ArrayConfig.homogeneous(3, eta=1.0, kappa=0.05, zeta=1.0, nbar=1.0, mbar=1.0)
        profile = pair_entanglement_profile(cfg)
        assert np.array_equal(profile.raw, np.zeros(3))
        assert profile.drive_raw == 0.0

    def test_lossy_profile_structure(self):
        strong = pair_entanglement_profile(
            ArrayConfig.homogeneous(6, eta=1.0, kappa=0.1, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        )
        weak = pair_entanglement_profile(
            ArrayConfig.homogeneous(6, eta=1.0, kappa=0.02, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        )
        assert strong.raw.argmax() == 0
        assert strong.raw.min() > 0.0
        assert np.all(weak.raw >= strong.raw - 1e-12)

    def test_loss_never_helps(self):
        profiles = [
            pair_entanglement_profile(
                ArrayConfig.homogeneous(4, eta=1.0, kappa=k, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
            ).raw
            for k in (0.0, 0.05, 0.2)
        ]
        assert np.all(profiles[1] <= profiles[0] + 1e-9)
        assert np.all(profiles[2] <= profiles[1] + 1e-9)

    def test_replication_never_beats_the_drive(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            nbar = rng.uniform(0.2, 2.0)
            mbar = rng.uniform(0.5, 1.0) * squeezing_bound(nbar)
            cfg = ArrayConfig.homogeneous(
                3,
                eta=rng.uniform(0.5, 2.0),
                kappa=rng.uniform(0.0, 0.3),
                zeta=rng.uniform(0.5, 2.0),
                nbar=nbar,
                mbar=mbar,
            )
            profile = pair_entanglement_profile(cfg)
            assert np.all(profile.raw <= profile.drive_raw + 1e-9)

    def test_swapping_the_arrays_preserves_the_profile(self):
        rng = np.random.default_rng(9)
        n = 4
        eta_one, eta_two = rng.uniform(0.5, 1.5, n - 1), rng.uniform(0.5, 1.5, n - 1)
        kap_one, kap_two = rng.uniform(0.0, 0.2, n), rng.uniform(0.0, 0.2, n)
        cfg = ArrayConfig(
            n_sites=n,
            eta=tuple(eta_one) + tuple(eta_two),
            kappa=tuple(kap_one) + tuple(kap_two),
            zeta=1.0,
            nbar=1.0,
            mbar=1.3,
        )
        swapped = replace(
            cfg,
            eta=tuple(eta_two) + tuple(eta_one),
            kappa=tuple(kap_two) + tuple(kap_one),
        )
        direct = pair_entanglement_profile(cfg)
        mirrored = pair_entanglement_profile(swapped)
        assert np.abs(direct.raw - mirrored.raw).max() <= 1e-10

    def test_end_loss_sweep_recovers_interior_pairs(self):
        # loss on the far end only: the terminal pair decays monotonically
        # while interior pairs dip and then recover as the end site is
        # overdamped out of the dynamics
        lossless = pair_entanglement_profile(
            ArrayConfig.homogeneous(5, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
        )
        grid = np.logspace(-2, 2, 9)
        curves = np.array(
            [
                pair_entanglement_profile(
                    end_driven_config(5, k, eta=1.0, zeta=1.0, nbar=1.0, mbar=math.sqrt(2.0))
                ).normalized
                for k in grid
            ]
        )
        assert np.all(np.diff(curves[:, -1]) <= 1e-10)
        interior = curves[:, 1:-1]
        assert np.all(interior[-1] >= 0.95 * lossless.normalized[1:-1])
        assert np.all(interior.min(axis=0) < interior[0] - 1e-6)


def disorder_draws(spec: DisorderSpec) -> list[np.ndarray]:
    """The bonds of every sample of ``spec``, drawn one sample at a time."""
    n_bonds = 2 * (spec.base.n_sites - 1)
    if spec.delta_xi == 0.0 or n_bonds == 0:
        return [np.full(n_bonds, spec.eta0)]
    half = 0.5 * spec.delta_xi
    return [
        spec.eta0 + np.random.default_rng(child).uniform(-half, half, size=n_bonds)
        for child in np.random.SeedSequence(spec.seed).spawn(spec.samples)
    ]


def per_sample_disorder_sweep(spec: DisorderSpec) -> DisorderResult:
    """The per-sample route: one config and one profile per drawn sample.

    Reference for :func:`disorder_sweep`, which solves the same draws as
    one stacked batch.
    """
    draws = disorder_draws(spec)
    profiles = [pair_entanglement_profile(replace(spec.base, eta=tuple(eta))) for eta in draws]
    raw = np.vstack([profile.raw for profile in profiles])
    norm = np.vstack([profile.normalized for profile in profiles])
    if len(norm) > 1:
        sem = norm.std(axis=0, ddof=1) / np.sqrt(len(norm))
    else:
        sem = np.zeros(norm.shape[1])
    return DisorderResult(
        raw_mean=raw.mean(axis=0),
        norm_mean=norm.mean(axis=0),
        norm_min=norm.min(axis=0),
        norm_max=norm.max(axis=0),
        norm_sem=sem,
        drive_raw=profiles[0].drive_raw,
        samples=spec.samples,
    )


STATISTICS = ("raw_mean", "norm_mean", "norm_min", "norm_max", "norm_sem")


@st.composite
def disorder_specs(draw):
    """Random N <= 6, S <= 6 ensembles with random losses, drive and width."""
    n = draw(st.integers(1, 6))
    eta0 = draw(st.floats(0.5, 2.0))
    kappa = tuple(draw(st.lists(st.floats(0.0, 0.5), min_size=2 * n, max_size=2 * n)))
    nbar = draw(st.floats(0.0, 2.0))
    mbar = draw(st.floats(0.0, 1.0)) * squeezing_bound(nbar)
    base = ArrayConfig(
        n_sites=n,
        eta=(eta0,) * (2 * (n - 1)),
        kappa=kappa,
        zeta=draw(st.floats(0.1, 2.0)),
        nbar=nbar,
        mbar=mbar,
    )
    return DisorderSpec(
        base=base,
        delta_xi=draw(st.floats(0.0, 0.99)) * eta0,
        samples=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestDisorder:
    @given(spec=disorder_specs())
    @settings(max_examples=60, deadline=None)
    def test_stacked_level_matches_the_per_sample_loop(self, spec):
        got, want = disorder_sweep(spec), per_sample_disorder_sweep(spec)
        for name in STATISTICS:
            assert np.abs(getattr(got, name) - getattr(want, name)).max() <= 1e-13
        assert got.pair_labels == want.pair_labels
        assert got.drive_raw == want.drive_raw
        assert got.samples == want.samples

    def test_chunked_level_equals_the_whole_level(self, monkeypatch):
        spec = self.make_spec(delta_xi=0.4, samples=8)
        whole = disorder_sweep(spec)
        stacks = []
        schur_form = entrep.arrays.schur_form

        def spy(drift):
            stacks.append(drift.shape)
            return schur_form(drift)

        # three samples of N = 3, whose 6 x 6 uncertainty blocks hold 36 entries each
        monkeypatch.setattr(entrep.arrays, "_STACK_ENTRIES", 3 * 36)
        monkeypatch.setattr(entrep.arrays, "schur_form", spy)
        chunked = disorder_sweep(spec)
        # both arrays' drifts share one stack: 2 x (3, 3, 2) samples
        assert stacks == [(6, 3, 3), (6, 3, 3), (4, 3, 3)]
        for name in STATISTICS:
            assert np.array_equal(getattr(chunked, name), getattr(whole, name))

    def test_a_level_splits_no_schur_form(self, monkeypatch):
        # the moments stay real in the chain gauge: only shifted solves split 2 x 2 blocks
        def refuse(t, z):
            raise AssertionError("a complex split on the moment path")

        monkeypatch.setattr(entrep.gaussian, "_split_pairs", refuse)
        disorder_sweep(self.make_spec(delta_xi=0.4, samples=8))
        disorder_sweep(self.make_spec(delta_xi=0.0))

    def make_spec(self, delta_xi=0.2, samples=6, seed=77):
        base = ArrayConfig.homogeneous(3, eta=1.0, kappa=0.02, zeta=1.0, nbar=1.0, mbar=1.3)
        return DisorderSpec(base=base, delta_xi=delta_xi, samples=samples, seed=seed)

    def test_deterministic_under_seed(self):
        first = disorder_sweep(self.make_spec())
        second = disorder_sweep(self.make_spec())
        assert np.array_equal(first.norm_mean, second.norm_mean)
        assert np.array_equal(first.norm_min, second.norm_min)
        assert np.array_equal(first.norm_sem, second.norm_sem)

    def test_zero_width_collapses_to_homogeneous(self):
        spec = self.make_spec(delta_xi=0.0, samples=4)
        result = disorder_sweep(spec)
        homogeneous = pair_entanglement_profile(spec.base)
        assert np.abs(result.norm_mean - homogeneous.normalized).max() <= 1e-12
        assert np.array_equal(result.norm_min, result.norm_max)
        assert np.array_equal(result.norm_sem, np.zeros(3))

    def test_spread_statistics_are_consistent(self):
        result = disorder_sweep(self.make_spec(delta_xi=0.5, samples=12))
        assert np.all(result.norm_min <= result.norm_mean + 1e-15)
        assert np.all(result.norm_mean <= result.norm_max + 1e-15)
        assert np.all(result.norm_sem >= 0.0)

    def test_rejects_inhomogeneous_base_and_wide_disorder(self):
        base = ArrayConfig(
            n_sites=2, eta=(1.0, 0.9), kappa=(0.0,) * 4, zeta=1.0, nbar=0.5, mbar=0.5
        )
        with pytest.raises(ConfigInvalid):
            DisorderSpec(base=base, delta_xi=0.1, samples=2, seed=1)
        good = ArrayConfig.homogeneous(2, eta=1.0, zeta=1.0, nbar=0.5, mbar=0.5)
        with pytest.raises(ConfigInvalid):
            DisorderSpec(base=good, delta_xi=1.0, samples=2, seed=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(samples=3.5),
            dict(samples=0),
            dict(seed=1.5),
            dict(seed=-1),
            dict(seed=2**64),
            dict(delta_xi=float("nan")),
            dict(delta_xi=float("inf")),
        ],
    )
    def test_rejects_malformed_counts_and_widths(self, kwargs):
        # each is refused at construction, not once the ensemble is solved
        good = ArrayConfig.homogeneous(2, eta=1.0, zeta=1.0, nbar=0.5, mbar=0.5)
        with pytest.raises(ConfigInvalid):
            DisorderSpec(**(dict(base=good, delta_xi=0.1, samples=2, seed=1) | kwargs))
        lone = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.5, mbar=0.5)  # no bond to bound delta_xi
        with pytest.raises(ConfigInvalid):
            DisorderSpec(**(dict(base=lone, delta_xi=0.1, samples=2, seed=1) | kwargs))
