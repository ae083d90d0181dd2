"""Tests for the closed-form reference quantities.

pure_pair_logneg is validated against an explicit partial-transpose
computation on the 4x4 pair density matrix, and replicated_state against
hand-expanded amplitudes for small pair counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from entrep.arrays import ArrayConfig, pair_entanglement_profile
from entrep.baselines import (
    driving_entanglement,
    pair_amplitude,
    pure_pair_logneg,
    replicated_state,
)
from entrep.errors import ConfigInvalid, NonPhysicalResult, OverSqueezed
from entrep.gaussian import pair_logneg, squeezing_bound


def qubit_pair_logneg_oracle(state: np.ndarray) -> float:
    """log2 trace norm of the partial transpose, straight from definitions."""
    rho = np.outer(state, state.conj())
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return math.log2(np.abs(np.linalg.eigvalsh(pt)).sum())


class TestDrivingEntanglement:
    def test_reference_value(self):
        value = driving_entanglement(1.0, math.sqrt(2.0))
        assert abs(value - (-math.log2(3.0 - 2.0 * math.sqrt(2.0)))) <= 1e-12

    def test_separability_boundary(self):
        for nbar in (0.0, 0.5, 1.0, 4.0):
            assert driving_entanglement(nbar, nbar) == 0.0
            if nbar > 0.0:
                assert driving_entanglement(nbar, 0.8 * nbar) == 0.0

    def test_boundary_rule_matches_the_pair_profile(self):
        # a lossless pair replicates the drive exactly, so the reference
        # column and the pair column must agree at the separability
        # boundary too: both treat nu within 1e-12 of 1 as separable
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=1.0 + 1e-13)
        profile = pair_entanglement_profile(cfg)
        assert profile.raw.tolist() == [0.0]
        assert profile.drive_raw == 0.0
        assert driving_entanglement(1.0, 1.0 + 1e-13) == 0.0

    def test_monotone_in_cross_correlation(self):
        grid = np.linspace(1.0, math.sqrt(2.0), 20)
        values = [driving_entanglement(1.0, m) for m in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_normalized_approaches_unity_while_six_digits_last(self):
        # at the bound the drive's nu = 2 nbar + 1 - 2 mbar cancels; its exact
        # value is 1 / (2 nbar + 1 + 2 mbar), so E = log2(2 nbar + 1 + 2 mbar)
        nbars = (1.0, 1e2, 1e4)
        raws = [driving_entanglement(nbar, squeezing_bound(nbar)) for nbar in nbars]
        normalized = [raw / (1.0 + raw) for raw in raws]
        assert all(b > a for a, b in zip(normalized, normalized[1:]))
        assert normalized[-1] > 0.93
        for nbar, raw in zip(nbars, raws):
            exact = math.log2(2.0 * nbar + 1.0 + 2.0 * squeezing_bound(nbar))
            assert abs(raw - exact) <= 1e-6 * exact
        # at nbar = 1e6 nu keeps about three digits: refused, not returned
        with pytest.raises(NonPhysicalResult, match="fewer than six digits"):
            driving_entanglement(1e6, squeezing_bound(1e6))

    def test_rejects_oversqueezed(self):
        with pytest.raises(OverSqueezed):
            driving_entanglement(1.0, 1.5)

    def test_is_the_pair_formula_of_the_isolated_driven_pair(self):
        for nbar in (0.0, 1e-3, 0.5, 1.0, 7.3, 1e4):
            bound = squeezing_bound(nbar)
            for mbar in (0.0, 0.5 * nbar, nbar, 0.5 * (nbar + bound), bound):
                expected = float(pair_logneg(nbar, nbar, mbar))
                assert driving_entanglement(nbar, mbar) == expected
        assert driving_entanglement(1e300, 1.0) == float(pair_logneg(1e300, 1e300, 1.0)) == 0.0
        # at the bound, 2 nbar + 1 - 2 mbar cancels to zero for nbar = 1e8:
        # refused by the pair rule rather than returned as inf
        with pytest.raises(NonPhysicalResult):
            driving_entanglement(1e8, squeezing_bound(1e8))


class TestReplicatedState:
    def test_vacuum_gives_product_ground_state(self):
        state = replicated_state(0.0, 3)
        expected = np.zeros(64)
        expected[0] = 1.0
        assert np.array_equal(state, expected)

    def test_single_pair_amplitudes(self):
        state = replicated_state(1.0, 1)
        assert np.allclose(state, [math.sqrt(2.0 / 3.0), 0.0, 0.0, math.sqrt(1.0 / 3.0)])

    def test_an_occupation_whose_scale_overflows_is_refused(self):
        # 2 nbar + 1 overflows: the amplitude would read 0 and the state |00>
        for call in (lambda: pair_amplitude(1e308), lambda: replicated_state(1e308, 1)):
            with pytest.raises(ConfigInvalid, match=r"^2 nbar \+ 1 must be finite"):
                call()

    @pytest.mark.parametrize("nbar", [0.0, 1e-300, 0.3, 1.0, 7.3, 1e300, 8.9e307])
    def test_an_admitted_amplitude_is_the_formula(self, nbar):
        assert pair_amplitude(nbar) == math.sqrt(nbar / (2.0 * nbar + 1.0))

    @pytest.mark.parametrize("nbar,n_pairs", [(0.3, 1), (1.0, 2), (2.5, 3)])
    def test_unit_norm(self, nbar, n_pairs):
        assert abs(np.linalg.norm(replicated_state(nbar, n_pairs)) - 1.0) <= 1e-12

    def test_two_pair_amplitudes_against_hand_expansion(self):
        nbar = 1.0
        c = pair_amplitude(nbar)
        ground = math.sqrt(1.0 - c * c)
        state = replicated_state(nbar, 2)
        pair_states = [
            np.array([ground, 0.0, 0.0, c]),        # pair 1: positive sign
            np.array([ground, 0.0, 0.0, -c]),       # pair 2: negative sign
        ]
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    for b4 in range(2):
                        # qubit order (1, 2, 3, 4) = (array one site 1, array
                        # one site 2, array two site 1, array two site 2);
                        # pair j couples qubits j and 2+j
                        expected = (
                            pair_states[0][2 * b1 + b3] * pair_states[1][2 * b2 + b4]
                        )
                        index = 8 * b1 + 4 * b2 + 2 * b3 + b4
                        assert abs(state[index] - expected) <= 1e-12

    def test_sign_alternation_across_pairs(self):
        nbar, n_pairs = 1.0, 3
        c = pair_amplitude(nbar)
        ground = math.sqrt(1.0 - c * c)
        state = replicated_state(nbar, n_pairs).reshape((2,) * 6)
        # amplitude with only pair j doubly excited picks up (-1)**(j+1)
        assert abs(state[1, 0, 0, 1, 0, 0] - c * ground**2) <= 1e-12
        assert abs(state[0, 1, 0, 0, 1, 0] + c * ground**2) <= 1e-12
        assert abs(state[0, 0, 1, 0, 0, 1] - c * ground**2) <= 1e-12

    def test_all_pairs_carry_equal_entanglement(self):
        nbar, n_pairs = 1.0, 3
        state = replicated_state(nbar, n_pairs).reshape((2,) * 6)
        values = []
        for j in range(n_pairs):
            amp = np.moveaxis(state, (j, n_pairs + j), (0, 1)).reshape(4, -1)
            rho = amp @ amp.conj().T
            pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            values.append(math.log2(np.abs(np.linalg.eigvalsh(pt)).sum()))
        assert np.abs(np.diff(values)).max() <= 1e-12
        assert abs(values[0] - pure_pair_logneg(pair_amplitude(nbar))) <= 1e-12

    def test_rejects_empty_chain(self):
        # also a non-finite occupation and a pair count that is no integer
        for args in ((1.0, 0), (math.nan, 2), (math.inf, 2), (1.0, 2.5), (1.0, True)):
            with pytest.raises(ConfigInvalid):
                replicated_state(*args)


class TestPurePairLogneg:
    def test_endpoints(self):
        assert pure_pair_logneg(0.0) == 0.0
        assert abs(pure_pair_logneg(1.0 / math.sqrt(2.0)) - 1.0) <= 1e-12

    def test_reference_value_at_unit_occupation(self):
        c = pair_amplitude(1.0)
        value = pure_pair_logneg(c)
        assert abs(value - math.log2(1.0 + 2.0 * math.sqrt(2.0) / 3.0)) <= 1e-12
        assert round(value, 3) == 0.958

    @pytest.mark.parametrize("c", [0.0, 0.2, 1.0 / math.sqrt(3.0), 0.6, 1.0 / math.sqrt(2.0)])
    def test_against_partial_transpose_oracle(self, c):
        state = np.array([math.sqrt(1.0 - c * c), 0.0, 0.0, c])
        assert abs(pure_pair_logneg(c) - qubit_pair_logneg_oracle(state)) <= 1e-12

    @pytest.mark.parametrize("c", [0.2, 0.5, 1.0 / math.sqrt(2.0)])
    def test_sign_of_amplitude_is_immaterial(self, c):
        flipped = np.array([math.sqrt(1.0 - c * c), 0.0, 0.0, -c])
        assert abs(pure_pair_logneg(c) - qubit_pair_logneg_oracle(flipped)) <= 1e-12

    def test_rejects_unreachable_amplitudes(self):
        with pytest.raises(ConfigInvalid):
            pure_pair_logneg(0.9)
        with pytest.raises(ConfigInvalid):
            pure_pair_logneg(-0.1)


class TestPairAmplitude:
    def test_known_points(self):
        assert pair_amplitude(0.0) == 0.0
        assert abs(pair_amplitude(1.0) - 1.0 / math.sqrt(3.0)) <= 1e-15

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -1.0])
    def test_rejects_non_finite_or_negative_occupation(self, nbar):
        with pytest.raises(ConfigInvalid):
            pair_amplitude(nbar)

    def test_saturates_at_bell_amplitude(self):
        assert pair_amplitude(1e9) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
