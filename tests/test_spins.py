"""Tests for the spin-array models and their mutual cross-checks.

The three routes to the spin physics (exact two-chain master equation,
general second-order reduction, closed-form reduction) are pinned against
each other and against analytical fixed points: the replicated pair
state under a purely-squeezed drive, the product thermal state under an
uncorrelated drive, and the Fock-truncated cavity+spin oracle.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entrep.arrays
import entrep.liouville
import entrep.spins
import superop_reference
from entrep.arrays import ArrayConfig, steady_state
from entrep.baselines import pair_amplitude, pure_pair_logneg, replicated_state
from entrep.cli import main
from entrep.errors import (
    ROUNDOFF_RTOL,
    ConfigInvalid,
    DegenerateSteadyState,
    DimensionBudgetExceeded,
    NotHurwitz,
    OverSqueezed,
    TruncationUnconverged,
)
from entrep.gaussian import squeezing_bound
from entrep.liouville import (
    Liouvillian,
    fidelity_pure,
    logneg_qubits,
    reduced_pair_dm,
    steady_state_dm,
    vec,
)
from entrep.spins import (
    _array_charge,
    _array_swap,
    _field_moments,
    _fock_dims,
    _fock_liouvillian,
    _fock_solve,
    _lowering_ops,
    _squeezed_frame,
    adiabaticity_ratio,
    build_effective_closed_form,
    build_effective_general,
    build_xx_liouvillian,
    check_size,
    closed_form_rates,
    coupling_pattern_matrices,
    effective_drive_sweep,
    full_cavity_atom_oracle,
    xx_drive_sweep,
)
from quadrature_oracle import ladder_drift
from superop_reference import (
    QUBIT_LOWER,
    apply,
    destroy,
    embed_operator,
    left_multiply,
    right_multiply,
    trace_defect,
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
    assert trace_defect(liouvillian) <= tol
    for _ in range(5):
        image = apply(liouvillian, random_hermitian(rng, liouvillian.dim))
        assert abs(np.trace(image)) <= 10 * tol * liouvillian.dim
        assert np.abs(image - image.conj().T).max() <= 10 * tol * liouvillian.dim


def test_array_charge_counts_excitations_per_array():
    # a three-level mode in array one, a qubit in array two; site 0 leftmost
    assert np.array_equal(_array_charge((3, 2), 1), [0, -1, 1, 0, 2, 1])
    # two sites of one array
    assert np.array_equal(_array_charge((2, 2), 2), [0, 1, 1, 2])
    # one-site arrays with their spins: groups (mode 0, mode 1), (spin 0, spin 1)
    states = np.array(np.unravel_index(np.arange(16), (2,) * 4)).T
    assert np.array_equal(_array_charge((2,) * 4, 1), states @ [1, -1, 1, -1])


@given(
    dims=st.lists(st.integers(2, 5), min_size=1, max_size=5).map(tuple),
    first_mask=st.integers(0, 2**5 - 1),
)
@example(dims=(7, 7, 2, 2), first_mask=0b0101)  # the one-pair Fock+spin oracle at n_max 6
@settings(max_examples=300, deadline=None)
def test_block_side_counts_equal_charge_pairs(dims, first_mask):
    # the block side check_size reports does not depend on which sites
    # belong to the first array
    signs = [1 if first_mask >> site & 1 else -1 for site in range(len(dims))]
    charge = np.array(np.unravel_index(np.arange(np.prod(dims)), dims)).T @ signs
    pairs = int(np.equal.outer(charge, charge).sum())
    with pytest.raises(DimensionBudgetExceeded, match=re.escape(f"block side {pairs:,})")):
        check_size(dims, budget=0)


def test_array_swap_exchanges_the_arrays():
    # two modes of three levels, then their two spins; site 0 leftmost
    dims = (3, 3, 2, 2)
    states = np.array(np.unravel_index(np.arange(36), dims)).T
    swap = _array_swap(dims, 1)
    assert np.array_equal(states[swap], states[:, [1, 0, 3, 2]])
    charge = _array_charge(dims, 1)
    assert np.array_equal(charge[swap], -charge)
    # two pairs of qubits: (a0, a1, b0, b1) -> (b0, b1, a0, a1)
    assert np.array_equal(_array_swap((2,) * 4, 2)[0b0110], 0b1001)


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
            value = logneg_qubits(reduced_pair_dm(rho, *pair))
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
            assert logneg_qubits(reduced_pair_dm(rho, *pair)) == 0.0

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
            values.append(logneg_qubits(reduced_pair_dm(rho, 0, 2)))
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
        for count in (2.5, True, "two"):
            with pytest.raises(ConfigInvalid, match="n_pairs"):
                build_xx_liouvillian(count, 1.0, 0.5, 1.0, 0.0)
            with pytest.raises(ConfigInvalid, match="n_pairs"):
                build_effective_closed_form(count, eta=1.0, zeta=1.0, g=0.1, nbar=1.0, mbar=0.0)
        # a whole float is a pair count under the package's one integer rule
        whole = build_xx_liouvillian(2.0, 1.0, 0.5, 1.0, 0.0)
        exact = build_xx_liouvillian(2, 1.0, 0.5, 1.0, 0.0)
        assert whole.dim == exact.dim and (whole.matrix != exact.matrix).nnz == 0
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
        for mbar in (1.5, 3.0):  # above sqrt(2), the bound at nbar = 1
            with pytest.raises(OverSqueezed):
                build_xx_liouvillian(2, 1.0, 1.0, 1.0, mbar)
        with pytest.raises(DimensionBudgetExceeded):
            build_xx_liouvillian(6, 1.0, 0.5, 1.0, 0.0)

    def test_the_end_drive_guard_takes_the_sum_the_assembly_forms(self):
        # two excited end qubits decay out of one diagonal entry, 4 gamma (nbar + 1)
        # (every warning is an error in this suite, so none may be raised on the way)
        largest = np.finfo(float).max
        assert build_xx_liouvillian(1, 1.0, largest / 4, 0.0, 0.0).scale == largest
        for gamma, nbar in ((4.5e307, 0.0), (8.9e307, 0.0), (1.0, 8e307)):
            with pytest.raises(ConfigInvalid, match=r"^4 rate \(nbar \+ 1\) of the end"):
                build_xx_liouvillian(1, 1.0, gamma, nbar, 0.0)

    def test_the_fock_end_drive_guard_takes_the_sum_for_its_cutoff(self):
        # both driven modes at the top level 6 decay out of one diagonal entry,
        # 24 zeta (nbar + 1); with nbar (6 - 1) > 1 the level below, with its
        # pump, is larger: 4 zeta (5 (nbar + 1) + 6 nbar), 64 zeta at nbar = 1
        largest = np.finfo(float).max
        for nbar, top_sum, name in ((0.0, 24, r"24 rate \(nbar \+ 1\)"),
                                    (1.0, 64, r"4 rate \(5 \(nbar \+ 1\) \+ 6 nbar\)")):
            for basis in ("bare", "squeezed"):
                cfg = ArrayConfig.homogeneous(1, zeta=largest / top_sum * 0.999, nbar=nbar)
                liou = _fock_liouvillian(cfg, 6, basis)[0]
                assert liou.scale == pytest.approx(top_sum * cfg.zeta, rel=1e-15)
                for zeta in (largest / top_sum * 1.001, 1e307):
                    cfg = ArrayConfig.homogeneous(1, zeta=zeta, nbar=nbar)
                    with pytest.raises(ConfigInvalid, match=rf"^{name} of the end drive"):
                        _fock_liouvillian(cfg, 6, basis)

    def test_four_pairs_replicate_the_drive(self):
        # eight spins: the charge-diagonal block has side 12,870
        nbar = 1.0
        rho = steady_state_dm(build_xx_liouvillian(4, 1.0, 0.5, nbar, pure_drive(nbar)))
        assert 1.0 - fidelity_pure(rho, replicated_state(nbar, 4)) <= 1e-8
        expected = pure_pair_logneg(pair_amplitude(nbar))
        for j in range(4):
            value = logneg_qubits(reduced_pair_dm(rho, j, 4 + j))
            assert value == pytest.approx(expected, abs=1e-8)


class TestSpinBudget:
    """Five pairs (block side 184,756) are refused before any assembly."""

    @pytest.fixture
    def no_assembly(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("assembly started")

        for name in ("_lowering_ops", "gauged_drift", "drive_split"):
            monkeypatch.setattr(entrep.spins, name, refuse)

    def test_xx_chain(self, no_assembly):
        with pytest.raises(DimensionBudgetExceeded, match="block side 184,756"):
            build_xx_liouvillian(5, 1.0, 0.5, 1.0, 0.0)

    def test_effective_model(self, no_assembly):
        with pytest.raises(DimensionBudgetExceeded, match="block side 184,756"):
            build_effective_general(reduced_config(5, nbar=0.5, mbar=0.5))

    def test_cli_run_exits_2(self, no_assembly, tmp_path, capsys):
        out = tmp_path / "fig3c.csv"
        code = main(
            ["run", "--experiment", "fig3c", "--set", "n_sites=5", "--out", str(out)]
        )
        assert code == 2
        assert "block side 184,756" in capsys.readouterr().err
        assert not out.exists()


def pure_state_residual(n_pairs: int, nbar: float, mbar: float) -> tuple[float, float]:
    """``||L(psi psi^H)||_F`` of the XX generator at ``psi = replicated_state(nbar, n_pairs)``.

    Also returns the generator's largest GKSL coefficient, the scale of the
    residual.  With ``H = sum h_jk o_j o_k`` and ``K = sum e_jk o_k o_j``,
    ``L(psi psi^H) = (-i H - K) psi psi^H + psi (-i H^H psi - K^H psi)^H +
    sum_jk 2 e_jk (o_j psi) (o_k^H psi)^H``: a sum of outer products ``x_r
    y_r^H`` built from operator-vector products alone, with no
    superoperator.  With thin QRs ``X = Q_x R_x`` and ``Y = Q_y R_y`` of the
    stacked columns, ``||X Y^H||_F = ||R_x R_y^H||_F``; a Gram sum ``tr(X^H
    X Y^H Y)`` would square the cancellation and read round-off's square root.
    """
    _, h, e, per_mbar = entrep.spins._xx_coefficients(n_pairs, 1.0, 1.0, nbar)
    e = e + mbar * per_mbar
    ops = entrep.spins._stacked_spin_ops(n_pairs)
    adjoints = [op.conj().T.tocsr() for op in ops]
    psi = replicated_state(nbar, n_pairs).astype(complex)
    on_psi = [op @ psi for op in ops]
    adjoint_on_psi = [op @ psi for op in adjoints]
    # -i H psi - K psi and -i H^H psi - K^H psi
    x_0, y_0 = np.zeros_like(psi), np.zeros_like(psi)
    for j, k in zip(*np.nonzero(h)):
        x_0 -= 1j * h[j, k] * (ops[j] @ on_psi[k])
        y_0 -= 1j * np.conj(h[j, k]) * (adjoints[k] @ adjoint_on_psi[j])
    jumps = list(zip(*np.nonzero(e)))
    for j, k in jumps:
        x_0 -= e[j, k] * (ops[k] @ on_psi[j])
        y_0 -= np.conj(e[j, k]) * (adjoints[j] @ adjoint_on_psi[k])
    xs = [x_0, psi] + [2.0 * e[j, k] * on_psi[j] for j, k in jumps]
    ys = [psi, y_0] + [adjoint_on_psi[k] for j, k in jumps]
    r_x = np.linalg.qr(np.column_stack(xs), mode="r")
    r_y = np.linalg.qr(np.column_stack(ys), mode="r")
    scale = max(np.abs(h).max(), np.abs(e).max())
    return float(np.linalg.norm(r_x @ r_y.conj().T)), float(scale)


class TestReplicatedStateBeyondTheSolveBudget:
    """The replicated state is a fixed point of the XX generator at 5-8 pairs.

    The residual needs only products of operators with the 4^n-long state,
    so it reaches sizes that no factorization fits.  It certifies
    stationarity, not uniqueness: that the pure drive has no other steady
    state is certified only by the steady-state solve, up to 4 pairs.
    """

    @pytest.fixture
    def no_pair_cap(self, monkeypatch):
        monkeypatch.setattr(entrep.spins, "check_size", lambda dims, budget=None: None)

    @pytest.mark.parametrize("n_pairs", [5, 6, 7, 8])
    def test_the_pure_drive_leaves_it_stationary(self, no_pair_cap, n_pairs):
        for nbar in (0.5, 1.0):
            residual, scale = pure_state_residual(n_pairs, nbar, squeezing_bound(nbar))
            assert residual <= 1e-13 * scale
        # below the pure drive the same state is far from stationary
        residual, scale = pure_state_residual(n_pairs, 1.0, 1.2)
        assert residual >= 1e-2 * scale

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("nbar, mbar", [(0.5, None), (1.0, None), (1.0, 1.2)])
    def test_it_matches_the_superoperator_residual(self, n_pairs, nbar, mbar):
        mbar = squeezing_bound(nbar) if mbar is None else mbar
        residual, scale = pure_state_residual(n_pairs, nbar, mbar)
        liou = build_xx_liouvillian(n_pairs, 1.0, 1.0, nbar, mbar)
        psi = replicated_state(nbar, n_pairs)
        want = np.linalg.norm(liou.matrix @ vec(np.outer(psi, psi.conj())))
        assert abs(residual - want) <= 1e-13 * liou.scale
        assert scale <= liou.scale


def kron_lowering_ops(dims: tuple[int, ...]) -> list[sp.csr_matrix]:
    """Lowering operators as Kronecker chains; reference for ``_lowering_ops``."""
    return [
        embed_operator({site: QUBIT_LOWER if levels == 2 else destroy(levels)}, dims)
        for site, levels in enumerate(dims)
    ]


def loop_quadratic_superop(sbar, coeff_left, coeff_right) -> sp.csr_matrix:
    """The quadratic spin terms as a double loop of sparse additions.

    Reference for ``quadratic_superop``: ``coeff_left`` weights ``s_j
    s_k rho``, ``coeff_right`` ``rho s_j s_k`` and the trace-preserving
    ``coeff_mid = -(coeff_left + coeff_right)^T`` ``s_j rho s_k``; the
    sandwich is ``sum_j kron((sum_k C_jk s_k)^T, s_j)``.
    """
    coeff_mid = -(np.asarray(coeff_left) + np.asarray(coeff_right)).T
    dim = sbar[0].shape[0]
    q_left = sp.csr_matrix((dim, dim), dtype=complex)
    q_right = sp.csr_matrix((dim, dim), dtype=complex)
    total = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for j, op_j in enumerate(sbar):
        row_left = sp.csr_matrix((dim, dim), dtype=complex)
        row_right = sp.csr_matrix((dim, dim), dtype=complex)
        row_mid = sp.csr_matrix((dim, dim), dtype=complex)
        for k, op_k in enumerate(sbar):
            if coeff_left[j, k] != 0.0:
                row_left = row_left + coeff_left[j, k] * op_k
            if coeff_right[j, k] != 0.0:
                row_right = row_right + coeff_right[j, k] * op_k
            if coeff_mid[j, k] != 0.0:
                row_mid = row_mid + coeff_mid[j, k] * op_k
        q_left = q_left + op_j @ row_left
        q_right = q_right + op_j @ row_right
        if row_mid.nnz:
            total = total + sp.kron(row_mid.T, op_j, format="csr")
    total = total + left_multiply(q_left) + right_multiply(q_right)
    return total.tocsr()


def assert_same_csr(got, want):
    got, want = got.tocsr(), want.tocsr()
    got.sort_indices()
    want.sort_indices()
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestAssemblyMatchesReferences:
    """The loop-free builders give the reference generators bit for bit."""

    @pytest.mark.parametrize(
        "dims",
        [(2,) * n_spins for n_spins in range(1, 9)]
        + [(3,), (5, 5), (5, 5, 2, 2), (9, 9, 2, 2), (4, 3, 2)],
        ids=str,
    )
    def test_lowering_ops(self, dims):
        for got, want in zip(_lowering_ops(dims), kron_lowering_ops(dims), strict=True):
            assert_same_csr(got, want)

    @pytest.fixture
    def reference_assembly(self, monkeypatch):
        def build(builder):
            fast = builder().matrix
            with monkeypatch.context() as patch:
                patch.setattr(entrep.spins, "_lowering_ops", kron_lowering_ops)
                # the GKSL front looks the assembler up in liouville
                patch.setattr(entrep.liouville, "quadratic_superop", loop_quadratic_superop)
                patch.setattr(entrep.spins, "quadratic_superop", loop_quadratic_superop)
                reference = builder().matrix
            return fast, reference

        return build

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_xx_generator(self, n_pairs, reference_assembly):
        fast, reference = reference_assembly(
            lambda: build_xx_liouvillian(n_pairs, (0.9, 1.3)[: n_pairs - 1], 0.5, 0.8, 0.7)
        )
        assert_same_csr(fast, reference)

    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_effective_generator(self, n_pairs, reference_assembly):
        cfg = ArrayConfig.homogeneous(
            n_pairs, eta=0.8, kappa=0.1, zeta=1.3, nbar=0.9, mbar=1.1, g=0.03
        )
        fast, reference = reference_assembly(lambda: build_effective_general(cfg))
        assert_same_csr(fast, reference)

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_closed_form_generator(self, n_pairs, reference_assembly):
        fast, reference = reference_assembly(
            lambda: build_effective_closed_form(
                n_pairs, eta=0.8, zeta=1.3, g=0.03, nbar=0.9, mbar=1.1
            )
        )
        assert_same_csr(fast, reference)

    @pytest.mark.parametrize("basis", ["bare", "squeezed"])
    @pytest.mark.parametrize(
        "n_sites,n_max,spins",
        [(1, 3, True), (2, 1, True), (1, 2, False), (2, 2, False)],
        ids=["spins-1-3", "spins-2-1", "field-1-2", "field-2-2"],
    )
    def test_fock_generator(self, n_sites, n_max, spins, basis, reference_assembly):
        cfg = ArrayConfig.homogeneous(
            n_sites, eta=0.8, kappa=0.2, zeta=1.3, nbar=0.7, mbar=0.9, g=0.04
        )
        model = cfg if spins else cfg.field_only
        fast, reference = reference_assembly(lambda: _fock_liouvillian(model, n_max, basis)[0])
        assert_same_csr(fast, reference)


class TestGeneratorsMatchPerTermReference:
    """The coefficient-matrix builders against the per-term Kronecker sums."""

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("nbar,mbar", [(0.8, 0.7), (1.0, np.sqrt(2.0))])
    def test_xx_generator_is_bitwise_equal(self, n_pairs, nbar, mbar):
        args = (n_pairs, (0.9, 1.3)[: n_pairs - 1], 0.5, nbar, mbar)
        assert_same_csr(
            build_xx_liouvillian(*args).matrix, superop_reference.xx_generator(*args)
        )

    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "unmirrored"])
    def test_effective_generator_matches_the_single_field_route(self, n_pairs, mirrored):
        # the builder sums the drive split's moments at mbar; the reference
        # solves the field at mbar itself
        cfg = ArrayConfig.homogeneous(
            n_pairs, eta=0.8, kappa=0.1, zeta=1.3, nbar=0.9, mbar=1.1, g=0.03
        )
        if not mirrored:
            cfg = replace(cfg, kappa=(0.1,) * n_pairs + (0.25,) * n_pairs)
        assert cfg.mirrored == mirrored
        liou = build_effective_general(cfg)
        want = superop_reference.effective_generator(cfg)
        assert abs(liou.matrix - want).max() <= 1e-12 * liou.scale

    @pytest.mark.parametrize("basis", ["bare", "squeezed"])
    @pytest.mark.parametrize("field_only", [False, True], ids=["spins", "field"])
    @pytest.mark.parametrize("n_sites,n_max", [(1, 3), (2, 1)])
    def test_fock_generator_and_moments(self, n_sites, n_max, field_only, basis):
        cfg = ArrayConfig.homogeneous(
            n_sites, eta=0.8, kappa=0.2, zeta=1.3, nbar=0.7, mbar=0.9, g=0.04
        )
        if field_only:
            cfg = cfg.field_only
        liou, field_ops, frame = _fock_liouvillian(cfg, n_max, basis)
        want, mode_ops = superop_reference.fock_generator(cfg, n_max, basis)
        assert np.abs((liou.matrix - want).data).max() <= 1e-12 * liou.scale
        # the moment formula holds for any state, not only the steady one
        rho = random_hermitian(np.random.default_rng(n_max), liou.dim)
        moments = _field_moments(rho, field_ops, frame)
        expected = superop_reference.field_moments(rho, mode_ops)
        assert np.abs(moments - expected).max() <= 1e-12 * np.abs(expected).max()


def reduced_config(n_sites, *, nbar, mbar, g=0.02, eta=1.0, zeta=1.0, kappa=0.0):
    return ArrayConfig.homogeneous(
        n_sites, eta=eta, kappa=kappa, zeta=zeta, nbar=nbar, mbar=mbar, g=g
    )


def without_swap(liou):
    """The same generator and charge with no swap declared."""
    return Liouvillian(matrix=liou.matrix, charge=liou.charge)


def swap_cases():
    for n_pairs in (1, 2, 3, 4):
        yield f"xx-{n_pairs}", lambda n=n_pairs: build_xx_liouvillian(n, 1.0, 0.5, 1.0, 1.2)
    for n_pairs in (1, 2, 3):
        cfg = reduced_config(n_pairs, nbar=1.0, mbar=1.2, g=0.01)
        yield f"effective-{n_pairs}", lambda cfg=cfg: build_effective_general(cfg)
        yield f"closed-form-{n_pairs}", lambda n=n_pairs: build_effective_closed_form(
            n, eta=1.0, zeta=1.0, g=0.01, nbar=1.0, mbar=1.2
        )
    for basis in ("bare", "squeezed"):
        for n_sites, n_max, spins in ((1, 2, True), (2, 2, False)):
            cfg = ArrayConfig.homogeneous(
                n_sites, eta=0.8, kappa=0.2, zeta=1.3, nbar=0.7, mbar=0.9, g=0.04
            )
            model = cfg if spins else cfg.field_only
            yield f"fock-{basis}-{n_sites}-{n_max}-{'spins' if spins else 'field'}", (
                lambda model=model, n_max=n_max, basis=basis: _fock_liouvillian(
                    model, n_max, basis
                )[0]
            )


SWAP_CASES = dict(swap_cases())


@pytest.mark.filterwarnings("ignore:timescale-separation")
@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_builders_store_no_round_off(case):
    liou = SWAP_CASES[case]()
    assert np.abs(liou.matrix.data).min() > ROUNDOFF_RTOL * liou.scale


class TestArraySwap:
    """Every builder declares the swap of identical arrays; it changes no state."""

    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("case", list(SWAP_CASES))
    def test_declared_swap_changes_nothing(self, case):
        liou = SWAP_CASES[case]()
        assert liou.swap is not None
        swapped, plain = steady_state_dm(liou), steady_state_dm(without_swap(liou))
        assert np.abs(swapped - plain).max() <= 1e-13

    def test_asymmetric_arrays_get_no_swap(self):
        base = reduced_config(2, nbar=1.0, mbar=1.2, g=0.01)
        liou = build_effective_general(replace(base, eta=(1.0, 1.1)))
        assert liou.swap is None
        steady_state_dm(liou)
        losses = ArrayConfig.homogeneous(1, kappa=0.2, zeta=1.0, nbar=0.5, mbar=0.6, g=0.04)
        liou, *_ = _fock_liouvillian(replace(losses, kappa=(0.2, 0.3)), 2)
        assert liou.swap is None
        steady_state_dm(liou)


class TestEffectiveReduction:
    def test_single_pair_matches_replicated_state(self):
        cfg = reduced_config(1, nbar=1.0, mbar=pure_drive(1.0))
        rho = steady_state_dm(build_effective_general(cfg))
        assert fidelity_pure(rho, replicated_state(1.0, 1)) >= 1.0 - 1e-9

    def test_three_pair_chain_replicates(self):
        nbar = 1.0
        cfg = reduced_config(3, nbar=nbar, mbar=pure_drive(nbar), g=0.01)
        rho = steady_state_dm(build_effective_general(cfg))
        assert fidelity_pure(rho, replicated_state(nbar, 3)) >= 1.0 - 1e-6
        expected = pure_pair_logneg(pair_amplitude(nbar))
        for pair in ((0, 3), (1, 4), (2, 5)):
            value = logneg_qubits(reduced_pair_dm(rho, *pair))
            assert value == pytest.approx(expected, abs=1e-6)

    def test_three_pair_solve_is_bitwise_repeatable(self):
        cfg = reduced_config(3, nbar=1.0, mbar=1.2, g=0.01)
        liou = build_effective_general(cfg)
        assert np.array_equal(steady_state_dm(liou), steady_state_dm(liou))

    def test_generator_scales_with_coupling_squared(self):
        cfg = reduced_config(2, nbar=0.6, mbar=0.7, g=0.01)
        cfg_double = reduced_config(2, nbar=0.6, mbar=0.7, g=0.02)
        small = build_effective_general(cfg).matrix.toarray()
        large = build_effective_general(cfg_double).matrix.toarray()
        assert np.allclose(large, 4.0 * small, rtol=1e-12, atol=0.0)

    def test_generator_preserves_trace_and_hermiticity(self):
        model = build_effective_general(reduced_config(2, nbar=0.8, mbar=1.0))
        check_generator_structure(model, seed=2)

    def test_adiabaticity_ratio_value(self):
        cfg = reduced_config(1, nbar=1.0, mbar=0.5, g=0.05, zeta=0.7, kappa=0.3)
        assert adiabaticity_ratio(cfg) == pytest.approx(
            0.05 * np.sqrt(2.0) / 1.0, rel=1e-12
        )
        assert adiabaticity_ratio(reduced_config(1, nbar=1.0, mbar=0.5, g=0.0)) == 0.0

    def test_adiabaticity_ratio_of_an_undamped_field_is_refused(self):
        # with no decay channel the field has no timescale and no steady state
        cfg = reduced_config(2, nbar=1.0, mbar=0.5, zeta=0.0, kappa=0.0)
        with pytest.raises(NotHurwitz):
            adiabaticity_ratio(cfg)

    def test_slow_field_triggers_warning(self):
        cfg = reduced_config(1, nbar=1.0, mbar=0.5, g=0.5)
        with pytest.warns(UserWarning, match="timescale-separation"):
            build_effective_general(cfg)

    def test_warning_quotes_the_public_ratio(self):
        cfg = reduced_config(2, nbar=1.0, mbar=0.5, g=0.5, kappa=0.3)
        with pytest.warns(UserWarning) as caught:
            build_effective_general(cfg)
        assert f"ratio {adiabaticity_ratio(cfg):.3f} > 0.1" in str(caught[0].message)

    def test_one_field_drift_build_per_model(self, monkeypatch):
        # the ratio and the kernels read the one field steady state's drift
        builds = []
        build = entrep.arrays._gauged_blocks

        def counting(cfg, bonds):
            builds.append(cfg)
            return build(cfg, bonds)

        monkeypatch.setattr(entrep.arrays, "_gauged_blocks", counting)
        build_effective_general(reduced_config(2, nbar=0.8, mbar=1.0))
        assert len(builds) == 1

    def test_coupling_validation(self):
        base = reduced_config(2, nbar=0.5, mbar=0.5)
        from dataclasses import replace

        with pytest.raises(ConfigInvalid):
            build_effective_general(replace(base, g=(0.1, 0.2)))
        with pytest.raises(ConfigInvalid):
            build_effective_general(replace(base, g=(0.0, 0.0)))
        with pytest.raises(DimensionBudgetExceeded):
            build_effective_general(reduced_config(6, nbar=0.5, mbar=0.5))


def trace_distance(rho, sigma):
    return 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()


MBAR_GRID = list(np.linspace(1.0, np.sqrt(2.0), 4)) + [0.0, 0.6]


class TestDriveSweeps:
    """A drive sweep against the one-point solve of each builder's generator."""

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    def test_xx_sweep_matches_each_point(self, n_pairs):
        coupling = (0.9, 1.3)[: n_pairs - 1]
        states = xx_drive_sweep(n_pairs, coupling, 0.5, 1.0, MBAR_GRID)
        for mbar, rho in zip(MBAR_GRID, states, strict=True):
            want = steady_state_dm(build_xx_liouvillian(n_pairs, coupling, 0.5, 1.0, mbar))
            assert trace_distance(rho, want) <= 1e-12

    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_effective_sweep_matches_each_point(self, n_pairs, mirrored):
        kappa = (0.0,) * n_pairs + ((0.0,) * n_pairs if mirrored else (0.05,) * n_pairs)
        cfg = ArrayConfig(
            n_sites=n_pairs,
            eta=(1.0,) * (2 * n_pairs - 2),
            kappa=kappa,
            zeta=1.0,
            nbar=1.0,
            mbar=0.0,
            g=(0.01,) * n_pairs,
        )
        assert cfg.mirrored == mirrored
        states = effective_drive_sweep(cfg, MBAR_GRID)
        for mbar, rho in zip(MBAR_GRID, states, strict=True):
            want = steady_state_dm(build_effective_general(replace(cfg, mbar=mbar)))
            assert trace_distance(rho, want) <= 1e-12

    def test_each_drive_is_refused_when_its_state_is_asked_for(self):
        grid = [1.0, 1.2, 1.5, 1.3]  # 1.5 is above sqrt(2), the bound at nbar = 1
        for states in (
            xx_drive_sweep(2, 1.0, 0.5, 1.0, grid),
            effective_drive_sweep(reduced_config(2, nbar=1.0, mbar=0.0, g=0.01), grid),
        ):
            next(states), next(states)
            with pytest.raises(OverSqueezed, match="mbar=1.5 exceeds"):
                next(states)

    def test_the_timescale_warning_is_given_once_per_sweep(self):
        cfg = reduced_config(1, nbar=1.0, mbar=0.0, g=0.5)
        with pytest.warns(UserWarning, match="timescale-separation ratio") as caught:
            states = list(effective_drive_sweep(cfg, [0.5, 1.0, 1.2]))
        assert len(caught) == 1 and len(states) == 3


def kronecker_pattern_matrices(n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Y from their defining Kronecker-delta sums (1-based indices).

    Reference for :func:`coupling_pattern_matrices`; the even and odd
    variants differ only in which sublattice carries the deltas.
    """
    even = n_sites % 2 == 0
    x_mat = np.zeros((n_sites, n_sites))
    y_mat = np.zeros((n_sites, n_sites))
    for j in range(1, n_sites + 1):
        for k in range(1, n_sites + 1):
            x_val = 0.0
            y_val = 0.0
            for n in range(1, n_sites + 1):
                for m in range(1, n_sites + 1):
                    anchor = 2 * m if even else 2 * m + 1
                    x_val += (-1.0) ** (n + 1) * (
                        (j == anchor) * (j == k + 2 * n - 1)
                        + (k == anchor) * (j + 2 * n - 1 == k)
                    )
                    anchor = 2 * m if even else 2 * m - 1
                    y_val += (-1.0) ** n * (
                        (j == anchor) * (j == k + 2 * n)
                        + (k == anchor) * (j + 2 * n == k)
                    )
            for m in range(1, n_sites + 1):
                anchor = 2 * m if even else 2 * m - 1
                y_val += (j == anchor) * (j == k)
            x_mat[j - 1, k - 1] = x_val
            y_mat[j - 1, k - 1] = y_val
    return x_mat, y_mat


class TestClosedForm:
    @pytest.mark.filterwarnings("ignore:timescale-separation")
    @pytest.mark.parametrize("n_pairs", [1, 2, 3])
    @pytest.mark.parametrize(
        "nbar,mbar,g",
        [
            pytest.param(0.5, 0.5, 0.03, id="0.5-0.5"),
            pytest.param(1.0, 1.2, 0.03, id="1.0-1.2"),
            pytest.param(1.0, np.sqrt(2.0), 0.03, id="1.0-1.4142135623730951"),
            # the parameters of validate's closed-form-vs-general suite
            pytest.param(1.0, 1.2, 0.01, id="validate"),
        ],
    )
    def test_matches_general_construction(self, n_pairs, nbar, mbar, g):
        eta, zeta = 0.8, 1.3
        cfg = reduced_config(n_pairs, nbar=nbar, mbar=mbar, g=g, eta=eta, zeta=zeta)
        general = build_effective_general(cfg)
        closed = build_effective_closed_form(
            n_pairs, eta=eta, zeta=zeta, g=g, nbar=nbar, mbar=mbar
        )
        # the general kernels' round-off where the pattern matrices are zero is not stored
        assert general.matrix.nnz == closed.matrix.nnz
        difference = general.matrix - closed.matrix
        gap = np.abs(difference.data).max() if difference.nnz else 0.0
        assert gap <= 1e-12 * max(1.0, general.scale)

    @pytest.mark.parametrize("n_sites", range(1, 10))
    def test_pattern_identity_reproduces_field_drift_inverse(self, n_sites):
        eta, zeta, g = 0.9, 1.4, 0.07
        cfg = ArrayConfig.homogeneous(n_sites, eta=eta, kappa=0.0, zeta=zeta)
        single_array = ladder_drift(cfg)[0]
        hopping_rate, damping_rate = closed_form_rates(n_sites, eta, zeta, g)
        x_mat, y_mat, signs = coupling_pattern_matrices(n_sites)
        x_ref, y_ref = kronecker_pattern_matrices(n_sites)
        assert np.array_equal(x_mat, x_ref)
        assert np.array_equal(y_mat, y_ref)
        assert np.array_equal(signs, np.diag((-1.0) ** np.arange(n_sites)))
        reconstructed = 1j * hopping_rate * x_mat - damping_rate * y_mat
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
        # a finite rate keeps the bits of its ** formula (g**2 != g * g here)
        g = 0.009273568892309488
        assert closed_form_rates(2, eta, zeta, g) == (g**2 / eta, zeta * g**2 / eta**2)

    @pytest.mark.parametrize(
        ("rates", "name"),
        [
            (dict(g=1e200), "J"),  # g**2 overflows
            (dict(eta=1e200), "gamma"),  # eta**2 overflows
            (dict(eta=1e-200), "gamma"),  # eta**2 underflows to 0 and is divided by
        ],
        ids=["g-overflow", "eta-overflow", "eta-underflow"],
    )
    def test_a_rate_outside_the_float_range_is_refused_by_name(self, rates, name):
        rates = dict(eta=1.0, zeta=1.0, g=1.0) | rates
        with pytest.raises(ConfigInvalid, match=f"^closed-form rate {name} overflows"):
            build_effective_closed_form(2, **rates, nbar=1.0, mbar=0.0)

    def test_fixed_point_is_replicated(self):
        nbar = 0.9
        model = build_effective_closed_form(
            2, eta=1.0, zeta=1.2, g=0.02, nbar=nbar, mbar=pure_drive(nbar)
        )
        rho = steady_state_dm(model)
        assert fidelity_pure(rho, replicated_state(nbar, 2)) >= 1.0 - 1e-9

    def test_generator_preserves_trace_and_hermiticity(self):
        model = build_effective_closed_form(
            3, eta=0.7, zeta=1.1, g=0.04, nbar=0.6, mbar=0.8
        )
        check_generator_structure(model, seed=3)

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            build_effective_closed_form(2, eta=1.0, zeta=0.0, g=0.1, nbar=1.0, mbar=0.0)
        with pytest.raises(ConfigInvalid):
            build_effective_closed_form(2, eta=0.0, zeta=1.0, g=0.1, nbar=1.0, mbar=0.0)
        for bad in (np.nan, np.inf):
            for name in ("eta", "zeta", "g"):
                rates = dict(eta=1.0, zeta=1.0, g=0.1) | {name: bad}
                with pytest.raises(ConfigInvalid):
                    build_effective_closed_form(2, **rates, nbar=1.0, mbar=0.0)
        # g^2 underflows: a zero damping rate, refused rather than divided by
        with pytest.raises(ConfigInvalid, match="rate gamma must be > 0.0, got 0.0"):
            build_effective_closed_form(2, eta=1.0, zeta=1.0, g=1e-200, nbar=1.0, mbar=0.0)
        for mbar in (1.5, 3.0):  # above sqrt(2), the bound at nbar = 1
            with pytest.raises(OverSqueezed):
                build_effective_closed_form(2, eta=1.0, zeta=1.0, g=0.1, nbar=1.0, mbar=mbar)
        with pytest.raises(DimensionBudgetExceeded):
            build_effective_closed_form(6, eta=1.0, zeta=1.0, g=0.1, nbar=1.0, mbar=0.0)


class TestFockOracle:
    def test_field_moments_match_gaussian_route(self):
        # the squeezed joint mode carries occupation ~ nbar + mbar, so the
        # Fock tail decays like ((nbar+mbar)/(nbar+mbar+1))^n: the cutoff
        # must resolve that mode, not just the single-site marginals
        cfg = ArrayConfig.homogeneous(1, kappa=0.1, zeta=1.0, nbar=0.5, mbar=0.6)
        result = full_cavity_atom_oracle(cfg, 10)
        exact = steady_state(cfg).stacked()
        assert result.check_mode == "full"
        assert result.check_shift <= 1e-3
        assert result.spin_dm is None
        assert np.abs(result.moments - exact).max() <= 5e-4

    def test_result_arrays_are_read_only(self):
        # a weak drive certifies a small cutoff by the field-only recheck
        cfg = ArrayConfig.homogeneous(1, kappa=0.2, zeta=1.0, nbar=0.05, mbar=0.1, g=0.04)
        result = full_cavity_atom_oracle(cfg, 3, budget=5_000)
        assert result.check_mode == "field"
        for values in (result.rho, result.moments, result.spin_dm):
            assert np.iscomplexobj(values)
            with pytest.raises(ValueError, match="read-only"):
                values[0, 0] = 7.0

    def test_truncation_error_shrinks_with_cutoff(self):
        cfg = ArrayConfig.homogeneous(1, kappa=0.1, zeta=1.0, nbar=0.5, mbar=0.6)
        exact = steady_state(cfg).stacked()
        errors = []
        for n_max in (3, 6):
            moments = _fock_solve(cfg, n_max, "bare")[1]  # neither cutoff certifies
            errors.append(np.abs(moments - exact).max())
        assert errors[1] < errors[0]

    def test_unconverged_truncation_raises(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        with pytest.raises(TruncationUnconverged):
            full_cavity_atom_oracle(cfg, 2)

    def test_the_old_effective_vs_full_cutoff_is_refused(self):
        # validate once compared against this uncertified cutoff: the
        # recheck at 8 moves a field moment by 4.87e-3
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=1.2, g=0.01)
        with pytest.raises(TruncationUnconverged, match="cutoff 6 -> 8"):
            full_cavity_atom_oracle(cfg, 6, basis="squeezed")

    def test_budget_guard(self):
        cfg = ArrayConfig.homogeneous(2, zeta=1.0, nbar=1.0, mbar=1.0)
        with pytest.raises(DimensionBudgetExceeded):
            full_cavity_atom_oracle(cfg, 8)

    def test_field_recheck_is_size_checked_before_solving(self, monkeypatch):
        # without spins the n_max + 2 recheck (side 11**4) is the full
        # model; over the budget it is refused before any solve
        solved_sides = []
        solve = entrep.spins.steady_state_dm

        def spy(liou):
            solved_sides.append(liou.dim**2)
            return solve(liou)

        monkeypatch.setattr(entrep.spins, "steady_state_dm", spy)
        cfg = ArrayConfig.homogeneous(1, kappa=0.1, zeta=1.0, nbar=0.1, mbar=0.2)
        with pytest.raises(DimensionBudgetExceeded, match="side 14641 "):
            full_cavity_atom_oracle(cfg, 8, budget=12_000)
        assert solved_sides == []
        result = full_cavity_atom_oracle(cfg, 8, budget=14_641)
        assert solved_sides == [6561, 14641]
        assert result.check_mode == "full"
        assert result.check_shift <= 1e-3

    def test_auto_check_falls_back_to_field_recheck(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.1, mbar=0.25, g=0.05)
        result = full_cavity_atom_oracle(cfg, 4, budget=12_000)
        assert result.check_mode == "field"
        assert result.check_shift <= 1e-3
        assert _fock_dims(cfg, 4) == (5, 5, 2, 2)
        assert result.rho.shape == (100, 100)
        assert result.spin_dm is not None

    def test_spin_state_matches_effective_reduction(self):
        nbar = 0.3
        cfg = ArrayConfig.homogeneous(
            1, zeta=1.0, nbar=nbar, mbar=pure_drive(nbar), g=0.05
        )
        oracle = full_cavity_atom_oracle(cfg, 8)
        reduced = steady_state_dm(build_effective_general(cfg))
        gap = 0.5 * np.abs(np.linalg.eigvalsh(oracle.spin_dm - reduced)).sum()
        assert gap <= 1.5e-2
        assert fidelity_pure(oracle.spin_dm, replicated_state(nbar, 1)) >= 0.99

    def test_input_validation(self, monkeypatch):
        def refuse(liouvillian):
            raise AssertionError("solve started")

        monkeypatch.setattr(entrep.spins, "steady_state_dm", refuse)
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.1, mbar=0.2)
        with pytest.raises(TypeError, match="n_max"):
            full_cavity_atom_oracle(cfg)  # the cutoff has no default
        with pytest.raises(TypeError, match="check"):
            full_cavity_atom_oracle(cfg, 2, check="none")  # every call certifies
        with pytest.raises(ConfigInvalid):
            full_cavity_atom_oracle(cfg, 0)
        for n_max in (2.5, True, "3.0"):
            with pytest.raises(ConfigInvalid, match="n_max"):
                full_cavity_atom_oracle(cfg, n_max)
        for budget in (0, 2.5, "x"):
            with pytest.raises(ConfigInvalid, match="budget"):
                full_cavity_atom_oracle(cfg, 2, budget=budget)

    def test_a_spelled_cutoff_is_that_cutoff(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.1, mbar=0.2)
        want = full_cavity_atom_oracle(cfg, 6)
        for n_max in (6.0, "6"):
            assert np.array_equal(full_cavity_atom_oracle(cfg, n_max).moments, want.moments)


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
        bare, *_ = _fock_liouvillian(cfg, 4, "bare")
        squeezed, *_ = _fock_liouvillian(cfg, 4, "squeezed")
        difference = bare.matrix - squeezed.matrix
        gap = np.abs(difference.data).max() if difference.nnz else 0.0
        assert gap <= 1e-12 * max(1.0, bare.scale)

    def test_field_moments_match_gaussian_route_when_strongly_squeezed(self):
        # bare truncation at this cutoff is off by ~5e-2 for these
        # drive statistics; the frame change wins two orders of magnitude
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=1.2)
        exact = steady_state(cfg).stacked()
        moments = _fock_solve(cfg, 6, "squeezed")[1]  # the recheck at 8 moves it by 4.87e-3
        assert np.abs(moments - exact).max() <= 1e-2

    def test_pure_drive_is_exact_at_small_cutoff(self):
        # a purely squeezed drive has zero frame occupation: the frame
        # vacuum is the exact steady state, whatever the cutoff
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        exact = steady_state(cfg).stacked()
        result = full_cavity_atom_oracle(cfg, 4, basis="squeezed")
        assert result.check_shift <= 1e-10
        assert np.abs(result.moments - exact).max() <= 1e-10

    def test_spin_state_matches_effective_reduction_at_pure_drive(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0), g=0.01)
        oracle = full_cavity_atom_oracle(cfg, 6, basis="squeezed")
        reduced = steady_state_dm(build_effective_general(cfg))
        gap = 0.5 * np.abs(np.linalg.eigvalsh(oracle.spin_dm - reduced)).sum()
        assert gap <= 1e-6

    def test_frame_parameters_recombine_to_the_drive_statistics(self):
        nbar, mbar = 1.3, 1.1
        n_th, c, s = _squeezed_frame(nbar, mbar)
        nu = np.sqrt((2.0 * nbar + 1.0) ** 2 - 4.0 * mbar**2)
        assert c**2 - s**2 == pytest.approx(1.0, abs=1e-12)
        assert c * s * nu == pytest.approx(mbar, abs=1e-12)
        assert c**2 * n_th + s**2 * (n_th + 1.0) == pytest.approx(nbar, abs=1e-12)

    @pytest.mark.parametrize("nbar, mbar", [(1.0, 1.2), (0.5, 0.3), (3.0, 2.0), (0.7, 0.0)])
    def test_frame_identities_hold_to_round_off(self, nbar, mbar):
        n_th, c, s = _squeezed_frame(nbar, mbar)
        nu = 2.0 * n_th + 1.0
        assert abs(c * s * nu - mbar) <= 1e-15
        assert abs(c**2 * n_th + s**2 * (n_th + 1.0) - nbar) <= 1e-15
        assert abs(c**2 - s**2 - 1.0) <= 1e-15

    @pytest.mark.parametrize("nbar", [0.5, 1.0, 1e3, 1e8, 1e300])
    def test_the_pure_drive_has_exactly_zero_frame_occupation(self, nbar):
        # nu was sqrt((2 nbar + 1)^2 - 4 mbar^2): at the bound it cancelled
        # to a negative occupation (-4.4e-16 at nbar = 1), to 0 and a division
        # by zero from nbar = 1e8 up, and overflowed from about 1e154
        mbar = squeezing_bound(nbar)
        n_th, c, s = _squeezed_frame(nbar, mbar)
        assert n_th == 0.0
        assert c * s == pytest.approx(mbar, rel=1e-15)
        assert s**2 == pytest.approx(nbar, rel=1e-15)

    def test_a_huge_pure_drive_is_certified_or_refused(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1e8, mbar=squeezing_bound(1e8))
        result = full_cavity_atom_oracle(cfg, 2, basis="squeezed")
        assert result.check_shift == 0.0
        exact = steady_state(cfg).stacked()
        assert np.abs(result.moments - exact).max() <= 1e-15 * np.abs(exact).max()
        # with spins the generator's kernel is too ill-conditioned to certify
        with pytest.raises(DegenerateSteadyState):
            full_cavity_atom_oracle(replace(cfg, g=(0.01,)), 2, basis="squeezed")

    def test_basis_validation(self):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=1.2)
        with pytest.raises(ConfigInvalid, match="basis 'rotated'"):
            full_cavity_atom_oracle(cfg, 2, basis="rotated")
