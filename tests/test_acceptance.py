"""Acceptance gate: nine end-to-end physics criteria.

Each test prints one ``criterion N: PASS/FAIL`` line and then asserts.
Tolerances are frozen; they must never be loosened to make a run green.
"""

import math

import numpy as np

from entrep.arrays import (
    ArrayConfig,
    DisorderSpec,
    disorder_sweep,
    pair_entanglement_profile,
    steady_state,
)
from entrep.baselines import driving_entanglement, replicated_state
from entrep.liouville import (
    fidelity_pure,
    logneg_qubits,
    reduced_pair_dm,
    steady_state_dm,
)
from entrep.output import output_pair_spectrum, peak_frequency
from entrep.spins import (
    _fock_solve,
    build_effective_general,
    build_xx_liouvillian,
    full_cavity_atom_oracle,
)

PURE_MBAR = math.sqrt(2.0)  # maximal cross-correlation at nbar = 1
# entanglement of the driving reservoir at (nbar=1, mbar=sqrt(2)),
# computed from its smallest symplectic eigenvalue 2*nbar + 1 - 2*mbar
DRIVE_E = -math.log2(3.0 - 2.0 * math.sqrt(2.0))


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def _end_damped(n_sites: int, kappa_end: float, *, zeta: float) -> ArrayConfig:
    kappa = [0.0] * (2 * n_sites)
    kappa[n_sites - 1] = kappa[2 * n_sites - 1] = kappa_end
    return ArrayConfig(
        n_sites=n_sites,
        eta=(1.0,) * (2 * (n_sites - 1)),
        kappa=tuple(kappa),
        zeta=zeta,
        nbar=1.0,
        mbar=PURE_MBAR,
    )


def test_criterion_1_perfect_replication():
    assert round(DRIVE_E, 4) == 2.5431
    assert abs(driving_entanglement(1.0, PURE_MBAR) - DRIVE_E) <= 1e-12
    worst = 0.0
    for n_sites in (5, 20, 30):
        cfg = ArrayConfig.homogeneous(
            n_sites, eta=1.0, kappa=0.0, zeta=1.0, nbar=1.0, mbar=PURE_MBAR
        )
        profile = pair_entanglement_profile(cfg)
        worst = max(worst, float(np.abs(profile.raw - DRIVE_E).max()))
    _report(
        1,
        worst <= 1e-9,
        f"lossless pairs at N in (5, 20, 30) match the driving "
        f"entanglement {DRIVE_E:.10f}, worst |diff| = {worst:.3e}",
    )


def test_criterion_2_driving_statistics_sweep():
    nbar = 1.0
    bound = math.sqrt(nbar * (nbar + 1.0))
    grid = np.concatenate(
        [np.linspace(0.0, nbar, 9), np.linspace(nbar, bound, 17)[1:]]
    )
    assert len(grid) == 25
    values = np.array(
        [
            pair_entanglement_profile(
                ArrayConfig.homogeneous(
                    5, kappa=0.0, zeta=1.0, nbar=nbar, mbar=float(mbar)
                )
            ).raw[0]
            for mbar in grid
        ]
    )
    separable = values[grid <= nbar]
    entangled = values[grid > nbar]
    zeros_exact = bool(np.all(separable == 0.0))
    strictly_up = bool(np.all(np.diff(entangled) > 1e-9)) and bool(
        np.all(entangled > 1e-9)
    )
    _report(
        2,
        zeros_exact and strictly_up,
        f"E = 0 exactly on all {len(separable)} points with mbar <= nbar; "
        f"strictly increasing over the {len(entangled)} entangled points "
        f"(max {entangled.max():.4f})",
    )


def test_criterion_3_lossy_profile_structure():
    profiles = {}
    for kappa in (0.02, 0.1):
        cfg = ArrayConfig.homogeneous(
            20, eta=1.0, kappa=kappa, zeta=1.0, nbar=1.0, mbar=PURE_MBAR
        )
        profiles[kappa] = pair_entanglement_profile(cfg).raw
    loose = profiles[0.1]
    first_is_max = bool(np.all(loose[0] > loose[1:]))
    all_positive = bool(np.all(loose > 0.0))
    dominance = bool(np.all(profiles[0.02] >= loose))
    _report(
        3,
        first_is_max and all_positive and dominance,
        f"driven-end pair is the maximum ({loose[0]:.4f}), all 20 pairs "
        f"positive (min {loose.min():.4f}), and the 0.02-loss profile "
        f"dominates elementwise",
    )


def test_criterion_4_end_dissipation_sweep():
    n_sites = 10
    kappas = np.logspace(math.log10(0.01), math.log10(100.0), 31)
    table = np.array(
        [
            pair_entanglement_profile(_end_damped(n_sites, float(k), zeta=1.0)).normalized
            for k in kappas
        ]
    )
    lossless = pair_entanglement_profile(
        ArrayConfig.homogeneous(n_sites, kappa=0.0, zeta=1.0, nbar=1.0, mbar=PURE_MBAR)
    ).normalized
    end_monotone = bool(np.all(np.diff(table[:, n_sites - 1]) <= 1e-12))
    minima_ok, recovery_ok = True, True
    for j in range(1, n_sites - 1):  # interior pairs 2..N-1
        column = table[:, j]
        minimizer = float(kappas[int(np.argmin(column))])
        minima_ok &= 0.3 <= minimizer <= 3.0
        recovery_ok &= abs(column[-1] - lossless[j]) <= 0.05 * lossless[j]
    _report(
        4,
        end_monotone and minima_ok and recovery_ok,
        "end pair monotone non-increasing over the 31-point grid; every "
        "interior pair has its minimum inside [0.3, 3] and recovers to "
        "within 5% of the lossless value at kappa_end = 100",
    )


def test_criterion_5_spin_fixed_point():
    n_pairs = 3
    worst_infidelity = 0.0
    worst_logneg_gap = 0.0
    for nbar in (0.5, 1.0):
        mbar = math.sqrt(nbar * (nbar + 1.0))
        target = math.log2(1.0 + 2.0 * mbar / (2.0 * nbar + 1.0))
        liou = build_xx_liouvillian(n_pairs, 1.0, 1.0, nbar, mbar)
        rho = steady_state_dm(liou)  # superoperator side 4096, one sparse LU
        infidelity = 1.0 - fidelity_pure(rho, replicated_state(nbar, n_pairs))
        worst_infidelity = max(worst_infidelity, infidelity)
        for j in range(n_pairs):
            value = logneg_qubits(reduced_pair_dm(rho, j, n_pairs + j))
            worst_logneg_gap = max(worst_logneg_gap, abs(value - target))
    _report(
        5,
        worst_infidelity <= 1e-8 and worst_logneg_gap <= 1e-8,
        f"XX chains replicate the pure pair state (worst infidelity "
        f"{worst_infidelity:.2e}) and every pair holds the analytic "
        f"entanglement (worst gap {worst_logneg_gap:.2e})",
    )


def test_criterion_6_gaussian_vs_fock_oracle():
    cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.5, mbar=math.sqrt(0.75))
    exact = steady_state(cfg).stacked()
    errors = []
    for n_max in (4, 8, 12):
        # the ladder's lower rungs do not certify; the largest does (shift 2.1e-5)
        moments = _fock_solve(cfg, n_max, "bare")[1]
        errors.append(float(np.abs(moments - exact).max()))
    assert full_cavity_atom_oracle(cfg, 12).check_shift <= 1e-3
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    _report(
        6,
        monotone and errors[-1] <= 1e-3,
        "Fock moments approach the Gaussian route monotonically: "
        + " > ".join(f"{e:.2e}" for e in errors),
    )


def test_criterion_7_adiabatic_elimination():
    distances = {}
    for mbar in (1.2, PURE_MBAR):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=mbar, g=0.01)
        oracle = full_cavity_atom_oracle(cfg, 8, basis="squeezed")
        assert oracle.check_mode == "field"  # convergence gate genuinely ran
        effective = steady_state_dm(build_effective_general(cfg))
        distances[mbar] = 0.5 * float(
            np.abs(np.linalg.eigvalsh(oracle.spin_dm - effective)).sum()
        )
    _report(
        7,
        all(d <= 1e-2 for d in distances.values()),
        "reduced spin state of the truncated full model matches the "
        "effective generator: "
        + ", ".join(f"td={d:.2e} at mbar={m:.4f}" for m, d in distances.items()),
    )


def test_criterion_8_output_spectrum():
    n_sites = 10
    step = 6.0 / 120
    omegas = np.linspace(-3.0, 3.0, 121)
    spectrum = output_pair_spectrum(_end_damped(n_sites, 0.4, zeta=0.5), omegas)
    raw = spectrum.raw
    maxima = [
        float(omegas[i])
        for i in range(1, len(omegas) - 1)
        if raw[i] > raw[i - 1] and raw[i] > raw[i + 1]
    ]
    targets = sorted(2.0 * math.cos(k * math.pi / 11.0) for k in range(1, 11))
    peaks_match = len(maxima) == len(targets) and all(
        abs(found - want) <= step + 1e-12
        for found, want in zip(sorted(maxima), targets)
    )
    kappas = np.logspace(math.log10(0.01), math.log10(100.0), 31)
    best = max(
        peak_frequency(_end_damped(n_sites, float(k), zeta=0.5), omegas)[1]
        for k in kappas
    )
    close_to_drive = best >= 0.9 * DRIVE_E
    _report(
        8,
        peaks_match and close_to_drive,
        f"{len(maxima)} spectral maxima sit within one grid step of the "
        f"chain mode frequencies, and the best output entanglement over "
        f"the loss grid reaches {best:.4f} >= 0.9 x driving {DRIVE_E:.4f}",
    )


def test_criterion_9_disorder():
    base = ArrayConfig.homogeneous(
        10, eta=1.0, kappa=0.02, zeta=1.0, nbar=1.0, mbar=PURE_MBAR
    )
    levels = (0.0, 0.2, 0.5)
    results = {
        delta: disorder_sweep(
            DisorderSpec(base=base, delta_xi=delta, samples=500, seed=20260814)
        )
        for delta in levels
    }
    homogeneous = pair_entanglement_profile(base)
    exact_at_zero = np.array_equal(
        results[0.0].norm_mean, homogeneous.normalized
    ) and np.array_equal(results[0.0].raw_mean, homogeneous.raw)
    ordered = True
    for lo, hi in zip(levels, levels[1:]):
        allowance = np.sqrt(results[lo].norm_sem**2 + results[hi].norm_sem**2)
        ordered &= bool(
            np.all(results[hi].norm_mean <= results[lo].norm_mean + allowance)
        )
    _report(
        9,
        exact_at_zero and ordered,
        "zero-width ensemble is bitwise the homogeneous profile; mean "
        "profiles are non-increasing in the disorder width within one "
        "combined standard error (500 samples per width)",
    )
