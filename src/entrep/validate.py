"""Cross-model validation suites with a machine-readable report.

Each suite compares two independently built routes to the same physics
and reports per-check pass/fail with the measured discrepancy:

``gaussian-vs-fock``
    Second moments of the Gaussian steady state against the truncated
    number-basis oracle at the bare cutoffs 10 and 12, whose errors must
    fall.
``effective-vs-full``
    Reduced spin steady state of the full cavity+spin model, truncated
    at cutoff 8 in the squeezed basis, against the adiabatically
    eliminated spin-only model, whose states at both drives come from one
    :func:`entrep.spins.effective_drive_sweep` (one field solve).
``closed-form-vs-general``
    The closed-form reduced generator against the general kernel
    construction, plus a recorded diagnostic for the alternative
    quarter-block layout (which preserves trace and Hermiticity but not
    equivalence with the general construction).
``fixed-point``
    The driven XX chains against the analytic replicated pure state at
    maximal drive correlation, each case solved as the one point of an
    :func:`entrep.spins.xx_drive_sweep`.

``effective-vs-full`` and ``fixed-point`` thus run the sweeps that write
fig3b and fig3c, on the same per-part path of
:func:`entrep.liouville.steady_state_sweep`: an ``mbar``-free generator
and a per-``mbar`` matrix, laid on one pattern and combined per point.

Both oracle suites rest only on cutoffs that
:func:`entrep.spins.full_cavity_atom_oracle` certifies by its recheck two
quanta higher; each check's ``detail`` names that recheck and its shift.
A suite whose solves, the recheck included, would exceed the
superoperator-side ``budget`` (:func:`entrep.spins.check_size`) is marked
``skipped`` (never silently passed).  Failures are report entries, not
exceptions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .arrays import ArrayConfig, steady_state
from .baselines import replicated_state
from .errors import ConfigInvalid, DimensionBudgetExceeded, ModelError, as_integer
from .liouville import fidelity_pure, gksl_superop
from .output import first_peak_index
from .spins import (
    SIDE_BUDGET,
    _closed_form_blocks,
    _stacked_spin_ops,
    build_effective_closed_form,
    build_effective_general,
    check_size,
    closed_form_rates,
    coupling_pattern_matrices,
    effective_drive_sweep,
    full_cavity_atom_oracle,
    xx_drive_sweep,
)

__all__ = [
    "SUITE_NAMES",
    "CheckResult",
    "SuiteReport",
    "report_to_json",
    "run_all",
    "run_suite",
]

@dataclass(frozen=True)
class CheckResult:
    """One comparison: measured ``value`` against ``threshold``.

    ``status`` is ``passed``/``failed`` for gated checks, ``reported``
    for purely informational measurements (no pass/fail semantics).
    """

    name: str
    status: str
    value: float | None = None
    threshold: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    status: str  # passed | failed | skipped
    checks: tuple[CheckResult, ...] = ()
    reason: str = ""


def _gated(name: str, value: float, threshold: float, detail: str = "") -> CheckResult:
    status = "passed" if value <= threshold else "failed"
    return CheckResult(name=name, status=status, value=float(value), threshold=threshold, detail=detail)


def _finish(suite: str, checks: list[CheckResult], all_skipped: str = "") -> SuiteReport:
    """Suite verdict; a suite whose every check skipped is skipped for ``all_skipped``."""
    if all_skipped and all(c.status == "skipped" for c in checks):
        return SuiteReport(suite=suite, status="skipped", checks=tuple(checks), reason=all_skipped)
    status = "failed" if any(c.status == "failed" for c in checks) else "passed"
    return SuiteReport(suite=suite, status=status, checks=tuple(checks))


def _worst_entry(got: np.ndarray, ref: np.ndarray) -> tuple[float, str]:
    """Largest ``|got - ref|`` entry and a detail string naming it.

    Near-equal entries tie by :func:`entrep.output.first_peak_index`, so
    mirror entries of a moment matrix do not trade places with round-off.
    """
    diff = np.abs(got - ref)
    j, k = np.unravel_index(first_peak_index(diff), diff.shape)
    detail = (
        f"worst moment entry [{j},{k}]: fock={got[j, k]:.6e} "
        f"gaussian={ref[j, k]:.6e} |diff|={diff[j, k]:.3e}"
    )
    return float(diff[j, k]), detail


def _certified(n_max: int, oracle) -> str:
    """How the oracle at cutoff ``n_max`` certified it."""
    return (
        f"cutoff {n_max} certified by the {oracle.check_mode} recheck at "
        f"{n_max + 2} (largest moment shift {oracle.check_shift:.1e})"
    )


def _suite_gaussian_vs_fock(budget: int) -> SuiteReport:
    ladder = (10, 12)
    cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.5, mbar=math.sqrt(0.75))
    reference = steady_state(cfg).stacked()
    # largest cutoff first, so an over-budget ladder is refused before any solve
    oracles = {n: full_cavity_atom_oracle(cfg, n, budget=budget) for n in reversed(ladder)}
    worst = [_worst_entry(oracles[n].moments, reference) for n in ladder]
    certified = [_certified(n, oracles[n]) for n in ladder]
    errors = [err for err, _ in worst]
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    err, detail = worst[-1]
    checks = [
        _gated(f"moment-agreement-nmax{ladder[-1]}", err, 1e-3, f"{detail}; {certified[-1]}"),
        CheckResult(
            name="truncation-error-monotone",
            status="passed" if monotone else "failed",
            detail="; ".join(["errors " + " > ".join(f"{e:.3e}" for e in errors), *certified]),
        ),
    ]
    return _finish("gaussian-vs-fock", checks)


def _suite_effective_vs_full(budget: int) -> SuiteReport:
    n_max, mbars = 8, (1.2, math.sqrt(2.0))
    cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, g=0.01)
    # the oracles first, so that one over the budget is refused before any solve
    oracles = [
        full_cavity_atom_oracle(replace(cfg, mbar=mbar), n_max, basis="squeezed", budget=budget)
        for mbar in mbars
    ]
    checks = []
    for mbar, oracle, effective in zip(mbars, oracles, effective_drive_sweep(cfg, mbars)):
        distance = 0.5 * float(np.abs(np.linalg.eigvalsh(oracle.spin_dm - effective)).sum())
        checks.append(
            _gated(
                f"spin-trace-distance-mbar-{mbar:.4f}",
                distance,
                1e-2,
                f"full model truncated in the squeezed basis, {_certified(n_max, oracle)}",
            )
        )
    return _finish("effective-vs-full", checks)


def _alternative_layout_generator(
    n_pairs: int, *, eta: float, zeta: float, g: float, nbar: float, mbar: float
):
    """Closed-form variant with every ``mbar`` block in the dissipative part.

    The cross-correlation quarters carry the mixed combination
    ``(Y + i (J/gamma) X) Z`` (and its conjugate), and the thermal
    coherent quarters flip sign relative to the canonical layout.  The
    result is a perfectly valid trace-preserving generator; it just does
    not reproduce the general kernel construction, which is why it is
    only reported, never used.
    """
    hopping_rate, damping_rate = closed_form_rates(n_pairs, eta, zeta, g)
    ratio = hopping_rate / damping_rate if n_pairs > 1 else 0.0
    x_mat, y_mat, signs = coupling_pattern_matrices(n_pairs)
    mixed = (y_mat + 1j * ratio * x_mat) @ signs
    # the canonical layout without its mbar quarters; its coherent part flips sign
    x_big, y_big = _closed_form_blocks(n_pairs, nbar, 0.0)
    q1, q2, q3, q4 = (slice(i * n_pairs, (i + 1) * n_pairs) for i in range(4))
    y_big[q1, q2] = y_big[q2, q1] = mbar * mixed
    y_big[q3, q4] = y_big[q4, q3] = mbar * mixed.conj()
    return gksl_superop(
        _stacked_spin_ops(n_pairs), -hopping_rate * x_big, damping_rate * y_big.T
    )


def _suite_closed_form_vs_general(budget: int) -> SuiteReport:
    params = dict(eta=0.8, zeta=1.3, g=0.01, nbar=1.0, mbar=1.2)
    checks = []
    for n_pairs in (2, 3):
        try:
            check_size((2,) * (2 * n_pairs), budget)
        except DimensionBudgetExceeded as exc:
            checks.append(
                CheckResult(f"generator-gap-{n_pairs}-pairs", "skipped", detail=str(exc))
            )
            continue
        general = build_effective_general(ArrayConfig.homogeneous(n_pairs, **params))
        closed = build_effective_closed_form(n_pairs, **params)
        gap = np.abs((closed.matrix - general.matrix)).max()
        scale = max(general.scale, 1e-300)
        checks.append(
            _gated(
                f"generator-gap-{n_pairs}-pairs",
                float(gap / scale),
                1e-10,
                "max generator entry difference relative to the generator scale",
            )
        )
        if n_pairs == 3:
            alternative = _alternative_layout_generator(n_pairs, **params)
            alt_gap = float(np.abs(alternative - general.matrix).max() / scale)
            checks.append(
                CheckResult(
                    name="alternative-block-layout-gap",
                    status="reported",
                    value=alt_gap,
                    threshold=None,
                    detail=(
                        "relative deviation of the alternative quarter-block "
                        "layout (all cross-correlations in the dissipative "
                        "blocks); it preserves trace and Hermiticity but does "
                        "not match the general construction, so it is recorded "
                        "here and never used"
                    ),
                )
            )
    return _finish(
        "closed-form-vs-general", checks, f"all generator sizes over the budget {budget}"
    )


def _suite_fixed_point(budget: int) -> SuiteReport:
    checks = []
    for n_pairs in (1, 2, 3):
        try:
            check_size((2,) * (2 * n_pairs), budget)
        except DimensionBudgetExceeded as exc:
            checks.append(
                CheckResult(f"replication-infidelity-{n_pairs}-pairs", "skipped", detail=str(exc))
            )
            continue
        for nbar in (0.5, 1.0):
            rho = next(xx_drive_sweep(n_pairs, 1.0, 1.0, nbar, [math.sqrt(nbar * (nbar + 1.0))]))
            infidelity = 1.0 - fidelity_pure(rho, replicated_state(nbar, n_pairs))
            checks.append(
                _gated(
                    f"replication-infidelity-{n_pairs}-pairs-nbar-{nbar}",
                    float(max(infidelity, 0.0)),
                    1e-7,
                    "1 - fidelity with the analytic replicated pure state",
                )
            )
    return _finish("fixed-point", checks, f"all chain sizes over the budget {budget}")


_SUITES = {
    "gaussian-vs-fock": _suite_gaussian_vs_fock,
    "effective-vs-full": _suite_effective_vs_full,
    "closed-form-vs-general": _suite_closed_form_vs_general,
    "fixed-point": _suite_fixed_point,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, budget: int = SIDE_BUDGET) -> SuiteReport:
    """Run one named suite at the superoperator-side ``budget``.

    An unknown suite or a budget that is not an integer >= 1 raises
    ConfigInvalid before anything runs.  A model over the budget skips the
    suite; other model errors become a failed check.
    """
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ConfigInvalid(f"unknown suite {name!r}; choose from {known}")
    budget = as_integer("budget", budget, 1)
    try:
        return _SUITES[name](budget)
    except DimensionBudgetExceeded as exc:
        return SuiteReport(suite=name, status="skipped", reason=str(exc))
    except ModelError as exc:
        return SuiteReport(
            suite=name,
            status="failed",
            checks=(
                CheckResult(
                    name="suite-execution",
                    status="failed",
                    detail=f"{type(exc).__name__}: {exc}",
                ),
            ),
        )


def run_all(budget: int = SIDE_BUDGET) -> tuple[SuiteReport, ...]:
    return tuple(run_suite(name, budget) for name in SUITE_NAMES)


def report_to_json(reports, budget: int) -> str:
    payload = {
        "budget": int(budget),
        "suites": [asdict(report) for report in reports],
    }
    return json.dumps(payload, indent=2) + "\n"
