"""Cross-model validation suites with a machine-readable report.

Each suite compares two independently built routes to the same physics
and reports per-check pass/fail with the measured discrepancy:

``gaussian-vs-fock``
    Second moments of the Gaussian steady state against the truncated
    number-basis oracle, over a ladder of Fock cutoffs.
``effective-vs-full``
    Reduced spin steady state of the full cavity+spin model against the
    adiabatically eliminated spin-only generator.
``closed-form-vs-general``
    The closed-form reduced generator against the general kernel
    construction, plus a recorded diagnostic for the alternative
    quarter-block layout (which preserves trace and Hermiticity but not
    equivalence with the general construction).
``fixed-point``
    The driven XX chains against the analytic replicated pure state at
    maximal drive correlation.

A suite whose solves would exceed the superoperator-side ``budget``
(:func:`entrep.spins.check_size`) is marked ``skipped`` (never silently
passed).  Failures are report entries, not exceptions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .arrays import ArrayConfig, steady_state
from .baselines import replicated_state
from .errors import ConfigInvalid, DimensionBudgetExceeded, ModelError, as_integer
from .liouville import fidelity_pure, gksl_superop, steady_state_dm
from .output import first_peak_index
from .spins import (
    SIDE_BUDGET,
    TruncationSpec,
    _stacked_spin_ops,
    build_effective_closed_form,
    build_effective_general,
    build_xx_liouvillian,
    check_size,
    closed_form_rates,
    coupling_pattern_matrices,
    full_cavity_atom_oracle,
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


def _suite_gaussian_vs_fock(budget: int) -> SuiteReport:
    ladder = (4, 8, 12)
    cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=0.5, mbar=math.sqrt(0.75))
    reference = steady_state(cfg).stacked()
    checks: list[CheckResult] = []
    worst = {}
    # largest cutoff first, so an over-budget ladder is refused before any solve
    for n_max in reversed(ladder):
        trunc = TruncationSpec(n_max=n_max, check="none", side_budget=budget)
        worst[n_max] = _worst_entry(full_cavity_atom_oracle(cfg, trunc).moments, reference)
    errors = [worst[n_max][0] for n_max in ladder]
    err, detail = worst[ladder[-1]]
    checks.append(_gated(f"moment-agreement-nmax{ladder[-1]}", err, 1e-3, detail))
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    checks.append(
        CheckResult(
            name="truncation-error-monotone",
            status="passed" if monotone else "failed",
            value=None,
            threshold=None,
            detail="errors " + " > ".join(f"{e:.3e}" for e in errors),
        )
    )
    return _finish("gaussian-vs-fock", checks)


def _suite_effective_vs_full(budget: int) -> SuiteReport:
    n_max = 6
    trunc = TruncationSpec(n_max=n_max, check="none", side_budget=budget, basis="squeezed")
    checks = []
    for mbar in (1.2, math.sqrt(2.0)):
        cfg = ArrayConfig.homogeneous(1, zeta=1.0, nbar=1.0, mbar=mbar, g=0.01)
        oracle = full_cavity_atom_oracle(cfg, trunc)
        effective = steady_state_dm(build_effective_general(cfg))
        distance = 0.5 * float(np.abs(np.linalg.eigvalsh(oracle.spin_dm - effective)).sum())
        checks.append(
            _gated(
                f"spin-trace-distance-mbar-{mbar:.4f}",
                distance,
                1e-2,
                f"full model truncated at n_max={n_max} in the squeezed basis",
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
    n = n_pairs
    x_big = np.zeros((4 * n, 4 * n), complex)
    y_big = np.zeros((4 * n, 4 * n), complex)
    q1, q2, q3, q4 = (slice(i * n, (i + 1) * n) for i in range(4))
    x_big[q1, q3] = x_big[q2, q4] = (1.0 + nbar) * x_mat
    x_big[q3, q1] = x_big[q4, q2] = -nbar * x_mat
    y_big[q1, q2] = y_big[q2, q1] = mbar * mixed
    y_big[q3, q4] = y_big[q4, q3] = mbar * mixed.conj()
    y_big[q1, q3] = y_big[q2, q4] = (1.0 + nbar) * y_mat
    y_big[q3, q1] = y_big[q4, q2] = nbar * y_mat
    return gksl_superop(
        _stacked_spin_ops(n_pairs), hopping_rate * x_big, damping_rate * y_big.T
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
            mbar = math.sqrt(nbar * (nbar + 1.0))
            liou = build_xx_liouvillian(n_pairs, 1.0, 1.0, nbar, mbar)
            rho = steady_state_dm(liou)
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
