"""Tests for the cross-model validation suites.

Beyond the green path, these pin the two properties that make the
suites trustworthy: a computation that does not fit the budget is
surfaced as ``skipped`` (never as a silent pass), and an injected
physics fault is caught *and named* — the failing check points at the
worst-disagreeing moment entry instead of merely flipping a flag.
"""

import json

import numpy as np
import pytest

import entrep.arrays
import entrep.liouville
import entrep.spins
import entrep.validate
from entrep.spins import FockSteadyState
from entrep.validate import (
    SUITE_NAMES,
    CheckResult,
    SuiteReport,
    _worst_entry,
    report_to_json,
    run_all,
    run_suite,
)


class TestReportPlumbing:
    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("vibes")

    def test_json_report_round_trips(self):
        reports = (
            SuiteReport(
                suite="fixed-point",
                status="passed",
                checks=(CheckResult(name="c", status="passed", value=0.0, threshold=1e-7),),
            ),
        )
        payload = json.loads(report_to_json(reports, budget=42))
        assert payload["budget"] == 42
        assert payload["suites"][0]["suite"] == "fixed-point"
        assert payload["suites"][0]["checks"][0]["threshold"] == 1e-7


class TestBudgetGating:
    def test_oversized_suites_are_skipped_not_passed(self):
        statuses = {r.suite: r.status for r in run_all(budget=1000)}
        assert statuses["gaussian-vs-fock"] == "skipped"
        assert statuses["effective-vs-full"] == "skipped"
        # the small chain instances still fit and still verify something
        assert statuses["closed-form-vs-general"] == "passed"
        assert statuses["fixed-point"] == "passed"

    def test_skip_reason_names_the_size_and_budget(self):
        report = run_suite("effective-vs-full", budget=1000)
        assert report.status == "skipped"
        # the cutoff-8 model with its spins, the suite's first size
        assert "104976" in report.reason and "1000" in report.reason

    def test_over_budget_oracle_suites_skip_before_any_solve(self, monkeypatch):
        def refuse(liouvillian):
            raise AssertionError("solve started")

        monkeypatch.setattr(entrep.spins, "steady_state_dm", refuse)
        # at 30,000 the cutoff-12 model (side 28,561) fits but its recheck at
        # 14 does not, and a model without spins has no field-only recheck
        for name, budget, side in (
            ("gaussian-vs-fock", 1000, 28561),
            ("effective-vs-full", 1000, 104976),
            ("gaussian-vs-fock", 30_000, 50625),
        ):
            report = run_suite(name, budget=budget)
            assert report.status == "skipped"
            assert f"side {side} (charge-diagonal block side" in report.reason

    def test_partial_skips_inside_a_suite(self):
        report = run_suite("fixed-point", budget=300)
        assert report.status == "passed"
        skipped = [c for c in report.checks if c.status == "skipped"]
        assert skipped and all("4096" in c.detail for c in skipped)

    def test_everything_skipped_collapses_the_suite(self):
        report = run_suite("fixed-point", budget=10)
        assert report.status == "skipped"


class TestWorstEntry:
    def test_first_of_two_tied_entries_in_row_major_order_is_named(self):
        ref = np.zeros((4, 4))
        got = np.zeros((4, 4))
        got[0, 2] = 2.446e-05
        # the mirror entry is larger only by round-off
        got[1, 3] = 2.446e-05 * (1.0 + 1e-12)
        value, detail = _worst_entry(got, ref)
        assert detail.startswith("worst moment entry [0,2]:")
        assert value == got[0, 2]
        # a real gap is not a tie
        got[1, 3] = 2.446e-05 * (1.0 + 1e-6)
        assert _worst_entry(got, ref)[1].startswith("worst moment entry [1,3]:")


class TestSuitesPass:
    def test_fast_suites_pass_with_default_budget(self):
        for name in ("closed-form-vs-general", "fixed-point"):
            report = run_suite(name)
            assert report.status == "passed", report

    def test_alternative_layout_is_reported_with_an_order_one_gap(self):
        report = run_suite("closed-form-vs-general")
        (alt,) = [c for c in report.checks if c.status == "reported"]
        assert alt.name == "alternative-block-layout-gap"
        assert 0.01 <= alt.value <= 10.0
        assert report.status == "passed"  # reported entries never gate

    def test_gaussian_vs_fock_passes(self):
        report = run_suite("gaussian-vs-fock")
        assert report.status == "passed"
        by_name = {c.name: c for c in report.checks}
        assert by_name["moment-agreement-nmax12"].value <= 1e-3
        assert by_name["truncation-error-monotone"].status == "passed"

    def test_effective_vs_full_passes(self):
        report = run_suite("effective-vs-full")
        assert report.status == "passed"
        assert all(c.value <= 1e-2 for c in report.checks)
        # the recheck compares field moments: the spin state is not certified
        phrase = "only the field moments certify that cutoff, not the spin state"
        assert all(phrase in c.detail for c in report.checks)

    def test_every_oracle_result_passes_its_certificate(self, monkeypatch):
        results = []
        oracle = entrep.validate.full_cavity_atom_oracle

        def spy(cfg, n_max, **options):
            result = oracle(cfg, n_max, **options)
            results.append((cfg, result))
            return result

        monkeypatch.setattr(entrep.validate, "full_cavity_atom_oracle", spy)
        for name in ("gaussian-vs-fock", "effective-vs-full"):
            report = run_suite(name)
            assert report.status == "passed"
            assert all("certified by the" in c.detail for c in report.checks)
        assert len(results) == 4
        for cfg, result in results:
            assert result.check_mode in ("full", "field")
            assert 0.0 <= result.check_shift <= 1e-3 * max(1.0, cfg.nbar)


class TestSpinSuitesSolveThroughTheFigureSweeps:
    """The spin suites run the drive sweeps that write fig3b and fig3c."""

    @pytest.fixture
    def routes(self, monkeypatch):
        sweeps, splits = [], []
        sweep, split = entrep.spins.steady_state_sweep, entrep.spins.drive_split

        def sweep_spy(free, per_mbar, mbars):
            sweeps.append(per_mbar is not None)
            return sweep(free, per_mbar, mbars)

        def split_spy(cfg):
            splits.append(cfg)
            return split(cfg)

        def refuse(*args):
            raise AssertionError("a one-point solve started")

        def oracle(cfg, n_max, **options):
            # a stand-in for the Fock oracle, whose own solves are one-point
            return FockSteadyState(np.eye(4) / 4, np.eye(4), np.eye(4) / 4, "full", 0.0)

        monkeypatch.setattr(entrep.spins, "steady_state_sweep", sweep_spy)
        monkeypatch.setattr(entrep.spins, "drive_split", split_spy)
        # steady_state_dm, under whichever name, solves through this one
        monkeypatch.setattr(entrep.liouville, "steady_state_sweep", refuse)
        monkeypatch.setattr(entrep.validate, "full_cavity_atom_oracle", oracle)
        return sweeps, splits

    def test_fixed_point_solves_each_case_as_a_sweep_point(self, routes):
        sweeps, splits = routes
        report = run_suite("fixed-point")
        assert report.status == "passed"
        assert sweeps == [True] * 6 and splits == []

    def test_effective_vs_full_solves_both_drives_on_one_field_split(self, routes):
        sweeps, splits = routes
        report = run_suite("effective-vs-full")
        names = [c.name for c in report.checks]
        assert names == ["spin-trace-distance-mbar-1.2000", "spin-trace-distance-mbar-1.4142"]
        assert sweeps == [True] and len(splits) == 1


class TestFaultInjection:
    def test_biased_moment_solve_is_caught_and_the_moment_is_named(self, monkeypatch):
        true_solve = entrep.arrays.solve_rank_one_sylvester

        def biased(a, b, source):
            # 2% low on every moment: still physical, so only the
            # comparison with the Fock oracle can catch it
            return 0.98 * true_solve(a, b, source)

        monkeypatch.setattr(entrep.arrays, "solve_rank_one_sylvester", biased)
        report = run_suite("gaussian-vs-fock")
        assert report.status == "failed"
        failing = [c for c in report.checks if c.status == "failed"]
        assert failing, report
        agreement = next(c for c in failing if c.name.startswith("moment-agreement"))
        assert "worst moment entry [" in agreement.detail
        assert "fock=" in agreement.detail and "gaussian=" in agreement.detail

    def test_unexpected_model_error_becomes_a_failed_report(self, monkeypatch):
        def broken(drift):
            from entrep.errors import NotHurwitz

            raise NotHurwitz("contrived instability")

        monkeypatch.setattr(entrep.arrays, "schur_form", broken)
        report = run_suite("gaussian-vs-fock")
        assert report.status == "failed"
        assert report.checks[0].name == "suite-execution"
        assert "NotHurwitz" in report.checks[0].detail

    def test_suite_names_cover_the_registry(self):
        assert set(SUITE_NAMES) == {
            "gaussian-vs-fock",
            "effective-vs-full",
            "closed-form-vs-general",
            "fixed-point",
        }
