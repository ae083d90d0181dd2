"""Tests for the command-line interface.

``main`` is exercised in-process: exit code 0 on success, 1 when a
validation suite fails, 2 on bad input or model errors, with diagnostics
on stderr and data (CSV paths or the JSON report) on stdout.
"""

import json

import numpy as np
import pytest

import entrep.validate
from entrep.cli import main
from entrep.validate import SuiteReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_minimal_run(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        code, stdout, _ = run_cli(capsys, "run", "--experiment", "custom", "--out", str(out))
        assert code == 0
        assert f"wrote {out}" in stdout and "2 rows" in stdout
        assert out.exists() and out.with_suffix(".manifest").exists()

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(
            "experiment = fig2b\nn_sites_max = 2\nkappa = 0.1\nseed = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "job.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--config", str(cfg), "--out", str(out),
            "--set", "kappa=0.25",
        )
        assert code == 0
        manifest = out.with_suffix(".manifest").read_text(encoding="utf-8")
        assert "kappa = 0.25" in manifest  # --set beats the config file
        assert "seed = 3" in manifest  # reserved keys work from the file

    def test_conflicting_experiment_names(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("experiment = fig2a\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "fig2b", "--config", str(cfg)
        )
        assert code == 2
        assert "conflicts" in stderr

    @pytest.mark.parametrize("entry", ["seed = abc", "workers = two"])
    def test_non_integer_run_key_in_config_file_exits_2(self, tmp_path, capsys, entry):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"experiment = custom\n{entry}\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert entry.split()[0] in stderr and "not an integer" in stderr

    def test_over_precise_integer_override_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fig3a.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "fig3a", "--set", "samples=2.0000000000000001",
            "--out", str(out),
        )
        assert code == 2
        assert "samples" in stderr and "not an integer" in stderr
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        code, _, stderr = run_cli(capsys, "run", "--config", str(missing))
        assert code == 2
        assert f"cannot read config file {missing}" in stderr

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("experiment = custom\nnbar = 0.5 # \u00b5\n".encode("latin-1"))
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert f"cannot read config file {cfg}" in stderr

    def test_fig2c_refuses_a_cross_correlation_rule_it_does_not_apply(self, tmp_path, capsys):
        out = tmp_path / "fig2c.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "fig2c", "--set", "mbar_rule=0", "--out", str(out)
        )
        assert code == 2
        assert "mbar_rule" in stderr
        assert not out.exists() and not out.with_suffix(".manifest").exists()

    def test_missing_experiment(self, capsys):
        code, _, stderr = run_cli(capsys, "run")
        assert code == 2
        assert "no experiment named" in stderr

    def test_bad_set_syntax(self, capsys):
        code, _, stderr = run_cli(capsys, "run", "--experiment", "custom", "--set", "kappa")
        assert code == 2
        assert "KEY=VALUE" in stderr

    def test_unknown_experiment_is_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--experiment", "fig9z"])

    def test_model_error_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "custom",
            "--set", "mbar=3.0", "--out", str(out),
        )
        assert code == 2
        assert "error:" in stderr and "sweep point" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("nbar", ["1e150", "1e160"])
    def test_a_drive_over_its_bound_at_huge_occupation_exits_2(self, tmp_path, capsys, nbar):
        # 10 to 20 times the bound; nbar (nbar + 1) overflows above 1.3e154
        out = tmp_path / "never.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "fig3c", "--set", "n_sites=1",
            "--set", f"nbar={nbar}", "--set", f"mbar_min={10 * float(nbar)}",
            "--set", f"mbar_max={20 * float(nbar)}", "--set", "grid_points=2",
            "--out", str(out),
        )
        assert code == 2
        assert "exceeds the physical bound" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_negative_end_loss_exits_2_before_any_point(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", "custom",
            "--set", "kappa=0.1", "--set", "nbar=1", "--set", "mbar=1.2",
            "--set", "kappa_end=-0.5", "--out", str(out),
        )
        assert code == 2
        assert "kappa_end must be >= 0" in stderr and "sweep point" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,override",
        [
            ("custom", "kappa=nan"),
            ("custom", "nbar=inf"),
            ("fig3c", "gamma=nan"),
            ("fig5b", "omega_max=inf"),
        ],
    )
    def test_non_finite_override_exits_2(self, tmp_path, capsys, experiment, override):
        out = tmp_path / "never.csv"
        code, _, stderr = run_cli(
            capsys, "run", "--experiment", experiment, "--set", override, "--out", str(out)
        )
        assert code == 2
        assert "finite" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "target,message",
        [
            ("taken", "cannot write"),  # a directory where the CSV should go
            ("plain/x.csv", "cannot write"),  # a file where its directory should be
            ("d.manifest", "is its own manifest path"),  # the manifest would replace the CSV
        ],
    )
    def test_unwritable_out_exits_2_and_writes_nothing(self, tmp_path, capsys, target, message):
        (tmp_path / "taken").mkdir()
        (tmp_path / "plain").write_text("", encoding="utf-8")
        code, stdout, stderr = run_cli(
            capsys, "run", "--experiment", "custom", "--out", str(tmp_path / target)
        )
        assert code == 2 and stdout == ""
        assert message in stderr and str(tmp_path / target) in stderr
        # no CSV, manifest or temporary file is left behind
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["plain", "taken"]

    @pytest.mark.parametrize(
        ("experiment", "overrides", "message"),
        [
            # 2 nbar + 1, the scale of the drive's symplectic eigenvalues, overflows
            ("custom", ["nbar=1e308", "mbar=1e308"], "ConfigInvalid: 2 nbar + 1 must be finite"),
            ("custom", ["zeta=0.5", "nbar=1e308"], "ConfigInvalid: 2 nbar + 1 must be finite"),
            # 2 zeta nbar overflows: the moment source is refused as input
            ("custom", ["zeta=1e300", "nbar=1e10"], "ConfigInvalid: -2 zeta nbar must be finite"),
            # g**2 overflows in the effective model's kernels
            ("fig3b", ["g=1e200"], "ConfigInvalid: g * g must be finite"),
            # damping of order 1 is round-off of a drift of scale 1e200: the
            # Hurwitz refusal names the failing sweep point and that scale
            ("custom", ["eta=1e200", "n_sites=3"], "sweep point"),
            ("fig3a", ["eta=1e200", "samples=3"], "sweep point"),
            # the spin assembly sums the end drive to 4 gamma (nbar + 1)
            ("fig3c", ["gamma=1e308", "grid_points=2"], "ConfigInvalid: 4 rate (nbar + 1)"),
            ("fig3c", ["nbar=8e307", "grid_points=2"], "ConfigInvalid: 4 rate (nbar + 1)"),
            ("fig3c", ["nbar=1e308", "grid_points=2"], "2 nbar + 1 must be finite"),
            # the real basis of the spin solve adds the commutator's two sides
            ("fig3c", ["n_sites=3", "coupling=1e308", "grid_points=2"], "ConfigInvalid: 2 coupling"),
            # the port moments, or the sums the pair negativity forms of them
            ("fig5a", ["nbar=8e307", "grid_points=2"], "ConfigInvalid: port moments overflow"),
            ("fig5b", ["nbar=1e308"], "ConfigInvalid: 2 nbar + 1 must be finite"),
        ],
        ids=[
            "nbar-overflow",
            "drive-nbar-overflow",
            "source-overflow",
            "g-overflow",
            "eta-overflow",
            "eta-overflow-disorder",
            "spin-gamma-overflow",
            "spin-drive-sum-overflow",
            "spin-nbar-overflow",
            "spin-coupling-overflow",
            "peak-nbar-overflow",
            "spectrum-nbar-overflow",
        ],
    )
    def test_overflowing_input_exits_2(self, tmp_path, capsys, experiment, overrides, message):
        out = tmp_path / "x.csv"
        sets = [arg for value in overrides for arg in ("--set", value)]
        code, stdout, stderr = run_cli(
            capsys, "run", "--experiment", experiment, *sets, "--out", str(out)
        )
        assert code == 2 and stdout == ""
        assert message in stderr
        if "eta=1e200" in overrides:
            assert "NotHurwitz" in stderr and "drift with entries up to 1e+200" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "overrides",
        [
            # mbar equals squeezing_bound(1e8) in floating point: both the
            # pairs' and the drive's 2nbar + 1 - 2mbar cancel to zero or below
            ["--experiment", "custom", "--set", "nbar=1e8", "--set", "mbar=100000000.5"],
            # the drive's nu at nbar = 1e9 and mbar = sqrt(nbar (nbar + 1)) is 0
            ["--experiment", "fig2c", "--set", "nbar_max=1e9", "--set", "grid_points=2"],
        ],
        ids=["custom", "fig2c"],
    )
    def test_cancelled_symplectic_eigenvalue_exits_2(self, tmp_path, capsys, overrides):
        # written as inf and nan cells before; now refused, and no file is left
        code, stdout, stderr = run_cli(
            capsys, "run", *overrides, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and stdout == ""
        assert "NonPhysicalResult" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_fig2c_refuses_a_drive_left_with_fewer_than_six_digits(self, tmp_path, capsys):
        # at the pure drive 2 nbar + 1 - 2 mbar keeps about 1.8e-7 relative
        # round-off at nbar = 1e4 and 1.8e-3 at 1e6, where three digits are left
        out = tmp_path / "fig2c.csv"
        code, _, _ = run_cli(
            capsys, "run", "--experiment", "fig2c", "--set", "nbar_max=1e4",
            "--set", "grid_points=2", "--out", str(out),
        )
        assert code == 0
        cells = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.isfinite(cells).all() and cells[-1, 4] > 15.0
        out.unlink()
        out.with_suffix(".manifest").unlink()
        code, stdout, stderr = run_cli(
            capsys, "run", "--experiment", "fig2c", "--set", "nbar_max=1e6",
            "--set", "grid_points=2", "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert "NonPhysicalResult" in stderr and "fewer than six digits" in stderr
        assert list(tmp_path.iterdir()) == []

    def test_huge_occupation_writes_finite_cells(self, tmp_path, capsys):
        # disorder makes the arrays' occupations differ by about 1e184 at
        # nbar = 1e300, whose square overflows; the negativity there is 0
        out = tmp_path / "fig3a.csv"
        code, _, _ = run_cli(
            capsys, "run", "--experiment", "fig3a", "--set", "nbar=1e300",
            "--set", "samples=3", "--out", str(out),
        )
        assert code == 0
        cells = np.loadtxt(out, delimiter=",", skiprows=1)
        assert cells.shape == (30, 8) and np.isfinite(cells).all()

    @pytest.mark.parametrize("taken", ["d.csv", "d.manifest"])
    def test_a_dataset_half_that_cannot_be_placed_leaves_neither_file(
        self, tmp_path, capsys, taken
    ):
        # a directory already holds the CSV's or the manifest's name
        (tmp_path / taken).mkdir()
        code, stdout, stderr = run_cli(
            capsys, "run", "--experiment", "custom", "--out", str(tmp_path / "d.csv")
        )
        assert code == 2 and stdout == ""
        assert f"cannot write {tmp_path / taken}" in stderr
        assert [path.name for path in tmp_path.rglob("*")] == [taken]


class TestValidate:
    def test_single_suite_json(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "validate", "--suite", "fixed-point", "--budget", "300"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["budget"] == 300
        (suite,) = payload["suites"]
        assert suite["suite"] == "fixed-point"
        assert suite["status"] == "passed"

    def test_all_suites_with_tiny_budget_exit_zero(self, capsys):
        code, stdout, _ = run_cli(capsys, "validate", "--budget", "20")
        assert code == 0
        payload = json.loads(stdout)
        assert {s["suite"] for s in payload["suites"]} == {
            "gaussian-vs-fock",
            "effective-vs-full",
            "closed-form-vs-general",
            "fixed-point",
        }
        assert all(s["status"] in {"passed", "skipped"} for s in payload["suites"])

    def test_failed_suite_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            entrep.validate._SUITES,
            "fixed-point",
            lambda budget: SuiteReport(suite="fixed-point", status="failed"),
        )
        code, stdout, _ = run_cli(capsys, "validate", "--suite", "fixed-point")
        assert code == 1
        assert json.loads(stdout)["suites"][0]["status"] == "failed"

    def test_nonpositive_budget_rejected(self, capsys):
        code, _, stderr = run_cli(capsys, "validate", "--budget", "0")
        assert code == 2
        assert "budget" in stderr
