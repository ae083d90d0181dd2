"""Tests for the experiment registry, parameter handling, and dataset writer.

Datasets must be byte-reproducible for a fixed seed (independent of the
worker count), atomically written (no partial files after a failure),
and serialized in the pinned CSV dialect: comma separator, ``.`` decimal
point, 12 significant digits, one header row, plus a flat key-value
manifest restating every parameter that produced the table.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import entrep.liouville
import entrep.spins
from entrep import experiments
from entrep.arrays import ArrayConfig, pair_entanglement_profile
from entrep.errors import ConfigInvalid, ExperimentFailed, ModelError, NoConvergence
from entrep.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    manifest_path_for,
    read_config_file,
    resolve_params,
    run_experiment,
)

CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2}$")


class SerialPool:
    """In-process stand-in for ProcessPoolExecutor; records each pool's size and jobs."""

    pools = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, jobs):
        jobs = list(jobs)
        self.pools.append((self.max_workers, jobs))
        return map(fn, jobs)


def tiny_run(tmp_path: Path, name="smoke.csv", **kwargs) -> ExperimentConfig:
    defaults = dict(
        experiment="fig2b",
        overrides={"n_sites_max": 2, "kappa": 0.05},
        out=tmp_path / name,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestRegistry:
    def test_every_experiment_is_fully_described(self):
        assert len(EXPERIMENTS) >= 11
        for name, exp in EXPERIMENTS.items():
            assert exp.name == name
            assert exp.defaults
            assert exp.columns[0] == exp.sweep_key
            assert len(set(exp.columns)) == len(exp.columns)

    def test_figure_experiments_exist(self):
        for name in ("fig2a", "fig2b", "fig2c", "fig2d", "fig2e",
                     "fig3a", "fig3b", "fig3c", "fig5a", "fig5b", "custom"):
            assert name in EXPERIMENTS


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalid, match="unknown experiment"):
            ExperimentConfig(experiment="fig9z")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigInvalid, match="unknown override keys"):
            ExperimentConfig(experiment="fig2a", overrides={"bogus": 1.0})

    def test_bad_seed_and_workers(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(experiment="fig2a", seed=-1)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(experiment="fig2a", seed=2**64)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(experiment="fig2a", seed=True)
        with pytest.raises(ConfigInvalid):
            ExperimentConfig(experiment="fig2a", workers=0)

    @pytest.mark.parametrize("key", ["seed", "workers"])
    @pytest.mark.parametrize("value", ["abc", "2.5", 1.5, float("nan"), None])
    def test_non_integer_seed_and_workers_rejected(self, key, value):
        # a model error naming the key, never a silent truncation
        with pytest.raises(ModelError, match=f"{key} = .* is not an integer"):
            ExperimentConfig(experiment="fig2a", **{key: value})

    def test_seed_and_workers_are_stored_as_ints(self):
        cfg = ExperimentConfig(experiment="fig3a", seed="18446744073709551615", workers="2")
        assert (cfg.seed, cfg.workers) == (2**64 - 1, 2)
        cfg = ExperimentConfig(experiment="fig3a", seed=3.0, workers=np.int64(2))
        assert type(cfg.seed) is int and type(cfg.workers) is int
        assert (cfg.seed, cfg.workers) == (3, 2)

    def test_overrides_are_coerced_to_the_default_types(self):
        cfg = ExperimentConfig(
            experiment="fig2b", overrides={"n_sites_max": "4", "kappa": "0.2"}
        )
        params = resolve_params(cfg)
        assert params["n_sites_max"] == 4
        assert isinstance(params["n_sites_max"], int)
        assert params["kappa"] == 0.2

    def test_non_integer_for_int_key_rejected(self):
        cfg = ExperimentConfig(experiment="fig2b", overrides={"n_sites_max": "2.5"})
        with pytest.raises(ConfigInvalid, match="n_sites_max"):
            resolve_params(cfg)

    def test_integer_overrides_are_exact(self):
        # 2**53 + 1 has no float64; reading it through float gave 2**53
        cfg = ExperimentConfig(experiment="fig3a", overrides={"samples": "9007199254740993"})
        assert resolve_params(cfg)["samples"] == 2**53 + 1
        cfg = ExperimentConfig(experiment="fig3a", overrides={"samples": 12.0})
        assert type(resolve_params(cfg)["samples"]) is int

    @pytest.mark.parametrize("value", ["2.0000000000000001", "2.0", "1e3", float("inf")])
    def test_integer_override_that_only_rounds_to_an_int_is_refused(self, value):
        cfg = ExperimentConfig(experiment="fig3a", overrides={"samples": value})
        with pytest.raises(ConfigInvalid, match="samples = .* is not an integer"):
            resolve_params(cfg)

    def test_non_numeric_for_float_key_rejected(self):
        cfg = ExperimentConfig(experiment="fig2b", overrides={"kappa": "soft"})
        with pytest.raises(ConfigInvalid, match="kappa"):
            resolve_params(cfg)

    def test_output_path_that_is_its_own_manifest_path_is_refused(self):
        with pytest.raises(ConfigInvalid, match="its own manifest path"):
            ExperimentConfig(experiment="custom", out="runs/d.manifest")

    def test_default_output_path_is_named_after_the_experiment(self):
        assert ExperimentConfig(experiment="fig2c").out_path == Path("fig2c.csv")
        assert manifest_path_for("a/b/fig2c.csv") == Path("a/b/fig2c.manifest")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        doc = tmp_path / "run.cfg"
        doc.write_text(
            "# comment line\n"
            "\n"
            "experiment = fig2b\n"
            "kappa = 0.3   # trailing comment\n",
            encoding="utf-8",
        )
        entries = read_config_file(doc)
        assert entries == {"experiment": "fig2b", "kappa": "0.3"}

    def test_duplicate_key_rejected(self, tmp_path):
        doc = tmp_path / "dup.cfg"
        doc.write_text("kappa = 0.1\nkappa = 0.2\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="dup.cfg:2"):
            read_config_file(doc)

    def test_malformed_line_rejected(self, tmp_path):
        doc = tmp_path / "bad.cfg"
        doc.write_text("kappa 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigInvalid, match="bad.cfg:1"):
            read_config_file(doc)


class TestDatasetWriter:
    def test_csv_and_manifest_contents(self, tmp_path):
        cfg = tiny_run(tmp_path)
        table = run_experiment(cfg)
        lines = (tmp_path / "smoke.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n_sites,pair,e_raw,e_normalized,e_reference"
        assert len(lines) == 1 + len(table.rows) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == str(int(float(cells[0])))  # sweep value is a count
            assert cells[1] in {"1", "2"}
            for cell in cells[2:]:
                assert CELL.match(cell), cell
        manifest = dict(
            line.split(" = ", 1)
            for line in (tmp_path / "smoke.manifest").read_text().splitlines()
        )
        assert manifest["experiment"] == "fig2b"
        assert manifest["seed"] == "0"
        assert manifest["kappa"] == "0.05"
        assert set(manifest) == {"experiment", "seed"} | set(
            resolve_params(cfg)
        )

    def test_rows_are_sorted_by_sweep_value_then_pair(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig2a",
            overrides={"n_sites": 2, "kappa_levels": "0.1,0.0"},
            out=tmp_path / "order.csv",
        )
        table = run_experiment(cfg)
        keys = [(row[0], row[1]) for row in table.rows]
        assert keys == sorted(keys) == [(0.0, 1), (0.0, 2), (0.1, 1), (0.1, 2)]

    def test_identical_bytes_for_fixed_seed_regardless_of_workers(self, tmp_path):
        paths = []
        for workers, name in ((1, "serial"), (2, "pool")):
            cfg = ExperimentConfig(
                experiment="fig3a",
                overrides={
                    "n_sites": 3,
                    "samples": 6,
                    "delta_levels": "0.0,0.2,0.4",
                },
                out=tmp_path / f"{name}.csv",
                seed=11,
                workers=workers,
            )
            run_experiment(cfg)
            paths.append(cfg.out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_matters_for_sampled_experiments(self, tmp_path):
        tables = []
        for seed in (1, 2):
            cfg = ExperimentConfig(
                experiment="fig3a",
                overrides={"n_sites": 3, "samples": 4, "delta_levels": "0.5"},
                out=tmp_path / f"seed{seed}.csv",
                seed=seed,
            )
            tables.append(run_experiment(cfg))
        assert tables[0].rows != tables[1].rows

    def test_sweep_workers_give_identical_bytes(self, tmp_path):
        outs = []
        for workers in (1, 2):
            cfg = tiny_run(tmp_path, name=f"w{workers}.csv", workers=workers)
            run_experiment(cfg)
            outs.append(cfg.out_path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "experiment,overrides",
        [
            ("fig3c", {"n_sites": 3, "grid_points": 5}),
            ("fig3b", {"n_sites": 3, "grid_points": 5}),
            # each chain length is a point, and the cost grows with it
            ("fig2b", {}),
        ],
        ids=["fig3c", "fig3b", "fig2b"],
    )
    def test_spin_sweep_workers_give_identical_bytes(self, tmp_path, experiment, overrides):
        # uneven chunks at 2 and 3 workers
        outs = []
        for workers in (1, 2, 3):
            cfg = ExperimentConfig(
                experiment=experiment,
                overrides=overrides,
                out=tmp_path / f"{experiment}-w{workers}.csv",
                workers=workers,
            )
            run_experiment(cfg)
            outs.append(cfg.out_path.read_bytes() + manifest_path_for(cfg.out_path).read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_the_first_failing_point_in_the_sweep_is_named_at_any_worker_count(
        self, tmp_path, monkeypatch
    ):
        # points 1 and 2 fail; dealt to 2 chunks, point 2 leads chunk 0's
        # failures and point 1 chunk 1's, and point 1 must be named
        overrides = {"n_sites": 2, "grid_points": 5}
        values = EXPERIMENTS["fig3c"].sweep(
            resolve_params(ExperimentConfig("fig3c", overrides=overrides))
        )
        refused = set(values[1:3])
        sweep = entrep.spins.steady_state_sweep

        def refusing(free, per_mbar, mbars):
            def checked():
                for mbar in mbars:
                    if mbar in refused:
                        raise NoConvergence(f"refused mbar {mbar}")
                    yield mbar

            return sweep(free, per_mbar, checked())

        monkeypatch.setattr(entrep.spins, "steady_state_sweep", refusing)
        message = re.escape(f"fig3c: sweep point mbar={values[1]!r} failed (NoConvergence: ")
        for workers in (1, 2, 3):
            cfg = ExperimentConfig(
                experiment="fig3c", overrides=overrides, out=tmp_path / "x.csv", workers=workers
            )
            with pytest.raises(ExperimentFailed, match=message):
                run_experiment(cfg)
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "experiment,assembler", [("fig3c", entrep.liouville), ("fig3b", entrep.spins)]
    )
    def test_a_chunk_assembles_its_parts_once_and_factors_each_point(
        self, tmp_path, monkeypatch, experiment, assembler
    ):
        calls = []
        for module, name in ((assembler, "quadratic_superop"), (entrep.liouville, "_factor")):
            original = getattr(module, name)

            def spy(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, spy)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        for workers in (1, 2):
            calls.clear()
            cfg = ExperimentConfig(
                experiment=experiment,
                overrides={"n_sites": 2, "grid_points": 5},
                out=tmp_path / f"w{workers}.csv",
                workers=workers,
            )
            run_experiment(cfg)
            assert calls.count("quadratic_superop") == 2 * workers
            assert calls.count("_factor") == 2 * 5

    def test_failing_point_is_named_and_nothing_is_written(self, tmp_path):
        cases = [
            ("custom", {"nbar": 0.0, "mbar": 3.0}, r"custom: sweep point point=0\.0"),
            # disorder wider than the hopping rate fails at the second level
            ("fig3a", {"delta_levels": "0.0,1.5"}, r"fig3a: sweep point delta_xi=1\.5"),
            # fig5b sweeps omega inside its one point, which is kappa_end
            ("fig5b", {"kappa_end": 0.0}, r"fig5b: sweep point kappa_end=0\.0 failed \(ClosedPort"),
        ]
        for experiment, overrides, message in cases:
            cfg = ExperimentConfig(
                experiment=experiment, overrides=overrides, out=tmp_path / "broken.csv"
            )
            with pytest.raises(ExperimentFailed, match=message):
                run_experiment(cfg)
            assert not cfg.out_path.exists()
            assert not manifest_path_for(cfg.out_path).exists()

    def test_grid_validation_failures(self, tmp_path):
        bad = [
            ("fig2d", {"grid_points": 1}),
            ("fig2d", {"mbar_min": 1.5, "mbar_max": 1.2}),
            ("fig2d", {"mbar_max": 2.0}),  # beyond the physical bound
            ("fig2c", {"nbar_min": -0.5}),
            ("fig2a", {"kappa_levels": "0.1,oak"}),
            ("fig2a", {"kappa_levels": "0.1,nan"}),
            ("fig2d", {"nbar": "inf"}),
            ("fig3c", {"nbar": -0.5}),
            ("fig2b", {"n_sites_min": 0}),
            ("fig5a", {"grid_points": 2, "omega_points": 0}),
            ("fig5a", {"grid_points": 2, "omega_min": 3.0, "omega_max": -3.0}),
            ("fig5b", {"omega_points": -3}),
            ("fig5b", {"omega_points": 0}),
        ]
        for experiment, overrides in bad:
            cfg = ExperimentConfig(
                experiment=experiment, overrides=overrides, out=tmp_path / "x.csv"
            )
            with pytest.raises(ConfigInvalid):
                run_experiment(cfg)
            assert not (tmp_path / "x.csv").exists()

    def test_lossless_rows_hit_the_replication_value(self, tmp_path):
        # with no losses every pair reproduces the drive: normalized
        # E/(1+E) = 0.7178 to four figures, identically across pairs
        cfg = ExperimentConfig(experiment="fig2a", out=tmp_path / "fig2a.csv")
        table = run_experiment(cfg)
        lossless = [row for row in table.rows if row[0] == 0.0]
        assert len(lossless) == 20
        for row in lossless:
            assert row[3] == pytest.approx(0.7177618087431478, abs=1e-12)
            assert round(row[3], 4) == 0.7178

    def test_pool_gets_no_more_workers_than_jobs(self, tmp_path, monkeypatch):
        # the pool forks every worker up front, so an idle one is a wasted
        # fork: it gets one chunk of points per worker, and no more workers
        # than points
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        SerialPool.pools.clear()
        serial = run_experiment(tiny_run(tmp_path, name="serial.csv"))
        cfg = tiny_run(tmp_path, name="wide.csv", workers=64)
        values = EXPERIMENTS[cfg.experiment].sweep(resolve_params(cfg))
        n_points = len(values)
        assert 1 < n_points < 64
        assert run_experiment(cfg).rows == serial.rows
        # one chunk per worker, the points dealt round-robin
        ((workers, jobs),) = SerialPool.pools
        assert workers == n_points
        assert [job[4] for job in jobs] == [values[w::n_points] for w in range(n_points)]
        cfg = tiny_run(tmp_path, name="two.csv", overrides={"n_sites_max": 5}, workers=2)
        run_experiment(cfg)
        assert [job[4] for job in SerialPool.pools[-1][1]] == [[1, 3, 5], [2, 4]]
        # one point runs in the caller's process
        run_experiment(ExperimentConfig("custom", out=tmp_path / "one.csv", workers=64))
        assert len(SerialPool.pools) == 2

    def test_one_site_arrays_have_no_bonds_to_disorder(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig3a",
            overrides={"n_sites": 1, "samples": 5, "delta_levels": "0.0,0.5,3.0"},
            out=tmp_path / "one-pair.csv",
        )
        table = run_experiment(cfg)
        base = ArrayConfig.homogeneous(1, kappa=0.02, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        profile = pair_entanglement_profile(base)
        assert [row[:2] for row in table.rows] == [(0.0, 1), (0.5, 1), (3.0, 1)]
        for row in table.rows:
            norm = profile.normalized[0]
            assert row[2:] == (profile.raw[0], norm, profile.drive_raw, norm, norm, 0.0)

    def test_spin_pairs_vanish_at_thermal_cross_correlation(self, tmp_path):
        # XX-chain sweep: at mbar = nbar = 1 the drive is unentangled and
        # so are the pairs; at the physical bound they are maximal
        cfg = ExperimentConfig(
            experiment="fig3c",
            overrides={"grid_points": 3},
            out=tmp_path / "fig3c.csv",
        )
        table = run_experiment(cfg)
        first = [row for row in table.rows if row[0] == 1.0]
        last = [row for row in table.rows if row[0] == table.rows[-1][0]]
        assert len(first) == len(last) == 3
        assert all(row[2] == 0.0 for row in first)
        assert all(row[2] > 0.9 for row in last)

    def test_zero_width_disorder_column_is_the_homogeneous_profile(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="fig3a",
            overrides={"n_sites": 4, "samples": 12, "delta_levels": "0.0"},
            out=tmp_path / "flat.csv",
        )
        table = run_experiment(cfg)
        base = ArrayConfig.homogeneous(4, kappa=0.02, zeta=1.0, nbar=1.0, mbar=np.sqrt(2.0))
        profile = pair_entanglement_profile(base)
        for row, raw, norm in zip(table.rows, profile.raw, profile.normalized):
            assert row[2] == raw and row[3] == norm


def test_run_all_figures_writes_the_run_experiment_bytes(tmp_path, capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_figures.py"
    spec = importlib.util.spec_from_file_location("run_all_figures", script)
    run_all_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all_figures)
    outdir = tmp_path / "script"
    assert run_all_figures.main(["--only", "fig2a", "fig3c", "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "done: 2 datasets" in out
    # the timings carry the BLAS thread settings they were taken under
    threads = out.splitlines()[-1].split()
    assert threads[0] == "threads:"
    assert [pair.split("=")[0] for pair in threads[1:]] == list(run_all_figures.THREAD_SETTINGS)
    for name in ("fig2a", "fig3c"):
        cfg = ExperimentConfig(experiment=name, out=tmp_path / f"{name}.csv")
        run_experiment(cfg)
        for path in (cfg.out_path, manifest_path_for(cfg.out_path)):
            assert (outdir / path.name).read_bytes() == path.read_bytes()
