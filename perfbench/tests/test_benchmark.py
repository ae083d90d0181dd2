"""Smoke runs of every workload, and the correctness gate on altered outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_runner_and_child_name_the_same_workloads():
    import run

    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert set(run.FROZEN_PASS_S) == set(run.WORKLOADS)


@pytest.mark.parametrize(("program", "root"), [("current", "src"), ("frozen", "perfbench/frozen")])
def test_each_program_imports_its_own_copy_of_the_package(program, root):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--setup-only", "--program", program],
        capture_output=True, text=True, timeout=170, check=True,
    )
    package = Path(json.loads(proc.stdout.splitlines()[-1])["package"])
    assert package == BENCH.parent / root / "entrep"


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = _run(workload, 1)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    if workload == "cavity":
        assert metrics["liouville.steady_state_dm.calls"] == 0
        assert metrics["arrays.disorder_sweep.calls"] > 0
    if workload == "spectra":
        assert metrics["output.output_covariance.calls"] > 0
    else:
        assert metrics["output.output_covariance.calls"] == 0
    if workload == "validation":
        assert metrics["validate.run_suite.calls"] == 4


def _rewrite(src, dst, row, column, scale):
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    col = header.index(column)
    cells[col] = f"{float(cells[col]) * scale:.11e}"
    lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize(
    ("key", "row", "scale", "misses"),
    [
        ("fig2b", 40, 1 + 1e-11, False),
        ("fig2b", 40, 1 + 1e-7, True),
        ("fig3c", 15, 1 + 1e-7, False),  # spin columns carry the Arnoldi error
        ("fig3c", 15, 1 + 1e-4, True),
    ],
)
def test_reference_gate_uses_the_stated_tolerance(tmp_path, key, row, scale, misses):
    ds = next(op for ops in workloads.WORKLOADS.values() for op in ops if op.key == key)
    altered = _rewrite(workloads.REFERENCE_DIR / f"{key}.csv", tmp_path / "x.csv", row, "e_raw", scale)
    assert bool(workloads.check_dataset(ds, altered, 0, use_reference=True)) == misses


def test_other_seeds_check_fig3a_invariants(tmp_path):
    ds = workloads.WORKLOADS["cavity"][0]
    ref = workloads.REFERENCE_DIR / "fig3a.csv"
    # row 1 is delta_xi=0, pair 1; a disordered row may differ from the reference freely
    assert workloads.check_dataset(ds, _rewrite(ref, tmp_path / "a.csv", 15, "e_raw", 0.5), 9, True) == []
    assert workloads.check_dataset(ds, _rewrite(ref, tmp_path / "b.csv", 15, "e_raw", 0.5), 0, True)
    assert workloads.check_dataset(ds, _rewrite(ref, tmp_path / "c.csv", 1, "e_raw", 1.001), 9, True)
    assert workloads.check_dataset(ds, _rewrite(ref, tmp_path / "d.csv", 15, "e_normalized", 1e9), 9, True)


def test_validation_gate_flags_a_changed_status():
    reference = json.loads((workloads.REFERENCE_DIR / "validation.json").read_text())

    class Check:
        def __init__(self, entry, **change):
            self.__dict__.update(entry, **change)

    class Report:
        def __init__(self, entry, checks):
            self.suite, self.status, self.checks = entry["suite"], entry["status"], checks

    reports = [Report(s, [Check(c) for c in s["checks"]]) for s in reference]
    attempted, failed, _ = workloads.check_validation(reports, use_reference=True)
    assert (attempted, failed) == (sum(len(s["checks"]) for s in reference), 0)
    first = reference[0]["checks"][0]
    reports[0].checks[0] = Check(first, status="failed")
    assert workloads.check_validation(reports, use_reference=True)[1] == 1
