"""Names that the README and the benchmark tracer rely on stay in step with the package."""

import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import entrep

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the tracer is loaded by file path, like make_golden.py in test_golden.py
_spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_readme_quick_start_imports_are_exported():
    block = re.search(r"from entrep import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert set(names) <= set(entrep.__all__)
    for name in entrep.__all__:
        assert hasattr(entrep, name), name


EXPORTING_MODULES = sorted(
    module
    for module in (f"entrep.{info.name}" for info in pkgutil.iter_modules(entrep.__path__))
    if hasattr(importlib.import_module(module), "__all__")
)


@pytest.mark.parametrize("module_name", EXPORTING_MODULES)
def test_every_exported_name_resolves(module_name):
    # a deleted function or constant must leave no stale export behind
    module = importlib.import_module(module_name)
    assert module.__all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_name_the_benchmark_tracer_wraps_is_a_callable():
    # a deleted name would otherwise fail only the benchmark's own suite
    assert tracing.FUNCTIONS
    missing = []
    for qualified in tracing.FUNCTIONS:
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"entrep.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(qualified)
    assert missing == []


# a fresh interpreter imports the package and every module under it,
# reports which scipy subpackages came with it, then runs one peak search
# and reports again
_IMPORT_PROBE = """
import importlib, json, pkgutil, sys
import numpy as np
import entrep
for info in pkgutil.iter_modules(entrep.__path__):
    importlib.import_module(f"entrep.{info.name}")
from entrep import arrays, output

def scipy_subpackages():
    return sorted({name.split(".")[1] for name in sys.modules if name.startswith("scipy.")})

on_import = scipy_subpackages()
cfg = arrays.ArrayConfig(
    n_sites=3, eta=(1.0,) * 4, kappa=(0.0, 0.0, 0.4, 0.0, 0.0, 0.4),
    zeta=0.5, nbar=1.0, mbar=np.sqrt(2.0), g=(0.0,) * 3,
)
omega, value = output.peak_frequency(cfg, np.linspace(1.0, 1.8, 9))
print(json.dumps({
    "on_import": on_import,
    "after_peak_search": scipy_subpackages(),
    "peak": [omega.hex(), value.hex()],
}))
"""

# what only the peak search needs: scipy.optimize and what it drags in
PEAK_SEARCH_ONLY = {"optimize", "special", "fft", "spatial"}


def run_probe(prelude: str = "") -> dict:
    env = dict(os.environ)
    src = str(Path(entrep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", prelude + _IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def import_probe():
    return run_probe()


@pytest.fixture(scope="module")
def eager_probe():
    # the same probe with scipy.optimize loaded before the package
    return run_probe("import scipy.optimize\n")


def test_importing_the_package_loads_no_optimizer(import_probe):
    loaded = set(import_probe["on_import"])
    assert PEAK_SEARCH_ONLY.isdisjoint(loaded)
    # private helpers and the version module come with scipy itself
    assert {name for name in loaded if not name.startswith("_")} - {"version"} == {
        "linalg",
        "sparse",
    }


def test_the_peak_search_loads_the_optimizer_and_keeps_its_result(import_probe, eager_probe):
    assert "optimize" in import_probe["after_peak_search"]
    assert "optimize" in eager_probe["on_import"]
    # loading the optimizer with the search changes no bit of its result
    assert import_probe["peak"] == eager_probe["peak"]
