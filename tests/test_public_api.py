"""Names that the README and the benchmark tracer rely on stay in step with the package."""

import importlib
import importlib.util
import pkgutil
import re
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
