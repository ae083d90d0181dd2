"""Names that the README and the benchmark tracer rely on stay in step with the package."""

import ast
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


def test_readme_quick_start_runs_and_prints_its_comments(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(Python\)\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    values = re.findall(r"\d+\.\d+", capsys.readouterr().out)
    # twenty replicated pairs, the reservoir's own value, then the spin pair
    assert len(values) == 22
    assert all(value.startswith("2.543106") for value in values[:21])
    assert values[21].startswith("0.958144")


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


# An exported name must have a use in src/ or scripts/ outside its own
# top-level definition, or be a function the benchmark tracer wraps: code
# that only tests use lives in tests/.  These exports are queries for
# library users that nothing in src/ calls.
USER_QUERIES = {
    # the effective model's validity ratio; build_effective_general reads
    # the same value off the Schur forms it already holds
    ("spins", "adiabaticity_ratio"),
}


def used_names(tree: ast.Module) -> set[str]:
    """Names each top-level statement of ``tree`` reads or imports, less its own name."""
    used = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def test_every_exported_name_has_a_use_outside_the_tests():
    sources = [*(ROOT / "src" / "entrep").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = set().union(*(used_names(ast.parse(path.read_text("utf-8"))) for path in sources))
    used |= {name for names in tracing.WRAPPED.values() for name in names}
    unused = {
        (module_name.split(".")[1], name)
        for module_name in EXPORTING_MODULES
        for name in importlib.import_module(module_name).__all__
        if name not in used
    }
    assert unused == USER_QUERIES
    # a recursive call is no use, and a call from another definition is
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return h()\n")
    assert used_names(tree) == {"h"}


def exported_members():
    """``(module, class, member)`` of each public property or method of a class in an ``__all__``.

    Stored fields are results and are not listed.
    """
    for module_name in EXPORTING_MODULES:
        module = importlib.import_module(module_name)
        tree = ast.parse(Path(module.__file__).read_text("utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in module.__all__:
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not member.name.startswith("_"):
                            yield module_name.split(".")[1], stmt.name, member.name


def test_every_public_member_of_an_exported_class_has_a_use_outside_the_tests():
    sources = [*(ROOT / "src" / "entrep").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    used = set().union(*(used_names(ast.parse(path.read_text("utf-8"))) for path in sources))
    members = list(exported_members())
    assert ("arrays", "SteadyMoments", "stacked") in members
    assert [member for member in members if member[2] not in used] == []


# Solver certificates are compared with their bounds in one place,
# entrep.errors.certify, which raises the error it is handed; these classes
# may be raised by name only where a refusal is not a value against a bound.
CERTIFICATE_ERRORS = {
    "NotHurwitz",
    "NoConvergence",
    "NonPhysicalResult",
    "DegenerateSteadyState",
    "TruncationUnconverged",
}
NOT_A_BOUND = {
    # splu raises on an exactly singular matrix: there is no value to compare
    ("liouville", "_factor", "DegenerateSteadyState"),
    # symplectic_eigenvalues refused the covariance as not positive definite
    ("gaussian", "solve_lyapunov", "NonPhysicalResult"),
}


def named_raises(tree: ast.AST, scope: str = ""):
    """``(function, class name)`` of every ``raise Name(...)`` or ``raise Name`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from named_raises(node, node.name)
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield scope, exc.id
        yield from named_raises(node, scope)


def test_certificate_errors_are_raised_only_by_the_one_bound_check():
    found = set()
    for path in sorted((ROOT / "src" / "entrep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, name in named_raises(tree):
            if name in CERTIFICATE_ERRORS:
                found.add((path.stem, scope, name))
    assert found == NOT_A_BOUND
    # the walk does see a raise by name inside a function
    sample = ast.parse("def f():\n    if x:\n        raise NotHurwitz('m')\n")
    assert list(named_raises(sample)) == [("f", "NotHurwitz")]


# Real inputs are refused in one place, entrep.errors.as_real; elsewhere a
# finiteness test or a comparison with infinity may only check a value the
# package computed, never one a caller passed in.
COMPUTED_FINITENESS = {
    # negativities come out of a solve
    ("gaussian", "normalized_logneg"),
}


def _is_attribute(node: ast.AST, attr: str, modules: tuple[str, ...]) -> bool:
    """True when ``node`` is ``module.attr`` for one of ``modules``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    )


def finiteness_checks(tree: ast.AST, scope: str = ""):
    """The function of every ``math.isfinite`` call and comparison with ``math.inf``/``np.inf``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from finiteness_checks(node, node.name)
            continue
        if isinstance(node, ast.Call) and _is_attribute(node.func, "isfinite", ("math",)):
            yield scope
        sides = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
        if any(_is_attribute(side, "inf", ("math", "np")) for side in sides):
            yield scope
        yield from finiteness_checks(node, scope)


def test_real_inputs_are_checked_only_by_the_one_rule():
    found = set()
    for path in sorted((ROOT / "src" / "entrep").glob("*.py")):
        if path.stem != "errors":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found |= {(path.stem, scope) for scope in finiteness_checks(tree)}
    assert found == COMPUTED_FINITENESS
    # the walk sees both forms inside a function, and np.isfinite on an array is not one
    sample = ast.parse(
        "def f(x):\n    return 0 < x < np.inf or math.isfinite(x) or np.isfinite(x).all()\n"
    )
    assert list(finiteness_checks(sample)) == ["f", "f"]


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
