"""The package's top-level names and the README quick start stay in step."""

import re
from pathlib import Path

import entrep

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_imports_are_exported():
    block = re.search(r"from entrep import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block is not None
    names = [name.strip() for name in block.group(1).split(",") if name.strip()]
    assert names
    assert set(names) <= set(entrep.__all__)
    for name in entrep.__all__:
        assert hasattr(entrep, name), name
