"""The sources parse as Python 3.10, the floor that pyproject.toml declares
(requires-python >= 3.10), although the tests run on a newer interpreter."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "flowpose").glob("*.py"), *(ROOT / "flowbench").rglob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
