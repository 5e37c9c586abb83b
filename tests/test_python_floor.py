"""The package must parse under the oldest Python that ``pyproject.toml``
declares in ``requires-python``, whatever interpreter runs the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_declared_python_floor():
    floor = declared_floor()
    assert floor == (3, 10)
    sources = sorted((ROOT / "src" / "trustsim").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)

