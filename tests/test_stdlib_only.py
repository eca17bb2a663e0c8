"""The runtime stays pure stdlib, and every command runs in one process.

`orjson` and `numpy` may be installed where the tests run, so an accidental
import of either would pass every other test; this one reads the imports.
"""

import ast
import sys
from pathlib import Path

import pytest

import lexprep

PACKAGE = Path(lexprep.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
# CPython 3.12 merged the built-in `_sha256` into `_sha2`, so each
# interpreter lists only one of the two names that `masking` tries in turn.
BUILTIN_SHA256 = {"_sha256", "_sha2"}


def _imported_modules(path: Path) -> set[str]:
    """The top-level names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_import_is_stdlib_or_lexprep():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names | BUILTIN_SHA256
        and name != "lexprep"
    }
    assert outside == set()


def test_no_module_starts_or_feeds_a_worker_process():
    """Every command is one in-process pass; no module imports a pool."""
    pooling = {"concurrent", "multiprocessing", "pickle"}
    found = {
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _imported_modules(path) & pooling
    }
    assert found == set()


def test_no_module_imports_dataclasses():
    """Value types are plain `__slots__` classes (`values.py`): importing
    `dataclasses` also loads `inspect` and `ast` in every process."""
    found = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in _imported_modules(path)
    }
    assert found == set()


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(PYPROJECT, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
