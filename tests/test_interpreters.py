"""Every supported interpreter writes the same bytes.

The output contract's corpus is run by `python -m lexprep.cli run` under
each CPython 3.10-3.13 found on PATH or in a pyenv `versions` directory.
Each run must write the recorded stage digests and the `summary.json` of
the interpreter running the tests. An interpreter that is not installed is
skipped by name.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lexprep

from .conftest import write_jsonl
from .test_output_contract import EXPECTED_SHA256, contract_records

SRC = Path(lexprep.__file__).parents[1]
PYENV_ROOT = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
PROBE = "import sys; print(sys.version_info[0], sys.version_info[1], sys.executable)"


def _interpreters(minor: int) -> list[str]:
    """The distinct executables of Python 3.`minor` found here.

    A pyenv shim names a version it may not be able to run, so each
    candidate is asked for its version and its real executable.
    """
    name = f"python3.{minor}"
    installed = PYENV_ROOT.glob(f"versions/*/bin/{name}")
    candidates = [shutil.which(name), *map(str, installed)]
    found: dict[str, str] = {}
    for candidate in filter(None, candidates):
        try:
            probe = subprocess.run(
                [candidate, "-c", PROBE], capture_output=True, text=True, timeout=20
            )
        except OSError:
            continue
        fields = probe.stdout.split(maxsplit=2)
        if probe.returncode == 0 and fields[:2] == ["3", str(minor)]:
            found.setdefault(os.path.realpath(fields[2].strip()), candidate)
    return sorted(found.values())


def _run(python: str, work: Path) -> dict[str, bytes]:
    """Stage files and `summary.json` of one `lexprep run` of the corpus."""
    manifest = {
        "input_path": str(work.parent / "input.jsonl"),
        "output_dir": str(work),
        "stages": ["filter-lang", "clean", "chunk", "mask"],
        "seed": 7,
        "chunk": {"max_tokens": 96},
    }
    manifest_path = work.parent / f"{work.name}.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [python, "-m", "lexprep.cli", "run", str(manifest_path)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    # A warning only one interpreter prints fails here instead of passing unseen.
    assert result.stderr == b"", python
    return {path.name: path.read_bytes() for path in sorted(work.iterdir())}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("interpreters")
    write_jsonl(path / "input.jsonl", contract_records())
    return path


@pytest.fixture(scope="module")
def reference(corpus_dir):
    return _run(sys.executable, corpus_dir / "reference")


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda m: f"3.{m}")
def test_interpreter_writes_the_recorded_bytes(minor, corpus_dir, reference):
    pythons = _interpreters(minor)
    if not pythons:
        pytest.skip(f"python3.{minor} is not installed")
    for i, python in enumerate(pythons):
        files = _run(python, corpus_dir / f"3.{minor}-{i}")
        digests = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in files.items()
            if name != "summary.json"
        }
        assert digests == EXPECTED_SHA256, python
        assert files["summary.json"] == reference["summary.json"], python
