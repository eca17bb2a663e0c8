"""The CLI process ends through `cli.entry`: it flushes stdout and stderr
after `main` returns and exits with `os._exit`, skipping the interpreter's
teardown. Every check runs the CLI in a fresh process.

A stdout whose reader is gone must fail as one `ERROR` line and exit 2,
whether the failing write happens in `main` (unbuffered) or in the final
flush (buffered), and a usage error still leaves through the normal exit.
"""

import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexprep

from .conftest import doc_record, write_jsonl
from .lang_snippets import ES_SNIPPETS

BROKEN_PIPE = f"ERROR [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"


def _env(unbuffered: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": str(Path(lexprep.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _lexprep(*argv, stdout=subprocess.PIPE, unbuffered=False, code=None, preexec_fn=None):
    """Run the CLI (or `code` in its place) with the given stdout."""
    head = ["-c", code] if code else ["-m", "lexprep.cli"]
    return subprocess.run(
        [sys.executable, *head, *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=_env(unbuffered),
        preexec_fn=preexec_fn,
        timeout=120,
    )


@pytest.fixture()
def corpus(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:3])])
    return path


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_without_reader_is_one_error_line(corpus, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _lexprep("stats", corpus, stdout=write_end, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr.decode().splitlines() == [BROKEN_PIPE]


@pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
def test_a_closed_stream_is_not_flushed(corpus, tmp_path, closed):
    # The interpreter sets `sys.stdout` or `sys.stderr` to None for a closed
    # descriptor; the command still succeeds, as it did before the hard exit.
    result = _lexprep("stats", corpus, preexec_fn=lambda: os.close(closed))
    assert result.returncode == 0
    if closed == 2:
        assert json.loads(result.stdout)["document_count"] == 3
        return
    assert result.stderr == b""
    # Every command's result leaves through `main`'s one `print`, which
    # writes nothing to a closed stdout, whatever the result's form.
    curves = tmp_path / "curves.csv"
    curves.write_text("model,epoch,f1\nm,0,0.5\nm,10,0.7\n", encoding="utf-8")
    for argv in (
        ("lr-curve", "--total-steps", 10),
        ("eval", "--curves", curves, "--format", "csv"),
        ("eval", "--curves", curves),
    ):
        result = _lexprep(*argv, preexec_fn=lambda: os.close(closed))
        assert (result.returncode, result.stderr) == (0, b""), argv


def test_a_usage_error_still_exits_1_with_the_usage(corpus):
    result = _lexprep("--bogus", "stats", corpus)
    assert result.returncode == 1
    stderr = result.stderr.decode()
    assert stderr.startswith("usage: lexprep ")
    assert stderr.endswith("lexprep: error: unrecognized arguments: --bogus\n")
    assert result.stdout == b""


def test_piped_stdout_is_complete(corpus, tmp_path):
    manifest = tmp_path / "run.json"
    stages = ["filter-lang", "clean", "chunk", "mask"]
    record = {"input_path": str(corpus), "output_dir": str(tmp_path / "out"), "stages": stages}
    manifest.write_text(json.dumps(record), encoding="utf-8")
    result = _lexprep("run", manifest)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stderr == b""
    summary = json.loads(result.stdout)
    assert [report["name"] for report in summary["stages"]] == stages
    # Larger than a pipe's buffer; the flush after `main` writes its tail.
    result = _lexprep("lr-curve", "--total-steps", 100_000, "--resolution", 20_000)
    assert result.returncode == 0, result.stderr.decode()
    lines = result.stdout.decode().splitlines()
    assert len(result.stdout) > 65_536 and lines[0] == "step,lr" and len(lines) == 20_001


def test_the_process_skips_teardown(corpus):
    # An `atexit` hook runs only in the interpreter's teardown.
    code = (
        "import atexit, sys\n"
        "atexit.register(print, 'teardown ran')\n"
        "sys.argv[0] = 'lexprep'\n"
        "from lexprep.cli import entry\n"
        "entry()\n"
    )
    result = _lexprep("stats", corpus, code=code)
    assert result.returncode == 0, result.stderr.decode()
    assert json.loads(result.stdout)["document_count"] == 3
    assert b"teardown ran" not in result.stdout
