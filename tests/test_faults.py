"""Fault injection over a small four-stage `lexprep run`.

For every k, the k-th stage call, the k-th write or the k-th rename fails.
The run must exit 2 and leave no temp file and no summary. A failed stage
call or stage-file write publishes nothing. The stage files are published
before the summary, so a failed summary write leaves them all, and a
failed rename leaves the files renamed before it; each file left is the
one a fault-free run writes.
"""

import builtins
import json
import os
from pathlib import Path

import pytest

from lexprep import corpus, pipeline
from lexprep.cli import main
from lexprep.pipeline import STAGE_NAMES, SUMMARY_NAME

from .conftest import doc_record, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


class Fault(OSError):
    """The injected failure."""


class Counter:
    """Counts calls; the k-th call raises `Fault` (k=0: none does)."""

    def __init__(self, k: int = 0):
        self.k = k
        self.calls: list = []

    def __call__(self, what) -> None:
        self.calls.append(what)
        if len(self.calls) == self.k:
            raise Fault(f"injected fault at call {self.k}: {what}")


class CountedHandle:
    """A file opened to write whose every `write` passes the counter first."""

    def __init__(self, handle, counter: Counter):
        self.handle = handle
        self.counter = counter

    def write(self, text):
        self.counter(Path(self.handle.name).name)
        return self.handle.write(text)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self.handle.__exit__(*exc_info)


@pytest.fixture()
def workdir(tmp_path):
    records = [doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:3])]
    records.append(doc_record("ca-0", CA_SNIPPETS[0]))
    records.append(doc_record("blank", "   "))
    write_jsonl(tmp_path / "input.jsonl", records)
    manifest = {
        "input_path": "input.jsonl",
        "output_dir": "out",
        "stages": list(STAGE_NAMES),
        "chunk": {"max_tokens": 24},
    }
    (tmp_path / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
    return tmp_path


def _run(workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and every file left in the output directory, after a fresh run."""
    out = workdir / "out"
    if out.exists():
        for path in out.iterdir():
            path.unlink()
    code = main(["run", str(workdir / "run.json")])
    return code, {path.name: path.read_bytes() for path in out.iterdir()}


def _inject(monkeypatch, kind: str, counter: Counter) -> None:
    if kind == "stage call":
        for name, runner in pipeline._STAGE_RUNNERS.items():

            def counted(manifest, setup, record, runner=runner, name=name):
                counter(name)
                return runner(manifest, setup, record)

            monkeypatch.setitem(pipeline._STAGE_RUNNERS, name, counted)
    elif kind == "write":

        def counted_open(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            return CountedHandle(handle, counter) if "w" in mode else handle

        monkeypatch.setattr(corpus, "open", counted_open, raising=False)
    else:
        replace = os.replace

        def counted_replace(src, dst):
            counter(Path(dst).name)
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", counted_replace)


@pytest.mark.parametrize("kind", ["stage call", "write", "rename"])
def test_every_fault_exits_2_and_leaves_no_temp_file(workdir, monkeypatch, kind):
    with monkeypatch.context() as patch:
        counter = Counter()
        _inject(patch, kind, counter)
        code, expected = _run(workdir)
    assert code == 0
    stage_files = {name for name in expected if name != SUMMARY_NAME}
    assert len(stage_files) == 2 * len(STAGE_NAMES)
    faults = counter.calls
    assert len(faults) >= len(stage_files)
    for k in range(1, len(faults) + 1):
        with monkeypatch.context() as patch:
            _inject(patch, kind, Counter(k))
            code, left = _run(workdir)
        where = f"{kind} {k} of {len(faults)} ({faults[k - 1]})"
        assert code == 2, where
        assert not [name for name in left if name.endswith(".tmp")], where
        assert SUMMARY_NAME not in left, where
        if kind == "rename" or faults[k - 1] == f".{SUMMARY_NAME}.tmp":
            # Published files stay: those renamed before the failed rename,
            # or all of them when the summary failed.
            assert all(left[name] == expected[name] for name in left), where
        else:
            assert left == {}, where
        if faults[k - 1] in (SUMMARY_NAME, f".{SUMMARY_NAME}.tmp"):
            assert left.keys() == stage_files, where
