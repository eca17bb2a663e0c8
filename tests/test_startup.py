"""A process loads `logging` only at its first message and never loads
`importlib.resources`, `dataclasses` or `inspect` (the value types are plain
`__slots__` classes) or `datetime` (`date` comes from the C module
`_datetime`, so the pure-Python `datetime.py` never runs), and what the CLI
writes to stderr stays byte for byte.

Every check runs in a fresh `python -S`: without `-S`, a `.pth` hook in the
interpreter's site-packages can import `importlib.resources` (and through it
`tempfile`, `re`, `pathlib` and `typing`) before lexprep starts, which would
hide a regression. `PYTHONPATH` still puts lexprep on `sys.path` under `-S`.
The stderr checks need a fresh process too: pytest sets up the root logger.
"""

import json

from .conftest import doc_record, run_python, write_jsonl
from .lang_snippets import ES_SNIPPETS

# Not `tokenize` or `linecache`: `logging` loads both, so they follow it.
LAZY = ("logging", "importlib.resources", "dataclasses", "inspect", "datetime")

REPORT = f"import sys; print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))"


def _loaded(code: str) -> list[str]:
    """Run `code` in a fresh `python -S`; the LAZY modules loaded at its end."""
    result = run_python("-S", "-c", f"import json\n{code}\n{REPORT}")
    assert result.returncode == 0, result.stderr.decode()
    return json.loads(result.stdout.splitlines()[-1])


def test_a_bare_interpreter_loads_none_of_them():
    # Else the checks below could not fail.
    assert _loaded("") == []


def test_set_up_loads_none_of_them():
    code = """
import lexprep.cli
from lexprep.langid import builtin_profiles
from lexprep.tokenizers import VocabTokenizer
builtin_profiles()
VocabTokenizer()
"""
    assert _loaded(code) == []


def test_a_clean_run_loads_none_of_them(tmp_path):
    write_jsonl(tmp_path / "in.jsonl", [doc_record("es-0", ES_SNIPPETS[0])])
    manifest = tmp_path / "run.json"
    manifest.write_text(
        json.dumps(
            {
                "input_path": str(tmp_path / "in.jsonl"),
                "output_dir": str(tmp_path / "out"),
                "stages": ["filter-lang", "clean", "chunk", "mask"],
            }
        ),
        encoding="utf-8",
    )
    code = f"""
import contextlib, io
from lexprep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["run", {str(manifest)!r}]) == 0
"""
    assert _loaded(code) == []
    summary = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert summary["stages"][-1]["out"] > 0


def _lexprep(*argv):
    return run_python("-S", "-m", "lexprep.cli", *argv)


def test_each_skipped_line_is_one_warning_line(tmp_path):
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [doc_record("a", "uno"), {"id": ""}, doc_record("b", "dos"), {}])
    result = _lexprep("ingest", path, tmp_path / "out.jsonl")
    assert result.returncode == 0
    assert result.stderr == (
        b"WARNING skipped line 2: field 'id' must be a non-empty string\n"
        b"WARNING skipped line 4: field 'id' must be a non-empty string\n"
    )


def test_a_failed_run_is_one_error_line(tmp_path):
    absent = tmp_path / "absent.jsonl"
    result = _lexprep("stats", absent)
    assert result.returncode == 2
    assert result.stderr == (
        f"ERROR [Errno 2] No such file or directory: {str(absent)!r}\n".encode()
    )
