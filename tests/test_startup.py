"""A CLI process never loads `logging`, even to warn of a skipped line or
report an error (it writes those lines itself), nor `importlib.resources`,
`dataclasses` or `inspect` (the value types are plain `__slots__` classes)
or `datetime` (`date` comes from the C module `_datetime`, so the
pure-Python `datetime.py` never runs), and what the CLI writes to stderr
stays byte for byte, with the exit codes it had when stderr is closed or
full.

Every check runs in a fresh `python -S`: without `-S`, a `.pth` hook in the
interpreter's site-packages can import `importlib.resources` (and through it
`tempfile`, `re`, `pathlib` and `typing`) before lexprep starts, which would
hide a regression. `PYTHONPATH` still puts lexprep on `sys.path` under `-S`.
The stderr checks need a fresh process too: pytest sets up the root logger.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexprep

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


def _manifest(tmp_path, lines: list[str]) -> Path:
    """A four-stage run over `lines`, written as the input file."""
    (tmp_path / "in.jsonl").write_text("".join(f"{line}\n" for line in lines), "utf-8")
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
    return manifest


def _main_code(*argv, code: int = 0) -> str:
    return f"""
import contextlib, io
from lexprep.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({list(map(str, argv))!r}) == {code}
"""


def test_a_clean_run_loads_none_of_them(tmp_path):
    manifest = _manifest(tmp_path, [json.dumps(doc_record("es-0", ES_SNIPPETS[0]))])
    assert _loaded(_main_code("run", manifest)) == []
    summary = json.loads((tmp_path / "out" / "summary.json").read_text("utf-8"))
    assert summary["stages"][-1]["out"] > 0


def _lexprep(*argv):
    return run_python("-S", "-m", "lexprep.cli", *argv)


def test_a_run_that_skips_a_line_loads_none_of_them(tmp_path):
    lines = [json.dumps(doc_record("es-0", ES_SNIPPETS[0])), "{not json"]
    manifest = _manifest(tmp_path, lines)
    assert _loaded(_main_code("run", manifest)) == []
    result = _lexprep("run", manifest)
    assert result.returncode == 0
    assert result.stderr == (
        b"WARNING skipped line 2: Expecting property name enclosed in double quotes: "
        b"line 1 column 2 (char 1)\n"
    )


def test_a_failed_command_loads_none_of_them(tmp_path):
    assert _loaded(_main_code("stats", tmp_path / "absent.jsonl", code=2)) == []


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


def _lexprep_with_stderr(stderr: str, *argv) -> int:
    """The exit code of the CLI run with its stderr "closed" or on "full" /dev/full."""
    env = {**os.environ, "PYTHONPATH": str(Path(lexprep.__file__).parents[1])}
    command = [sys.executable, "-S", "-m", "lexprep.cli", *map(str, argv)]
    with open(os.devnull if stderr == "closed" else "/dev/full", "wb") as sink:
        return subprocess.run(
            command,
            stdout=subprocess.DEVNULL,
            stderr=sink,
            env=env,
            preexec_fn=(lambda: os.close(2)) if stderr == "closed" else None,
            timeout=120,
        ).returncode


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("stderr", ["closed", "full"])
def test_a_message_that_cannot_be_written_keeps_the_exit_code(tmp_path, stderr):
    # As with the logging handler: nothing is written, and nothing fails.
    path = tmp_path / "in.jsonl"
    write_jsonl(path, [doc_record("a", "uno"), {"id": ""}])
    assert _lexprep_with_stderr(stderr, "ingest", path, tmp_path / "out.jsonl") == 0
    assert (tmp_path / "out.jsonl").read_text("utf-8").count("\n") == 1
    assert _lexprep_with_stderr(stderr, "stats", tmp_path / "absent.jsonl") == 2


def test_logging_is_imported_in_corpus_logger_alone():
    package = Path(lexprep.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # An import under `if TYPE_CHECKING:` is for annotations: it never runs.
        skipped = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
            for inner in ast.walk(node)
        }
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module.split(".")[0]]
            if "logging" in names:
                owners = [f.name for f in functions if node in ast.walk(f)]
                found.append(f"{path.name}: {'.'.join(owners) or 'module level'}")
    assert found == ["corpus.py: logger"]
