"""Every line reader follows one newline rule, whatever the line ends.

`corpus.read_lines` opens every line-delimited input: a line ends at "\\n",
"\\r\\n" or a lone "\\r" and keeps the end it was written with. So records
written with each of the three ends give the same results through every
command, and a malformed line is reported at the same position by every
reader of it.
"""

import json
import logging
from pathlib import Path

import pytest

import lexprep
from lexprep.cli import main

from .conftest import doc_record
from .lang_snippets import ES_SNIPPETS

ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}

# A record cut short: its JSON error lies at the line end.
CUT_SHORT = '{"id": "cut", "text": "La ley"'


def _write(path: Path, lines, end: str) -> Path:
    path.write_text("".join(line + end for line in lines), encoding="utf-8", newline="")
    return path


def _documents() -> list[str]:
    lines = [json.dumps(doc_record(f"d{i}", text)) for i, text in enumerate(ES_SNIPPETS)]
    return [*lines[:2], "", CUT_SHORT, *lines[2:]]


def _cli(capsys, *argv) -> str:
    assert main([*map(str, argv)]) == 0
    return capsys.readouterr().out


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _by_end(make) -> dict[str, object]:
    """What `make(name, end)` gives for each line end."""
    return {name: make(name, end) for name, end in ENDS.items()}


def _all_alike(results: dict[str, object]) -> None:
    assert results["crlf"] == results["lf"]
    assert results["cr"] == results["lf"]


def test_run_writes_the_same_files(tmp_path, capsys):
    source = tmp_path / "in.jsonl"
    manifest = tmp_path / "run.json"

    def run(name, end):
        _write(source, _documents(), end)
        stages = ["filter-lang", "clean", "chunk", "mask"]
        record = {"input_path": "in.jsonl", "output_dir": name, "stages": stages}
        manifest.write_text(json.dumps(record), encoding="utf-8")
        _cli(capsys, "run", manifest)
        return _files(tmp_path / name)

    files = _by_end(run)
    _all_alike(files)
    summary = json.loads(files["lf"]["summary.json"])
    assert summary["stages"][0]["malformed"] == 1
    assert summary["documents_in"] == len(ES_SNIPPETS)


@pytest.mark.parametrize("end", ENDS.values(), ids=ENDS.keys())
def test_a_malformed_line_is_reported_alike_by_each_reader(tmp_path, caplog, end):
    source = _write(tmp_path / "in.jsonl", _documents(), end)
    manifest = tmp_path / "copy.json"
    record = {"input_path": "in.jsonl", "output_dir": "copy", "stages": []}
    manifest.write_text(json.dumps(record), encoding="utf-8")
    warnings = []
    for argv in (["run", manifest], ["clean", source, tmp_path / "clean.jsonl"]):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lexprep"):
            assert main([*map(str, argv)]) == 0
        warnings.append([r.getMessage() for r in caplog.records])
    assert warnings[0] == warnings[1]
    # The JSON position counts the line as written, line end and all.
    char = len(CUT_SHORT) + len(end)
    column = f"line 1 column {char + 1}" if end == "\r" else "line 2 column 1"
    expected = f"skipped line 4: Expecting ',' delimiter: {column} (char {char})"
    assert warnings[0] == [expected]


def test_mask_reads_a_chunk_file_alike(tmp_path, capsys):
    chunks = [
        json.dumps({"doc_id": f"d{i}", "seq": 0, "text": text})
        for i, text in enumerate(ES_SNIPPETS)
    ]

    def mask(name, end):
        source = _write(tmp_path / f"chunks-{name}.jsonl", [*chunks, ""], end)
        output = tmp_path / f"masked-{name}.jsonl"
        return _cli(capsys, "mask", source, output), output.read_bytes()

    _all_alike(_by_end(mask))


def test_filter_lang_reads_profiles_alike(tmp_path, capsys):
    bundled = Path(lexprep.__file__).parent / "data" / "profiles.jsonl"
    profiles = bundled.read_text(encoding="utf-8").splitlines()
    source = _write(tmp_path / "in.jsonl", _documents(), "\n")

    def filter_lang(name, end):
        path = _write(tmp_path / f"profiles-{name}.jsonl", profiles, end)
        output = tmp_path / f"kept-{name}.jsonl"
        stdout = _cli(capsys, "filter-lang", source, output, "--profiles", path)
        return stdout, output.read_bytes()

    _all_alike(_by_end(filter_lang))


def test_eval_reads_predictions_alike(tmp_path, capsys):
    records = [
        {"example_id": "1", "gold": ["a"], "predicted": ["a", "b"]},
        {"example_id": 2, "gold": ["b"], "predicted": ["b"]},
        {"example_id": "3", "gold": ["a", "c"], "predicted": []},
    ]
    lines = [json.dumps(record) for record in records]

    def evaluate(name, end):
        path = _write(tmp_path / f"predictions-{name}.jsonl", [*lines, ""], end)
        return _cli(capsys, "eval", "--predictions", path, "--averaging", "macro")

    results = _by_end(evaluate)
    _all_alike(results)
    assert json.loads(results["lf"])["examples"] == 3


def test_eval_reads_curves_alike(tmp_path, capsys):
    rows = ["model,epoch,f1", "mel,1,0.5", "mel,2,0.6", '"b,2",1,0.4', '"b,2",3,0.7']

    def evaluate(name, end):
        path = _write(tmp_path / f"curves-{name}.csv", rows, end)
        return _cli(capsys, "eval", "--curves", path, "--format", "csv")

    results = _by_end(evaluate)
    _all_alike(results)
    assert results["lf"].count("\n") == 3


@pytest.mark.parametrize("end", list(ENDS.values()), ids=list(ENDS))
def test_a_quoted_line_end_in_a_curve_is_kept(tmp_path, capsys, end):
    rows = ["model,epoch,f1", f'"mel{end}v2",1,0.5', f'"mel{end}v2",2,0.6']
    path = _write(tmp_path / "curves.csv", rows, end)
    out = _cli(capsys, "eval", "--curves", path, "--format", "csv")
    assert out.endswith(f'benchmark,"mel{end}v2",0.6000,0.5500,1,true,true\n')
