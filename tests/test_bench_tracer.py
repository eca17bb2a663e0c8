"""The per-layer benchmark tracer still finds every function it wraps.

`bench/trace_run.py` times each layer by rebinding module attributes of
`lexprep` from outside, so renaming or dropping one of them in `src/`
would silently take its spans out of the per-layer metrics.
"""

import json
from pathlib import Path

from lexprep.pipeline import STAGE_NAMES

from .conftest import doc_record, run_python, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS

TRACE_RUN = Path(__file__).resolve().parents[1] / "bench" / "trace_run.py"


def test_traced_run_finds_every_wrapped_function(tmp_path):
    records = [doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:3])]
    records.append(doc_record("ca-0", CA_SNIPPETS[0]))
    write_jsonl(tmp_path / "input.jsonl", records)
    manifest = tmp_path / "manifest.json"
    record = {"input_path": "input.jsonl", "output_dir": "out", "stages": STAGE_NAMES}
    manifest.write_text(json.dumps(record), encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    result = run_python(TRACE_RUN, spans_path, "run", manifest)
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    assert trace["missing"] == []
    names = {span[0] for span in trace["spans"]}
    expected = {f"pipeline.stage.{name}" for name in STAGE_NAMES}
    expected |= {"corpus.read", "corpus.write"}
    assert expected <= names
