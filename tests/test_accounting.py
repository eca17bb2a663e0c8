"""Corpus-level accounting of a whole `lexprep run`.

Every input line ends up in exactly one place (an output, a rejection
line or the malformed tally), the summary's stats agree with the stage
tallies, and clean -> chunk -> mask loses no text and no token, over
corpora that mix in the hostile shapes: blank, punctuation-only,
non-Spanish and malformed lines, a long unpunctuated line and a word
longer than the chunk budget. Over the same corpora, `run`, a re-run and
the chain of single-stage commands write the same bytes.
"""

import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lexprep.cli import main
from lexprep.pipeline import STAGE_NAMES, PipelineManifest, run_pipeline

from .conftest import doc_record
from .lang_snippets import CA_SNIPPETS, EN_SNIPPETS, ES_SNIPPETS, PT_SNIPPETS

_ES_WORDS = re.findall(r"\w+", " ".join(ES_SNIPPETS))

_BLANK = st.sampled_from(["", "   ", "\t "])
_MALFORMED = st.sampled_from(
    [
        "not json",
        "[1, 2]",
        '{"id": ""}',
        '{"id": "m", "text": 5}',
        '{"id": "m", "text": "\\ud800"}',
        '{"id": "m", "text": "sin cierre',
        # Deeper than `json.loads` decodes, even with the recursion limit
        # that Hypothesis raises: it raises RecursionError.
        "[" * 100_000,
    ]
)
_TEXTS = st.one_of(
    st.sampled_from(ES_SNIPPETS),
    st.sampled_from(CA_SNIPPETS + EN_SNIPPETS + PT_SNIPPETS),
    st.sampled_from(["...", "¡¿?!", " — · — ", "", "   "]),
    # A long line with no sentence-final punctuation.
    st.integers(50, 400).map(lambda n: " ".join((_ES_WORDS * 8)[:n])),
    # A glued word longer than any budget below, inside Spanish text.
    st.tuples(st.sampled_from(ES_SNIPPETS), st.integers(70, 600)).map(
        lambda pair: f"{pair[0]} {'inconstitucionalidad' * (pair[1] // 20)} fin."
    ),
    # Space runs, blank lines and control characters for the cleaner.
    st.sampled_from(ES_SNIPPETS).map(lambda t: t.replace(" ", " \x00  ", 3) + "\n\n "),
)
_LINES = st.lists(
    st.one_of(
        _BLANK.map(lambda line: ("blank", line)),
        _MALFORMED.map(lambda line: ("malformed", line)),
        _TEXTS.map(lambda text: ("doc", text)),
    ),
    max_size=12,
)


def _read(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _visible(text: str) -> str:
    return "".join(text.split())


def _write_input(path: Path, lines) -> list[str]:
    """Write the generated lines as a JSONL input; return the lines written."""
    rendered = [
        json.dumps(doc_record(f"d-{i}", line), ensure_ascii=False)
        if kind == "doc"
        else line
        for i, (kind, line) in enumerate(lines)
    ]
    path.write_text("".join(f"{line}\n" for line in rendered), encoding="utf-8")
    return rendered


def _run(tmp: Path, out: str, max_tokens: int, seed: int = 0) -> dict:
    manifest = PipelineManifest.from_record(
        {
            "input_path": str(tmp / "input.jsonl"),
            "output_dir": str(tmp / out),
            "stages": list(STAGE_NAMES),
            "seed": seed,
            "chunk": {"max_tokens": max_tokens},
        }
    )
    return run_pipeline(manifest)


@settings(max_examples=40, deadline=None)
@given(lines=_LINES, max_tokens=st.sampled_from([8, 32, 512]))
def test_every_line_and_token_is_accounted_for(lines, max_tokens):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rendered = _write_input(tmp / "input.jsonl", lines)
        summary = _run(tmp, "out", max_tokens)
        stages = {stage["name"]: stage for stage in summary["stages"]}

        out = tmp / "out"
        chunks: dict[str, list[dict]] = {}
        for record in _read(out / "03-chunk.jsonl"):
            chunks.setdefault(record["doc_id"], []).append(record)
        # Chunk maps a document to one or more chunks, so its `out` counts
        # chunks; every other stage maps one record to at most one.
        for stage in summary["stages"]:
            passed = len(chunks) if stage["name"] == "chunk" else stage["out"]
            assert stage["in"] == passed + stage["rejected"]
        first = summary["stages"][0]
        non_blank = sum(1 for line in rendered if line.strip())
        assert first["in"] + first["malformed"] == non_blank
        documents = sum(1 for kind, _ in lines if kind == "doc")
        assert summary["documents_in"] == documents
        assert summary["stats_before"]["document_count"] == documents
        assert summary["stats_after"]["document_count"] == stages["clean"]["out"]

        for doc in _read(out / "02-clean.jsonl"):
            pieces = chunks.get(doc["id"], [])
            assert [piece["seq"] for piece in pieces] == list(range(len(pieces)))
            joined = "".join(piece["text"] for piece in pieces)
            assert _visible(joined) == _visible(doc["text"])

        examples = _read(out / "04-mask.jsonl")
        assert stages["mask"]["in"] == stages["chunk"]["out"] == len(examples)
        tokens = sum(len(example["input_ids"]) for example in examples)
        assert tokens == stages["chunk"]["tokens_total"]


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@settings(max_examples=25, deadline=None)
@given(
    lines=_LINES, max_tokens=st.sampled_from([8, 32, 512]), seed=st.integers(0, 9)
)
def test_run_rerun_and_stage_commands_write_the_same_bytes(lines, max_tokens, seed):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_input(tmp / "input.jsonl", lines)
        _run(tmp, "out", max_tokens, seed)
        _run(tmp, "again", max_tokens, seed)
        assert _files(tmp / "again") == _files(tmp / "out")

        chain = tmp / "chain"
        chain.mkdir()
        gated, cleaned = chain / "01-filter-lang.jsonl", chain / "02-clean.jsonl"
        chunks, examples = chain / "03-chunk.jsonl", chain / "04-mask.jsonl"
        rejected = chain / "01-filter-lang.rejected.jsonl"
        commands = [
            ["filter-lang", tmp / "input.jsonl", gated, "--rejected", rejected],
            ["clean", gated, cleaned],
            ["chunk", cleaned, chunks, "--max-tokens", max_tokens],
            ["--seed", seed, "mask", chunks, examples],
        ]
        for argv in commands:
            assert main([str(arg) for arg in argv]) == 0
        written = _files(chain)
        assert len(written) == 5
        assert written == {name: _files(tmp / "out")[name] for name in written}
