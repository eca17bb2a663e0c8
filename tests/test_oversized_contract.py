"""Output contract for oversized input: the recorded bytes at any input size.

The corpus holds the shapes raw bulletin dumps carry after PDF
extraction: a line of more than 200 KB with no sentence-final
punctuation (one sentence of thousands of tokens, cut by the hard
split) and a glued run of more than 20,000 letters (one word of
thousands of tokens, cut mid-word, and one word for the language gate).
The digests were recorded before the hard split drew its tokens through
a bounded window and before the n-grams of a long word were counted
lazily; a change that alters one output byte fails here.
"""

import hashlib
import re

from lexprep.pipeline import PipelineManifest, run_pipeline

from .conftest import doc_record, write_jsonl
from .test_output_contract import _seed_lines

EXPECTED_SHA256 = {
    "01-filter-lang.jsonl": "1be9e31dafeba958f8cf1c7e4e6d602282809742636cdbe02977b3885ab9cb4b",
    "01-filter-lang.rejected.jsonl": "f0a264705505307f9a1c08df763356f97a5a619b5fb7019cb40b41671b7d72e4",
    "02-clean.jsonl": "1be9e31dafeba958f8cf1c7e4e6d602282809742636cdbe02977b3885ab9cb4b",
    "02-clean.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "03-chunk.jsonl": "2d7e23e61e5435e46581d018b0cdcca485e246e95c937d1172f23921a9312b3c",
    "03-chunk.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "04-mask.jsonl": "aa00e32e922766fe075e0f7664d90cf95dbf734c45e0aeb0d035ac065a3bef19",
    "04-mask.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

LINE_CHARS = 200_000
WORD_CHARS = 20_000


def unpunctuated_line() -> str:
    """The Spanish seed text, repeated on one line without . ! ? or …"""
    text = " ".join(_seed_lines("es"))
    text = re.sub(r"[.!?…]", "", text)
    return " ".join([text] * (LINE_CHARS // len(text) + 1))


def glued_word() -> str:
    """The letters of the Spanish seed words run together, over and over."""
    letters = "".join(re.findall(r"[^\W\d_]+", " ".join(_seed_lines("es"))))
    return letters * (WORD_CHARS // len(letters) + 1)


def oversized_records() -> list[dict]:
    es = _seed_lines("es")
    return [
        doc_record("es-short", " ".join(es[:4])),
        doc_record("es-unpunctuated", unpunctuated_line() + "\n" + " ".join(es[4:8])),
        doc_record(
            "es-glued",
            " ".join(es[8:12]) + " Véase " + glued_word() + ". " + " ".join(es[12:16]),
        ),
        doc_record("ca-0", " ".join(_seed_lines("ca")[:6])),
    ]


def test_corpus_has_the_oversized_shapes():
    line = unpunctuated_line()
    assert len(line.encode("utf-8")) >= LINE_CHARS
    assert not re.search(r"[.!?…]", line)
    assert len(glued_word()) >= WORD_CHARS
    assert glued_word().isalpha()


def test_oversized_run_writes_recorded_bytes(tmp_path):
    write_jsonl(tmp_path / "input.jsonl", oversized_records())
    manifest = PipelineManifest.from_record(
        {
            "input_path": str(tmp_path / "input.jsonl"),
            "output_dir": str(tmp_path / "out"),
            "stages": ["filter-lang", "clean", "chunk", "mask"],
            "seed": 5,
        }
    )
    summary = run_pipeline(manifest)
    assert [stage["out"] for stage in summary["stages"][:2]] == [3, 3]
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").glob("[0-9][0-9]-*.jsonl"))
    }
    assert digests == EXPECTED_SHA256
