"""Shared fixtures: one reference tokenizer and document builders."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexprep
from lexprep.corpus import RawDocument
from lexprep.tokenizers import VocabTokenizer


@pytest.fixture(scope="session")
def tokenizer():
    return VocabTokenizer()


def make_doc(doc_id: str, text: str, region: str = "estado") -> RawDocument:
    return RawDocument(id=doc_id, source="test", region=region, text=text)


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def doc_record(doc_id: str, text: str, region: str = "estado") -> dict:
    return {
        "id": doc_id,
        "source": "test",
        "region": region,
        "doc_kind": "rule",
        "language_hint": None,
        "published_date": None,
        "text": text,
    }


def run_python(*argv, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run `python ARGV` with this lexprep importable, `stdin` piped in."""
    env = {**os.environ, "PYTHONPATH": str(Path(lexprep.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        input=stdin,
        env=env,
        capture_output=True,
        timeout=120,
    )


def run_lexprep(*argv, stdin: bytes = b"") -> subprocess.CompletedProcess:
    """Run the lexprep CLI in a fresh process."""
    return run_python("-m", "lexprep.cli", *argv, stdin=stdin)
