"""Output checks for one `lexprep run` and the digests of its stage files.

`check_run` reads the output directory the run wrote and raises
`CheckFailed` if any stage lost or invented records, a chunk exceeds the
token budget, a mask example does not match its chunk, or a stage file is
truncated or corrupt. It returns the facts the metrics need and a sha256
per `NN-*.jsonl` file; timings never enter anything compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

IGNORE_LABEL = -100
DOC_STAGES = ("filter-lang", "clean")


class CheckFailed(Exception):
    """The run's outputs break one of the checks."""


def _records(path: Path) -> list[dict]:
    if not path.is_file():
        raise CheckFailed(f"missing stage file {path.name}")
    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            if not line.endswith("\n"):
                raise CheckFailed(f"{path.name}:{number} has no line end (truncated?)")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"{path.name}:{number} is not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise CheckFailed(f"{path.name}:{number} is not a JSON object")
            records.append(record)
    return records


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every numbered stage file, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("[0-9][0-9]-*.jsonl"))
    }


def nonblank_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def check_run(work: Path, manifest: dict) -> dict:
    """Check the outputs of one run of `manifest` inside `work`.

    Returns `lines_in`, `lines_lost`, `chunk_tokens`, `chunks`,
    `fill_mean`, `realized_rate` and `digests`.
    """
    out_dir = work / manifest["output_dir"]
    summary_path = out_dir / "summary.json"
    _require(summary_path.is_file(), "summary.json is missing")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"summary.json is not JSON: {exc}") from exc
    reports = summary.get("stages", [])
    names = [report.get("name") for report in reports]
    _require(names == manifest["stages"], f"summary lists stages {names}")
    max_tokens = manifest["chunk"]["max_tokens"]

    lines_in = nonblank_lines(work / manifest["input_path"])
    upstream_ids: list[str] | None = None
    upstream_count = None
    chunks: list[dict] = []
    examples: list[dict] = []
    for index, report in enumerate(reports, start=1):
        name = report["name"]
        out = _records(out_dir / f"{index:02d}-{name}.jsonl")
        rejected = _records(out_dir / f"{index:02d}-{name}.rejected.jsonl")
        _require(
            report.get("out") == len(out) and report.get("rejected") == len(rejected),
            f"{name}: summary tallies {report.get('out')}/{report.get('rejected')} "
            f"but files hold {len(out)}/{len(rejected)}",
        )
        if upstream_count is not None:
            _require(
                report.get("in") == upstream_count,
                f"{name}: in={report.get('in')} but the previous stage emitted {upstream_count}",
            )
        if name == "chunk":
            doc_ids = {record.get("doc_id") for record in out}
            _require(
                report.get("in") == len(doc_ids) + len(rejected),
                f"chunk: in={report.get('in')} != {len(doc_ids)} chunked docs "
                f"+ {len(rejected)} rejected",
            )
            if upstream_ids is not None:
                _require(doc_ids <= set(upstream_ids), "chunk: a chunk names an unknown doc_id")
            for record in out:
                count = record.get("token_count")
                _require(
                    isinstance(count, int) and 0 < count <= max_tokens,
                    f"chunk {record.get('doc_id')}:{record.get('seq')} has token_count {count}",
                )
            chunks = out
        else:
            _require(
                report.get("in") == len(out) + len(rejected),
                f"{name}: in={report.get('in')} != out {len(out)} + rejected {len(rejected)}",
            )
        if name in DOC_STAGES:
            upstream_ids = [record.get("id") for record in out]
        if name == "mask":
            examples = out
        upstream_count = len(out)

    _require(bool(chunks), "the run emitted no chunks")
    _require(len(examples) == len(chunks), f"{len(examples)} examples for {len(chunks)} chunks")
    masked = 0
    for chunk, example in zip(chunks, examples):
        key = (chunk.get("doc_id"), chunk.get("seq"))
        _require((example.get("doc_id"), example.get("seq")) == key, f"example order breaks at {key}")
        ids, labels = example.get("input_ids"), example.get("labels")
        _require(
            isinstance(ids, list)
            and isinstance(labels, list)
            and len(ids) == len(labels) == chunk["token_count"],
            f"example {key} length does not match its chunk",
        )
        masked += sum(1 for label in labels if label != IGNORE_LABEL)

    # A line is accounted for once the first stage reads it as a document or
    # the summary counts it as malformed (at the top or in the first stage).
    first = reports[0] if reports else {}
    malformed = (summary.get("malformed"), first.get("malformed"))
    tallied = first.get("in", 0) + sum(n for n in malformed if isinstance(n, int))
    chunk_tokens = sum(chunk["token_count"] for chunk in chunks)
    return {
        "lines_in": lines_in,
        "lines_lost": max(0, lines_in - tallied),
        "chunk_tokens": chunk_tokens,
        "chunks": len(chunks),
        "fill_mean": chunk_tokens / len(chunks) / max_tokens,
        "realized_rate": masked / chunk_tokens,
        "digests": digests(out_dir),
    }
