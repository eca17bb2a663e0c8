"""Document data model and streaming ingestion of pre-extracted legal texts.

Documents arrive as line-delimited JSON records, one per line, with field
names matching :class:`RawDocument`. Ingestion is single-pass and never
materializes the corpus; all yielded documents are immutable values.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections.abc import Callable, Iterable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, TypeVar

from .errors import DuplicateId, InsufficientDocuments, MalformedRecord
from .tokenizers import encoder

if TYPE_CHECKING:
    import logging

_T = TypeVar("_T")

# Set by `cli.main`: the first message then sets up `LEVEL message` lines on stderr.
log_to_stderr = False

# The one form `date.fromisoformat` reads on Python 3.10; 3.11 reads "20240101" too.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class DocKind(Enum):
    """Kind of source document. Unknown values map to OTHER: bulletins vary."""

    NOTICE = "notice"
    RULE = "rule"
    TRANSCRIPT = "transcript"
    RULING = "ruling"
    OTHER = "other"

    @classmethod
    def parse(cls, value: object) -> "DocKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().lower())
        except ValueError:
            return cls.OTHER


@dataclass(frozen=True)
class RawDocument:
    """One source legal text with provenance metadata.

    Attributes:
        id: Unique identifier within one ingestion run (non-empty).
        source: Bulletin or publisher name.
        region: Autonomous community, or "estado" for state-level sources.
        doc_kind: What the document is (notice, rule, transcript, ruling, other).
        language_hint: Optional 2-letter code from the source metadata.
        published_date: Optional publication date.
        text: Document body. May be empty at ingest; empty documents are
            rejected by downstream stages, not here.
    """

    id: str
    source: str = ""
    region: str = ""
    doc_kind: DocKind = DocKind.OTHER
    language_hint: str | None = None
    published_date: date | None = None
    text: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")

    @property
    def byte_length(self) -> int:
        return len(self.text.encode("utf-8"))

    def replace_text(self, text: str) -> "RawDocument":
        """Return a copy with a new body (documents are immutable)."""
        return replace(self, text=text)

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "region": self.region,
            "doc_kind": self.doc_kind.value,
            "language_hint": self.language_hint,
            "published_date": (
                self.published_date.isoformat() if self.published_date else None
            ),
            "text": self.text,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RawDocument":
        """Build a document from a parsed record, validating field types.

        Raises:
            ValueError: on a missing or ill-typed field, or on a string
                field that cannot be written as UTF-8 (`check_utf8`).
        """
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("field 'id' must be a non-empty string")
        text = record.get("text", "")
        if not isinstance(text, str):
            raise ValueError("field 'text' must be a string")
        hint = record.get("language_hint")
        if hint is not None:
            if not isinstance(hint, str) or len(hint) != 2:
                raise ValueError("field 'language_hint' must be a 2-letter code")
            hint = hint.lower()
        source, region = record.get("source"), record.get("region")
        for name, value in (("source", source), ("region", region)):
            if value is not None and not isinstance(value, str):
                raise ValueError(f"field '{name}' must be a string or null")
        raw_date = record.get("published_date")
        published = None
        if raw_date is not None and raw_date != "":
            if not isinstance(raw_date, str) or not _ISO_DATE.fullmatch(raw_date):
                raise ValueError("field 'published_date' must be a YYYY-MM-DD string")
            try:
                published = date.fromisoformat(raw_date)
            except ValueError as exc:
                raise ValueError(f"field 'published_date' is not ISO-8601: {exc}")
        doc = cls(
            id=doc_id,
            source=source or "",
            region=region or "",
            doc_kind=DocKind.parse(record.get("doc_kind", "other")),
            language_hint=hint,
            published_date=published,
            text=text,
        )
        for name in ("id", "source", "region", "language_hint", "text"):
            value = getattr(doc, name)
            if value is not None:
                check_utf8(name, value)
        return doc


def check_utf8(name: str, value: str) -> None:
    """Raise ValueError unless the string field `name` can be written as UTF-8.

    A lone surrogate escape such as "\\ud800" decodes from JSON but cannot
    be encoded.
    """
    if value.isascii():
        return
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"field {name!r} is not valid UTF-8 text: {exc}") from None


def document_to_line(doc: RawDocument) -> str:
    """Serialize one document to its canonical JSONL line (no newline)."""
    return json.dumps(doc.to_record(), ensure_ascii=False)


def read_lines(path) -> Iterator[str]:
    """Each line of a UTF-8 file, ending as written: "\\n", "\\r\\n" or a lone "\\r"."""
    with open(path, encoding="utf-8", newline="") as handle:
        yield from handle


def parse_records(
    lines: Iterable[str],
    parse: Callable[[object], _T],
    strict: bool = False,
    error_sink: list[MalformedRecord] | None = None,
) -> Iterator[tuple[int, _T]]:
    """Yield (line number, parse(record)) for each non-blank JSON line.

    A line that is not JSON (or nests too deeply to decode), or whose
    record `parse` rejects with ValueError, is a MalformedRecord: raised
    when strict, else skipped and appended to error_sink when one is given.
    """
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            item = parse(json.loads(line))
        except (ValueError, RecursionError) as exc:
            err = MalformedRecord(line_number, str(exc))
            if strict:
                raise err
            if error_sink is not None:
                error_sink.append(err)
            continue
        yield line_number, item


def read_records(
    path,
    parse: Callable[[object], _T],
    strict: bool = False,
    error_sink: list[MalformedRecord] | None = None,
) -> Iterator[_T]:
    """Stream parse(record) for each record of a JSONL file, as `parse_records`."""
    for _, item in parse_records(read_lines(path), parse, strict, error_sink):
        yield item


@cache
def logger() -> logging.Logger:
    """The "lexprep" logger; `logging` is imported and set up here, at the first message."""
    import logging

    if log_to_stderr:  # a no-op once the root logger has a handler, as under pytest
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    return logging.getLogger("lexprep")


def warn_skipped(errors: Iterable[MalformedRecord]) -> None:
    """Log `skipped line N: reason` for each line a lenient read skipped."""
    for err in errors:
        logger().warning("skipped line %d: %s", err.line_number, err.reason)


def ingest_stream(
    lines: Iterable[str],
    strict: bool = False,
    error_sink: list[MalformedRecord] | None = None,
) -> Iterator[RawDocument]:
    """Yield one RawDocument per input line, in input order.

    Single-pass and bounded-memory: nothing is retained between lines except,
    in strict mode, the set of ids seen so far (needed to detect duplicates;
    lenient mode skips the check to keep memory independent of corpus size).

    Args:
        lines: Readable sequence of serialized records, one per line.
            Blank lines are skipped.
        strict: If True, raise MalformedRecord / DuplicateId on the first
            problem. If False, skip bad lines, appending the error to
            error_sink when one is given.
        error_sink: Optional list collecting MalformedRecord errors in
            lenient mode (the skip-and-count side of the contract).
    """
    seen_ids: set[str] | None = set() if strict else None
    for line_number, doc in parse_records(
        lines, RawDocument.from_record, strict, error_sink
    ):
        if seen_ids is not None:
            if doc.id in seen_ids:
                raise DuplicateId(doc.id, line_number)
            seen_ids.add(doc.id)
        yield doc


def read_documents(
    path,
    strict: bool = False,
    error_sink: list[MalformedRecord] | None = None,
) -> Iterator[RawDocument]:
    """Stream documents from a JSONL file."""
    yield from ingest_stream(read_lines(path), strict=strict, error_sink=error_sink)


@contextmanager
def published(*paths) -> Iterator[list]:
    """Yield one text handle per path; publish every file once the block succeeds.

    Each file is written as `.NAME.tmp`, in UTF-8, with line ends as given;
    all are closed, then all renamed into place. On error every temp file is
    removed, so no cut-short file looks complete. A symlink, device or pipe
    is written through directly.

    Raises:
        ValueError: before any file is opened, when a path that would be
            written through a temp file names the same file as another
            path; the two handles would share one temp file.
    """
    finals = [Path(path) for path in paths]
    temps = [
        final
        if final.is_symlink() or final.exists() and not final.is_file()
        else final.with_name(f".{final.name}.tmp")
        for final in finals
    ]
    targets = [final.resolve() for final in finals]
    for temp, final, target in zip(temps, finals, targets):
        if temp != final and targets.count(target) > 1:
            raise ValueError(f"{final}: the same output file is given twice")
    try:
        with ExitStack() as stack:
            yield [
                stack.enter_context(open(t, "w", encoding="utf-8", newline=""))
                for t in temps
            ]
        for temp, final in zip(temps, finals):
            if temp != final:
                os.replace(temp, final)
    except BaseException:
        for temp, final in zip(temps, finals):
            if temp != final:
                temp.unlink(missing_ok=True)
        raise


def write_documents(path, docs: Iterable[RawDocument]) -> int:
    """Write documents to a JSONL file. Returns the number written.

    The file is published only once `docs` is used up (see `published`):
    an error raised while drawing them, such as a malformed line in a
    strict read, leaves neither the file nor its temp file.
    """
    count = 0
    with published(path) as (handle,):
        for doc in docs:
            handle.write(document_to_line(doc) + "\n")
            count += 1
    return count


@dataclass
class CorpusStats:
    """Streaming corpus totals.

    Invariants: document_count equals the sum of per_region_counts, and
    total_bytes is the sum of UTF-8 byte lengths of all texts.
    """

    document_count: int = 0
    total_bytes: int = 0
    total_tokens: int | None = None
    per_region_counts: dict[str, int] = field(default_factory=dict)

    def add(self, doc: RawDocument, token_count: int | None = None) -> None:
        self.document_count += 1
        self.total_bytes += doc.byte_length
        region = doc.region or ""
        self.per_region_counts[region] = self.per_region_counts.get(region, 0) + 1
        if token_count is not None:
            self.total_tokens = (self.total_tokens or 0) + token_count

    def tally(self, docs: Iterable[RawDocument]) -> Iterator[RawDocument]:
        """Yield `docs` unchanged, adding each to these totals as it passes."""
        for doc in docs:
            self.add(doc)
            yield doc

    def to_record(self) -> dict:
        return {
            "document_count": self.document_count,
            "total_bytes": self.total_bytes,
            "total_tokens": self.total_tokens,
            "per_region_counts": dict(sorted(self.per_region_counts.items())),
        }


def compute_stats(docs: Iterable[RawDocument], tokenizer=None) -> CorpusStats:
    """Aggregate CorpusStats over a document stream.

    O(1) memory beyond the per-region map. When a tokenizer is given,
    total_tokens counts tokens of each text, summed over its per-word ids
    (see `tokenizers.encoder`); otherwise it stays None.
    """
    encode = encoder(tokenizer) if tokenizer is not None else None
    stats = CorpusStats()
    for doc in docs:
        stats.add(doc, sum(map(len, encode(doc.text))) if encode else None)
    return stats


def validation_indices(docs: Iterable[RawDocument], n: int, seed: int) -> set[int]:
    """The positions of a uniform sample of n documents, in one pass.

    Vitter's Algorithm R: the first n positions fill the reservoir, and
    each later position i replaces a random slot with probability
    n / (i + 1). Only the n positions are kept, never the documents.
    Deterministic for fixed (docs, n, seed).

    Raises:
        InsufficientDocuments: if n exceeds the number of documents.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    rng = random.Random(seed)
    reservoir: list[int] = []
    count = 0
    for i, _ in enumerate(docs):
        count += 1
        if i < n:
            reservoir.append(i)
        else:
            j = rng.randint(0, i)
            if j < n:
                reservoir[j] = i
    if count < n:
        raise InsufficientDocuments(
            f"requested a validation split of {n} from {count} documents"
        )
    return set(reservoir)


def split_validation(
    docs: Iterable[RawDocument], n: int, seed: int
) -> tuple[list[RawDocument], list[RawDocument]]:
    """Partition documents into (train, validation) with |validation| = n.

    The validation set is the uniform sample without replacement that
    `validation_indices` draws, so the selection also works when `docs`
    is a stream. Both partitions keep the input order; they are disjoint
    and their union is the input. Deterministic for fixed (docs, n, seed).

    Raises:
        InsufficientDocuments: if n exceeds the number of documents.
    """
    everything = list(docs)
    chosen = validation_indices(everything, n, seed)
    validation = [doc for i, doc in enumerate(everything) if i in chosen]
    train = [doc for i, doc in enumerate(everything) if i not in chosen]
    return train, validation
