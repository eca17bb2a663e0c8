"""Sentence splitting and greedy packing into token-budgeted chunks.

Texts are split into sentences, then consecutive sentences are appended
into one training unit for as long as the unit stays within the token
budget, so sequences are dense without mid-sentence truncation. The
unit's count is the sum of its sentences' counts when the tokenizer
declares itself concatenation-stable, and is measured by re-tokenizing
the joined unit otherwise. A single sentence longer than the whole budget
is hard-split at token boundaries into maximal pieces rather than dropped.
The hard split draws the sentence's tokens through a window of at most
budget + 1 of them, so the tokens held at once are bounded by the budget,
not by the length of the sentence.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import TypeVar

from .corpus import RawDocument, parse_records
from .errors import MalformedRecord, TokenizerFailure
from .tokenizers import Token, TokenizerInterface

_T = TypeVar("_T")

DEFAULT_MAX_TOKENS = 512

# Spanish legal/administrative abbreviations after which a period never ends
# the sentence. Matched case-insensitively against the preceding word.
ABBREVIATIONS = frozenset(
    abbr.lower()
    for abbr in (
        "art. arts. núm. núms. nº no. pág. págs. p. pp. cap. apdo. ap. "
        "disp. ss. vid. cfr. cf. etc. Sr. Sra. Sres. Sras. D. Dña. Dª. "
        "Dr. Dra. Ldo. Lda. Excmo. Excma. Ilmo. Ilma. Avda. Ud. Uds. "
        "S.A. S.L. EE.UU."
    ).split()
)

# Characters that may open a sentence in Spanish besides an uppercase letter.
_OPENERS = "¿¡«“\"'‘(["

# Sentence-final punctuation, the following whitespace, and a peek at the
# next non-space character.
_BOUNDARY = re.compile(r"([.!?…]+)(\s+)(?=(\S))")


def _opens_sentence(ch: str) -> bool:
    return ch.isupper() or ch in _OPENERS


def _split_line(line: str) -> list[str]:
    sentences = []
    start = 0
    for match in _BOUNDARY.finditer(line):
        if not _opens_sentence(match.group(3)):
            continue
        # The word before the punctuation: scanning back to the previous
        # whitespace keeps the split linear in the line length.
        end = match.end(1)
        begin = end
        while begin > 0 and not line[begin - 1].isspace():
            begin -= 1
        if line[begin:end].lstrip(_OPENERS).lower() in ABBREVIATIONS:
            continue
        sentence = line[start : match.end(1)].strip()
        if sentence:
            sentences.append(sentence)
        start = match.end(2)
    tail = line[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def split_sentences(text: str) -> list[str]:
    """Split cleaned text into sentences.

    Boundaries occur at sentence-final punctuation (. ! ? …) followed by
    whitespace and an uppercase or opening character, except after known
    abbreviations; a line break is always a boundary. Ordinal forms such
    as "1.º" never split because the period is not followed by whitespace.
    Joining the result with single separators preserves the non-whitespace
    content in order.
    """
    sentences: list[str] = []
    for line in text.split("\n"):
        if line.strip():
            sentences.extend(_split_line(line))
    return sentences


@dataclass(frozen=True)
class Chunk:
    """A packed training unit of at most max_tokens tokens.

    word_boundaries partitions [0, token_count) into contiguous ranges,
    one (start, end) pair per word; identity within a run is (doc_id, seq).
    token_ids, when present, are the ids from the tokenizer that built the
    chunk, so masking need not tokenize the text again; they are not part
    of the chunk's identity, equality or record.
    """

    doc_id: str
    seq: int
    text: str
    token_count: int
    word_boundaries: tuple[tuple[int, int], ...]
    token_ids: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.token_count <= 0:
            raise ValueError("a chunk must contain at least one token")
        expected = 0
        for start, end in self.word_boundaries:
            if start != expected or end <= start:
                raise ValueError("word_boundaries must partition the token range")
            expected = end
        if expected != self.token_count:
            raise ValueError("word_boundaries must cover exactly token_count tokens")
        if self.token_ids is not None and len(self.token_ids) != self.token_count:
            raise ValueError("token_ids must hold exactly token_count ids")

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "seq": self.seq,
            "text": self.text,
            "token_count": self.token_count,
        }


def word_ranges(tokens: list[Token]) -> tuple[tuple[int, int], ...]:
    """Group token indices into word ranges via the word-start flags.

    A leading continuation token (possible after a hard split) counts as
    starting its own word.
    """
    if not tokens:
        return ()
    starts = [i for i, tok in enumerate(tokens) if tok.is_word_start]
    if not starts or starts[0] != 0:
        starts.insert(0, 0)
    starts.append(len(tokens))
    return tuple((starts[i], starts[i + 1]) for i in range(len(starts) - 1))


def _word_ids(tokens: list[Token]) -> list[tuple[int, ...]]:
    """The ids of `tokens`, one tuple per word range."""
    ids = [tok.id for tok in tokens]
    return [tuple(ids[start:end]) for start, end in word_ranges(tokens)]


def _encoder(tokenizer: TokenizerInterface) -> Callable[[str], list[tuple[int, ...]]]:
    """text -> per-word id tuples: the tokenizer's `encode`, if it has one."""
    encode = getattr(tokenizer, "encode", None)
    if encode is not None:
        return encode
    return lambda text: _word_ids(tokenizer.tokenize(text))


def _make_chunk(
    doc_id: str, seq: int, text: str, words: list[tuple[int, ...]]
) -> Chunk:
    ends = tuple(accumulate(map(len, words)))
    return Chunk(
        doc_id=doc_id,
        seq=seq,
        text=text,
        token_count=ends[-1] if ends else 0,
        word_boundaries=tuple(zip((0, *ends), ends)),
        token_ids=tuple(chain.from_iterable(words)),
    )


def _failure(doc_id: str, text: str, exc: Exception) -> TokenizerFailure:
    return TokenizerFailure(doc_id, f"{exc} (text starts {text[:40]!r})")


def _run(tokenize: Callable[[str], _T], text: str, doc_id: str) -> _T:
    try:
        return tokenize(text)
    except Exception as exc:
        raise _failure(doc_id, text, exc) from exc


def _hard_split(
    sentence: str,
    tokens: Iterable[Token],
    budget: int,
    tokenizer: TokenizerInterface,
    doc_id: str,
) -> Iterator[tuple[str, list[tuple[int, ...]]]]:
    """Cut an oversized sentence at token boundaries into maximal pieces.

    Yields each piece's text and its per-word ids. A cut never looks
    more than budget + 1 tokens past the start of its piece, so `tokens`
    (the sentence's tokens, in order) is drawn through a window of at
    most budget + 1 of them; a lazy iterator keeps memory bounded by the
    budget. Cuts land on word starts whenever one exists within the
    budget. With a concat-stable tokenizer a piece that begins and ends
    at word starts keeps its slice of the window. Any other piece is
    re-tokenized: only a single word wider than the whole budget forces
    a mid-word cut, where the re-tokenized piece is authoritative and
    shrinks until it fits.
    """
    concat_stable = getattr(tokenizer, "concat_stable", False)
    tokens = iter(tokens)
    window: list[Token] = []
    while True:
        try:
            window += islice(tokens, budget + 1 - len(window))
        except Exception as exc:
            raise _failure(doc_id, sentence, exc) from exc
        if not window:
            return
        # A window short of budget + 1 tokens holds the sentence's last ones.
        size = len(window)
        take = min(budget, size)
        cut = take
        while cut > 0 and cut < size and not window[cut].is_word_start:
            cut -= 1
        if cut == 0:
            cut = take
        begin = window[0].start
        if (
            concat_stable
            and window[0].is_word_start
            and (cut == size or window[cut].is_word_start)
        ):
            piece_tokens = window[:cut]
            last = piece_tokens[-1]
            piece_text = sentence[begin : last.start + len(last.piece)]
        else:
            while cut > 0:
                last = window[cut - 1]
                piece_text = sentence[begin : last.start + len(last.piece)]
                piece_tokens = _run(tokenizer.tokenize, piece_text, doc_id)
                if len(piece_tokens) <= budget:
                    break
                cut -= 1
            if cut == 0:
                raise TokenizerFailure(
                    doc_id, f"cannot fit a single token within budget {budget}"
                )
        yield piece_text, _word_ids(piece_tokens)
        del window[:cut]


def pack_chunks(
    sentences: Iterable[str],
    tokenizer: TokenizerInterface,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    doc_id: str = "",
) -> list[Chunk]:
    """Greedily pack sentences left-to-right into token-budgeted chunks.

    The next sentence joins the current chunk iff the joined text stays
    within budget; otherwise the chunk is emitted and a new one starts.
    For a tokenizer that declares `concat_stable`, each sentence is
    encoded once and the joined count is the sum of the sentence counts.
    Otherwise per-sentence counts are never summed, since subword
    tokenizers are not concatenation-stable in general: the joined text
    is re-tokenized as a whole. Sentence order is preserved and chunks
    never cross document boundaries. Text is encoded to per-word ids with
    the tokenizer's `encode` when it has one; Token objects are built
    only for a sentence over the budget, to cut it, and at most
    budget + 1 of them live at once when the tokenizer has `iter_tokens`.

    The budget is max_tokens minus the tokenizer's reserved special-token
    count, so stored counts are content tokens only.
    """
    reserved = getattr(tokenizer, "reserved_special_count", 0)
    budget = max_tokens - reserved
    if budget <= 0:
        raise ValueError(
            f"max_tokens={max_tokens} leaves no room after {reserved} reserved tokens"
        )
    concat_stable = getattr(tokenizer, "concat_stable", False)
    encode = _encoder(tokenizer)
    # An oversized sentence is cut from its tokens, drawn lazily if possible.
    token_source = getattr(tokenizer, "iter_tokens", None) or tokenizer.tokenize
    chunks: list[Chunk] = []
    current_sents: list[str] = []
    # The joined text's ids, one tuple per word.
    current_words: list[tuple[int, ...]] = []
    current_count = 0

    def emit(text: str, words: list[tuple[int, ...]]) -> None:
        chunks.append(_make_chunk(doc_id, len(chunks), text, words))

    for sentence in sentences:
        sentence = sentence.strip()
        if not sentence:
            continue
        if concat_stable:
            words = _run(encode, sentence, doc_id)
            count = sum(map(len, words))
            if current_sents and current_count + count <= budget:
                current_sents.append(sentence)
                current_words += words
                current_count += count
                continue
        else:
            words = _run(encode, " ".join([*current_sents, sentence]), doc_id)
            count = sum(map(len, words))
            if count and count <= budget:
                current_sents.append(sentence)
                current_words, current_count = words, count
                continue
        if not count:
            continue
        if current_sents:
            emit(" ".join(current_sents), current_words)
            current_sents = []
            if not concat_stable:
                words = _run(encode, sentence, doc_id)
                count = sum(map(len, words))
        if count <= budget:
            current_sents, current_words, current_count = [sentence], words, count
            continue
        tokens = _run(token_source, sentence, doc_id)
        pieces = _hard_split(sentence, tokens, budget, tokenizer, doc_id)
        tail = next(pieces)
        for piece in pieces:
            emit(*tail)
            tail = piece
        # The final piece stays open so following sentences can pack onto it.
        tail_text, current_words = tail
        current_sents = [tail_text]
        current_count = sum(map(len, current_words))
    if current_sents:
        emit(" ".join(current_sents), current_words)
    return chunks


def chunk_document(
    doc: RawDocument,
    tokenizer: TokenizerInterface,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[Chunk]:
    """Split one document into sentences and pack them into chunks."""
    return pack_chunks(
        split_sentences(doc.text), tokenizer, max_tokens=max_tokens, doc_id=doc.id
    )


def validate_chunk_record(record: object) -> dict:
    """The record itself if it has the fields of a chunk record."""
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    for name, kind in (("doc_id", str), ("seq", int), ("text", str)):
        if not isinstance(record.get(name), kind):
            raise ValueError(f"field {name!r} must be a {kind.__name__}")
    token_count = record.get("token_count")
    if token_count is not None and not isinstance(token_count, int):
        raise ValueError("field 'token_count' must be an int")
    return record


def read_chunk_records(
    path,
    strict: bool = False,
    error_sink: list[MalformedRecord] | None = None,
) -> Iterator[dict]:
    """Stream the checked chunk records of a JSONL file, as `read_documents`."""
    with open(path, encoding="utf-8") as handle:
        checked = parse_records(handle, validate_chunk_record, strict, error_sink)
        for _, record in checked:
            yield record


def chunk_from_record(record: dict, tokenizer: TokenizerInterface) -> Chunk:
    """Rebuild a Chunk (with word boundaries and ids) from its serialized record.

    The stored token_count must match what the supplied tokenizer produces;
    a mismatch means the record was written with a different tokenizer.
    """
    words = _encoder(tokenizer)(record["text"])
    chunk = _make_chunk(record["doc_id"], int(record["seq"]), record["text"], words)
    stored = record.get("token_count")
    if stored is not None and int(stored) != chunk.token_count:
        raise ValueError(
            f"chunk {chunk.doc_id}:{chunk.seq} token_count {stored} does not match "
            f"this tokenizer ({chunk.token_count}); wrong --tokenizer?"
        )
    return chunk
