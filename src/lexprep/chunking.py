"""Sentence splitting and greedy packing into token-budgeted chunks.

Texts are split into sentences, then consecutive sentences are appended
into one training unit for as long as the sum of their token counts
stays within the budget, so sequences are dense without mid-sentence
truncation. A single sentence longer than the whole budget is cut into
maximal pieces rather than dropped, by the same greedy function over its
words, so only a word wider than the whole budget is hard-split at token
boundaries. The hard split draws its tokens through a window of at most
budget + 1 of them, so the tokens held at once are bounded by the
budget, not by the length of the word, and encodes every piece again.
This one packer serves every tokenizer. For one that does not declare
itself concatenation-stable, each unit's joined text is then tokenized
once, the unit carries those ids, and a unit that counts over the budget
(joining added tokens) is hard-split; a piece the hard split emitted is
not tokenized again. Chunks are yielded as they are cut
(`iter_chunks`), and a sentence is encoded only until its count passes
the budget, so the memory of packing is bounded by a chunk, not by the
document. An error while a chunk is cut becomes a `TokenizerFailure`:
"<cause> (cutting chunk <seq>)"; one raised by the caller's sentences is
raised as it is.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Generator, Iterable, Iterator
from itertools import accumulate, chain, islice
from typing import TypeVar

from .corpus import RawDocument, check_utf8
from .errors import TokenizerFailure
from .tokenizers import Token, TokenizerInterface, encoder, group_words
from .values import FrozenValue

_K = TypeVar("_K")
# A piece's text and its ids, one tuple per word.
_Piece = tuple[str, list[tuple[int, ...]]]


class _Encoded(tuple):
    """A piece that `_hard_split` cut and encoded alone: its ids are its text's."""

    __slots__ = ()


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
        start = seen = 0
        for match in _BOUNDARY.finditer(line):
            # The word before the punctuation. No word crosses the whitespace
            # a match consumed, so it lies after the previous match, and the
            # segments searched keep the split linear in the line length.
            end = match.end(1)
            word = line[seen:end].rsplit(None, 1)[-1]
            seen = match.end()
            opener = match.group(3)
            if not (opener.isupper() or opener in _OPENERS):
                continue
            if word.lstrip(_OPENERS).lower() in ABBREVIATIONS:
                continue
            sentence = line[start:end].strip()
            if sentence:
                sentences.append(sentence)
            start = seen
        tail = line[start:].strip()
        if tail:
            sentences.append(tail)
    return sentences


class Chunk(FrozenValue):
    """A packed training unit of at most max_tokens tokens.

    token_ids are always the ids the chunk was cut or decoded with, so
    masking never tokenizes its text again, and token_count is their
    number. word_boundaries partitions [0, token_count) into contiguous
    ranges, one (start, end) pair per word; identity within a run is
    (doc_id, seq). The ids are not part of the chunk's equality or record.
    """

    __slots__ = ("doc_id", "seq", "text", "word_boundaries", "token_ids")
    _compared = __slots__[:4]

    def __init__(
        self,
        doc_id: str,
        seq: int,
        text: str,
        word_boundaries: tuple[tuple[int, int], ...],
        token_ids: tuple[int, ...],
    ):
        if not token_ids:
            raise ValueError("a chunk must contain at least one token")
        expected = 0
        for start, end in word_boundaries:
            if start != expected or end <= start:
                raise ValueError("word_boundaries must partition the token range")
            expected = end
        if expected != len(token_ids):
            raise ValueError("word_boundaries must cover exactly token_count tokens")
        self._set_fields(doc_id, seq, text, word_boundaries, token_ids)

    @property
    def token_count(self) -> int:
        return len(self.token_ids)

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "seq": self.seq,
            "text": self.text,
            "token_count": self.token_count,
        }


def _make_chunk(
    doc_id: str, seq: int, text: str, words: list[tuple[int, ...]]
) -> Chunk:
    ends = tuple(accumulate(map(len, words)))
    return Chunk(
        doc_id=doc_id,
        seq=seq,
        text=text,
        word_boundaries=tuple(zip((0, *ends), ends)),
        token_ids=tuple(chain.from_iterable(words)),
    )


def _hard_split(
    sentence: str, tokens: Iterable[Token], budget: int, tokenizer: TokenizerInterface
) -> Iterator[_Piece]:
    """Cut an oversized text at token boundaries into maximal pieces.

    Yields each piece's text and its per-word ids. A cut never looks
    more than budget + 1 tokens past the start of its piece, so `tokens`
    (the text's tokens, in order) is drawn through a window of at most
    budget + 1 of them; a lazy iterator keeps memory bounded by the
    budget. Cuts land on word starts whenever one exists within the
    budget. Every piece is encoded again (`encoder`), and its ids are
    authoritative: a piece that does not fit shrinks until it does.
    """
    encode = encoder(tokenizer)
    tokens = iter(tokens)
    window: list[Token] = []
    while True:
        window += islice(tokens, budget + 1 - len(window))
        if not window:
            return
        # A window short of budget + 1 tokens holds the text's last ones.
        size = len(window)
        take = min(budget, size)
        cut = take
        while cut > 0 and cut < size and not window[cut].is_word_start:
            cut -= 1
        if cut == 0:
            cut = take
        begin = window[0].start
        while cut > 0:
            last = window[cut - 1]
            piece_text = sentence[begin : last.start + len(last.piece)]
            words = encode(piece_text)
            if sum(map(len, words)) <= budget:
                break
            cut -= 1
        if cut == 0:
            raise ValueError(f"cannot fit a single token within budget {budget}")
        yield _Encoded((piece_text, words))
        del window[:cut]


def _all_but_last(pieces: Iterator[_Piece]) -> Generator[_Piece, None, _Piece]:
    """Yield every piece of a cut but the last, as it is, and return the last."""
    piece = next(pieces)
    for following in pieces:
        yield piece
        piece = following
    return piece


def _pack(
    units: Iterable[tuple[_K, Iterable[tuple[int, ...]], int]],
    budget: int,
    cut: Callable[[_K], Iterator[_Piece]],
    close: Callable[[list[_K]], str],
    reopen: Callable[[_K, str], _K],
) -> Iterator[_Piece]:
    """Pack units greedily, left to right, into pieces of at most budget tokens.

    A unit is a key, its ids (one tuple per word) and its token count.
    `close` makes a piece's text from the keys of its units. A unit joins
    the open piece iff the summed count stays within the budget, but a
    unit with no token never opens a piece. A unit wider than the whole
    budget closes the open piece and is cut by `cut(key)` into pieces of
    text and ids: every piece but the last is emitted, and the last stays
    open, as the key `reopen(key, text)`, for the units after it. Yields
    each piece's text and ids.
    """
    keys: list[_K] = []
    words: list[tuple[int, ...]] = []
    count = 0
    for key, ids, width in units:
        if count + width <= budget:
            if keys or width:
                keys.append(key)
                words += ids
                count += width
            continue
        if keys:
            yield close(keys), words
        if width <= budget:
            keys, words, count = [key], [*ids], width
            continue
        # The cut draws the unit again; its ids go now.
        del ids
        text, words = yield from _all_but_last(cut(key))
        keys, count = [reopen(key, text)], sum(map(len, words))
    if keys:
        yield close(keys), words


# A sentence longer than _ENCODE_SLICE characters is encoded in slices of
# about that many, each cut at a space between two words; tokens never
# cross it, so the slices' ids concatenate to the sentence's. Encoding
# stops once the count passes the budget: such a sentence is cut by its
# words, so its whole list of ids is never built.
_ENCODE_SLICE = 4096
_SLICE_CUT = re.compile(r"(?<=\S) (?=\S)")


def _encode_within(
    encode: Callable[[str], list[tuple[int, ...]]], sentence: str, budget: int
) -> tuple[list[tuple[int, ...]], int]:
    """`encode(sentence)` and its count, or a prefix once the count passes budget."""
    words: list[tuple[int, ...]] = []
    count = 0
    start = 0
    while count <= budget:
        cut = _SLICE_CUT.search(sentence, start + _ENCODE_SLICE)
        end = len(sentence) if cut is None else cut.start()
        part = encode(sentence[start:end])
        words += part
        count += sum(map(len, part))
        if cut is None:
            break
        start = end + 1
    return words, count


def _packed_by_counts(
    sentences: Iterable[str], tokenizer: TokenizerInterface, budget: int
) -> Iterator[_Piece]:
    """`_pack` over the sentences, each encoded once, and an oversized one's words.

    A sentence is encoded no further than its count passing the budget
    (`_encode_within`). The words of an oversized one are the tokenizer's
    `iter_words`, or else those of one `tokenize` call, and a piece's text
    is sliced from the sentence by their spans. Only a word wider than the
    whole budget is cut by `_hard_split`, from its tokens (`iter_tokens`,
    or else `tokenize`).
    """
    encode = encoder(tokenizer)
    words_of = getattr(tokenizer, "iter_words", None) or (
        lambda text: group_words(tokenizer.tokenize(text))
    )
    tokens_of = getattr(tokenizer, "iter_tokens", None) or tokenizer.tokenize

    def cut_sentence(sentence: str) -> Iterator[_Piece]:
        def cut_word(span: tuple[int, int]) -> Iterator[_Piece]:
            word = sentence[span[0] : span[1]]
            return _hard_split(word, tokens_of(word), budget, tokenizer)

        words = words_of(sentence)
        return _pack(
            (((start, end), (ids,), len(ids)) for start, end, ids in words),
            budget,
            cut_word,
            lambda spans: sentence[spans[0][0] : spans[-1][1]],
            # The last piece of a word ends where the word does.
            lambda span, text: (span[1] - len(text), span[1]),
        )

    units = (
        (sentence, *_encode_within(encode, sentence, budget))
        for sentence in filter(None, map(str.strip, sentences))
    )
    return _pack(units, budget, cut_sentence, " ".join, lambda _, text: text)


def _verified(
    pieces: Iterable[_Piece], tokenizer: TokenizerInterface, budget: int
) -> Iterator[_Piece]:
    """Each piece with the ids of its text tokenized once, cut if they pass budget.

    For a tokenizer that does not declare `concat_stable`, whose joined
    count may not be the sum `_pack` counted: a piece's ids are those of
    its whole text, and a piece whose text counts over the budget
    (joining its sentences added tokens) is cut by `_hard_split`. A piece
    that `_hard_split` emitted was encoded alone and fits, so it passes
    as it is; the last piece of a cut stayed open, so it is checked.
    """
    encode = encoder(tokenizer)
    tokens_of = getattr(tokenizer, "iter_tokens", None) or tokenizer.tokenize
    for piece in pieces:
        if type(piece) is _Encoded:
            yield piece
            continue
        text = piece[0]
        words = encode(text)
        if sum(map(len, words)) <= budget:
            yield text, words
        else:
            yield from _hard_split(text, tokens_of(text), budget, tokenizer)


def chunk_budget(tokenizer: TokenizerInterface, max_tokens: int) -> int:
    """max_tokens less the tokenizer's reserved tokens; ValueError if none is left."""
    reserved = getattr(tokenizer, "reserved_special_count", 0)
    if max_tokens <= reserved:
        raise ValueError(
            f"max_tokens={max_tokens} leaves no room after {reserved} reserved tokens"
        )
    return max_tokens - reserved


def iter_chunks(
    sentences: Iterable[str],
    tokenizer: TokenizerInterface,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    doc_id: str = "",
) -> Iterator[Chunk]:
    """Greedily pack sentences left-to-right into token-budgeted chunks.

    Yields each chunk as it is cut, so a caller that takes them one at a
    time holds one chunk of a document, not all of them. One packer
    serves every tokenizer: the next sentence joins the current chunk
    iff the sum of the sentence counts stays within budget; otherwise
    the chunk is emitted and a new one starts. An oversized sentence is
    cut by the same greedy rule over its words. For a tokenizer that
    does not declare `concat_stable`, each chunk's joined text is then
    tokenized once and the chunk carries those ids; one whose text
    counts over the budget, because joining added tokens, is hard-split.
    So its chunks equal the declared path's unless joining with a space
    adds or removes tokens. Sentence order is preserved and chunks never
    cross document boundaries. Text is encoded to per-word ids with the
    tokenizer's `encode` when it has one; Token objects are built only
    for a hard split.

    The budget is max_tokens minus the tokenizer's reserved special-token
    count, so stored counts are content tokens only. An error while a
    chunk is cut is raised as a `TokenizerFailure` naming doc_id and seq,
    unless `sentences` raised it: that one is raised as it is.
    """
    budget = chunk_budget(tokenizer, max_tokens)
    # An error that `sentences` raises is the caller's, not the tokenizer's.
    sentence_errors: list[Exception] = []

    def drawn(sentences: Iterable[str]) -> Iterator[str]:
        try:
            yield from sentences
        except Exception as exc:
            sentence_errors.append(exc)
            raise

    pieces = _packed_by_counts(drawn(sentences), tokenizer, budget)
    if not getattr(tokenizer, "concat_stable", False):
        pieces = _verified(pieces, tokenizer, budget)

    def chunks() -> Iterator[Chunk]:
        seq = 0
        while True:
            try:
                piece = next(pieces)
            except StopIteration:
                return
            except Exception as exc:
                if exc in sentence_errors:
                    raise
                raise TokenizerFailure(doc_id, f"{exc} (cutting chunk {seq})") from exc
            yield _make_chunk(doc_id, seq, *piece)
            seq += 1

    return chunks()


def pack_chunks(
    sentences: Iterable[str],
    tokenizer: TokenizerInterface,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    doc_id: str = "",
) -> list[Chunk]:
    """The chunks of `iter_chunks`, in a list."""
    return list(iter_chunks(sentences, tokenizer, max_tokens, doc_id))


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
    """The record itself if it has the fields of a chunk record.

    Its strings must be writable as UTF-8, and its text must not be blank:
    blank text holds no token, so it makes no chunk.
    """
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    # JSON's true and false are no numbers, though Python counts a bool an int.
    optional = () if record.get("token_count") is None else (("token_count", int),)
    for name, kind in (("doc_id", str), ("seq", int), ("text", str), *optional):
        value = record.get(name)
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "a string" if kind is str else "an integer"
            raise ValueError(f"field {name!r} must be {noun}")
    for name in ("doc_id", "text"):
        check_utf8(name, record[name])
    text = record["text"]
    if not text or text.isspace():
        raise ValueError("field 'text' must not be blank")
    return record


def chunk_from_record(
    record: dict, tokenizer: TokenizerInterface, validated: bool = False
) -> Chunk:
    """Rebuild a Chunk (with word boundaries and ids) from its serialized record.

    The record must pass `validate_chunk_record`, which runs here unless
    `validated` says it already has; nothing in it is coerced.
    The stored token_count must match what the supplied tokenizer produces;
    a mismatch means the record was written with a different tokenizer.
    """
    if not validated:
        validate_chunk_record(record)
    words = encoder(tokenizer)(record["text"])
    chunk = _make_chunk(record["doc_id"], record["seq"], record["text"], words)
    stored = record.get("token_count")
    if stored is not None and stored != chunk.token_count:
        raise ValueError(
            f"chunk {chunk.doc_id}:{chunk.seq} token_count {stored} does not match "
            f"this tokenizer ({chunk.token_count}); wrong --tokenizer?"
        )
    return chunk
