"""Tokenizer interface and the bundled deterministic reference tokenizer.

Chunking and masking only require the behavioral interface below; any
production subword tokenizer can be adapted to it. The bundled
VocabTokenizer splits on whitespace and punctuation, then segments each
word by greedy longest-match against a fixed vocabulary, so tests and
pipeline runs are reproducible with no model download.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import NamedTuple, Protocol, runtime_checkable


class Token(NamedTuple):
    """One subword token.

    `piece` is the exact surface text and `start` its character offset in
    the tokenized string; together they let the chunker slice oversized
    sentences at token boundaries without a separate detokenizer.
    """

    id: int
    is_word_start: bool
    piece: str
    start: int


@runtime_checkable
class TokenizerInterface(Protocol):
    """What the chunker and masker need from a tokenizer.

    tokenize("") must return []. One packer serves every tokenizer: it
    packs sentences by the sum of their counts, and an oversized sentence
    by the summed counts of its words, with one greedy rule. A tokenizer
    class may declare `concat_stable = True` when, for any two texts a
    and b without leading or trailing whitespace, tokenize(a + " " + b)
    has the ids and word-start flags of tokenize(a) followed by those of
    tokenize(b), and when cutting a text just before a word-start token
    splits its token stream there. Concatenation stability is not
    assumed: without the declaration each packed chunk's text is
    tokenized once, the chunk carries those ids, and a chunk that counts
    over the budget is hard-split; the declaration only skips that
    tokenize. Chunks then differ from the declared path's only where
    joining with a space adds or removes tokens.

    A tokenizer may also provide `encode(text) -> list[tuple[int, ...]]`:
    the ids of tokenize(text), one tuple per word, each starting at a
    word-start token, and `iter_words(text) -> Iterator[tuple[int, int,
    tuple[int, ...]]]`: `(start, end, ids)` for each word of
    `encode(text)`, one at a time, where text[start:end] is the word.
    Chunking and chunk records use them when present and build no Token
    objects; without them the tokens of one `tokenize` call are grouped
    by `group_words`. It may also provide `iter_tokens(text) ->
    Iterator[Token]`: the tokens of tokenize(text), drawn one at a time.
    The chunker hard-splits a word wider than the whole budget (or, for a
    tokenizer that is not concat-stable, a chunk that counts over it)
    from it, holding at most budget + 1 tokens at once and tokenizing
    each piece again; without it the `tokenize` list goes through the
    same cut.
    `reserved_special_count` is how many special tokens the tokenizer
    adds per sequence (0 for the reference tokenizer); chunk packing
    budgets content tokens against max_tokens minus this count.
    """

    vocab_size: int
    mask_token_id: int
    special_token_ids: frozenset[int]
    reserved_special_count: int

    def tokenize(self, text: str) -> list[Token]: ...


def group_words(tokens: Sequence[Token]) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """`(start, end, ids)` for each word of `tokens`, in order.

    A word runs from a word-start token up to the next one and spans its
    first token's start to its last token's end. A leading continuation
    token (possible after a hard split) starts a word of its own.
    """
    ids = [token.id for token in tokens]
    starts = [i for i, token in enumerate(tokens) if token.is_word_start or not i]
    for start, end in zip(starts, [*starts[1:], len(tokens)]):
        last = tokens[end - 1]
        yield tokens[start].start, last.start + len(last.piece), tuple(ids[start:end])


def encoder(tokenizer: TokenizerInterface) -> Callable[[str], list[tuple[int, ...]]]:
    """text -> the ids of its tokens, one tuple per word.

    The tokenizer's `encode` when it has one, so no Token is built;
    otherwise the tokens of its `tokenize`, grouped by their word starts.
    """
    encode = getattr(tokenizer, "encode", None)
    if encode is not None:
        return encode
    return lambda text: [ids for _, _, ids in group_words(tokenizer.tokenize(text))]


PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
SPECIAL_PIECES = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

# A maximal run of isalnum characters (a word to segment) or one other
# non-whitespace character (a token of its own): `\w` is isalnum plus "_"
# and `\s` is isspace.
_WORD_OR_MARK = re.compile(r"[^\W_]+|\S")

# Letters in the longest word natural text has; a longer one is a glued run
# such as PDF extraction leaves, or a piece cut from one, which no later
# text is likely to repeat. The tokenizer's word table admits no longer
# word, and the language gate streams a longer word's n-grams.
LONG_WORD = 64

# Most characters the words in the tokenizer's word table hold together:
# a new word is kept while it fits, and the table is never cleared. A word
# counts as at least WORD_ENTRY_CHARS characters, for its entry's own
# overhead, so at most 65,536 words fit.
WORD_TABLE_CHARS = 524288
WORD_ENTRY_CHARS = 8

# Token's generated __new__ is a Python function; building the tuple
# directly saves a call per token.
_new_token = tuple.__new__

_SINGLE_CHARS = (
    "abcdefghijklmnopqrstuvwxyz"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "0123456789"
    "áéíóúüñçàèìòùâêîôûëïäöãõ"
    "ÁÉÍÓÚÜÑÇÀÈÌÒÙÂÊÎÔÛËÏÄÖÃÕ"
    "ºª"
    ".,;:!?¿¡()[]{}«»\"'`´‘’“”%&+-*/=<>|_#@€$§·…–—"
)

# Frequent Spanish (and shared Romance) character chunks, longest first in
# effect via greedy matching. Kept to <= 4 chars so lookup stays bounded.
_CHUNKS = (
    "ción sión ment ente idad ador edad ible able ario aria "
    "ión ció cio nte ent ado ada ido ida aci ici oci los las del con por par "
    "que est pre pro com tra ter tor dad tad men res ser era ara ura ore ant "
    "end and ond ist ust ons ien ier ial ual cia cía ría tic tiv dis des sub "
    "per ver vol val gen leg jur art nor bol "
    "de la el en es os as al ar er ir or ón an on ad id ic ci ca co cu ce da "
    "do du di le lo li lu ma me mi mo mu na ne ni no nu pa pe pi po pu ra re "
    "ri ro ru sa se si so su ta te ti to tu ba be bi bo bu ga ge gi go gu ha "
    "he hi ho hu ja je jo ju va ve vi vo za zo ue ui ia io iu ea eo st tr pr "
    "pl bl br cr dr fr gr fl gl cl qu ll rr ch nt nd ns mb mp ct sc sp"
).split()


def default_pieces() -> list[str]:
    """The bundled vocabulary, in canonical id order (dedup keeps first)."""
    seen: dict[str, None] = {}
    for piece in list(_SINGLE_CHARS) + _CHUNKS:
        seen.setdefault(piece, None)
    return list(seen)


class VocabTokenizer:
    """Greedy longest-match subword tokenizer over a fixed vocabulary.

    Words are whitespace-delimited; punctuation characters split off as
    words of their own. Characters not covered by any piece map to [UNK]
    (the surface character is still carried in the token's piece field).
    Instances are safe for concurrent read-only use.

    Tokens never span whitespace and depend only on their own word, so
    joining two texts with a space concatenates their token streams.

    `encode` is the fast path: one tuple of piece ids per word, looked up
    in a table from each word seen to its ids, so a repeated word is
    segmented once. The table holds ids only (no pieces, offsets or
    flags) of words of at most LONG_WORD characters. A new word is kept
    while the table's words stay within WORD_TABLE_CHARS characters, each
    counted as at least WORD_ENTRY_CHARS, and the table is never cleared,
    so it stays small however long or short the words are and a corpus
    whose vocabulary outgrows it does not thrash. A word that no longer
    fits is segmented each time. Only the last longer word is kept,
    beside the table: a glued run is segmented whole once, as it is
    counted, and the cut between its tokens reuses those ids. Each piece
    cut from it is segmented again as it is tokenized to check its fit,
    and replaces the run as the word kept, so the run's letters are
    segmented twice in all.
    `iter_words` yields the same ids word by word, with each word's span;
    `iter_tokens` expands its words into full tokens, one at a time, and
    `tokenize` lists them.
    """

    reserved_special_count = 0
    concat_stable = True

    def __init__(self, pieces: Sequence[str] | None = None):
        if pieces is None:
            pieces = default_pieces()
        if len(set(pieces)) != len(pieces):
            raise ValueError("vocabulary pieces must be unique")
        if any(p in SPECIAL_PIECES for p in pieces):
            raise ValueError("special tokens are implicit; do not list them")
        self._piece_ids = {p: i + len(SPECIAL_PIECES) for i, p in enumerate(pieces)}
        # Indexed by id; the [UNK] entry is never read, since an unknown
        # piece is its own single character.
        self._pieces = (*SPECIAL_PIECES, *pieces)
        self._max_piece_len = max((len(p) for p in pieces), default=1)
        self.vocab_size = len(SPECIAL_PIECES) + len(pieces)
        self.mask_token_id = MASK
        self.special_token_ids = frozenset(range(len(SPECIAL_PIECES)))
        self._word_ids: dict[str, tuple[int, ...]] = {}
        self._word_chars = 0
        # The last word longer than LONG_WORD and its ids: the table does
        # not keep such a word, but packing looks it up again to cut it.
        self._long_word: tuple[str, tuple[int, ...]] = ("", ())

    @classmethod
    def from_file(cls, path) -> "VocabTokenizer":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        pieces = data.get("pieces") if isinstance(data, dict) else None
        strings = isinstance(pieces, list) and all(isinstance(p, str) for p in pieces)
        if not strings or "" in pieces:
            raise ValueError(f"{path}: 'pieces' must be a list of non-empty strings")
        return cls(pieces)

    def save(self, path) -> None:
        # Imported here: `corpus` imports this module (for `encoder`).
        from .corpus import published

        pieces = list(self._pieces[len(SPECIAL_PIECES) :])
        data = {"special_tokens": list(SPECIAL_PIECES), "pieces": pieces}
        with published(path) as (handle,):
            json.dump(data, handle, ensure_ascii=False, indent=1)
            handle.write("\n")

    def encode(self, text: str) -> list[tuple[int, ...]]:
        """The piece ids of each word of `text`, one tuple per word.

        A punctuation mark (any non-space character outside a word) is a
        word of one token. The first id of each tuple is the word start.
        """
        words = _WORD_OR_MARK.findall(text)
        encoded = list(map(self._word_ids.get, words))
        if None in encoded:
            segment = self._segment
            for i, ids in enumerate(encoded):
                if ids is None:
                    encoded[i] = segment(words[i])
        return encoded

    def iter_words(self, text: str) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """`(start, end, ids)` for each word of `text`, one at a time.

        `text[start:end]` is the word and `ids` its tuple of `encode`,
        looked up in the word table.
        """
        lookup = self._word_ids.get
        for match in _WORD_OR_MARK.finditer(text):
            word = match.group()
            yield match.start(), match.end(), lookup(word) or self._segment(word)

    def iter_tokens(self, text: str) -> Iterator[Token]:
        """The tokens of `text`, one at a time, as `tokenize` lists them."""
        pieces = self._pieces
        for start, _, ids in self.iter_words(text):
            offset = start
            for piece_id in ids:
                piece = text[offset] if piece_id == UNK else pieces[piece_id]
                yield _new_token(Token, (piece_id, offset == start, piece, offset))
                offset += len(piece)

    def tokenize(self, text: str) -> list[Token]:
        return list(self.iter_tokens(text))

    def _segment(self, word: str) -> tuple[int, ...]:
        """Greedy longest-match ids of a word missing from the table."""
        n = len(word)
        if n > LONG_WORD and word == self._long_word[0]:
            return self._long_word[1]
        piece_ids, longest = self._piece_ids, self._max_piece_len
        ids: list[int] = []
        # word[i:end] is the slice tried: the longest first, then one
        # character shorter while no piece matches; one character is UNK.
        i, end = 0, min(longest, n)
        while i < end:
            piece_id = piece_ids.get(word[i:end])
            if piece_id is None:
                if end - i > 1:
                    end -= 1
                    continue
                piece_id = UNK
            ids.append(piece_id)
            i, end = end, min(end + longest, n)
        result = tuple(ids)
        if n > LONG_WORD:
            self._long_word = (word, result)
            return result
        charge = max(n, WORD_ENTRY_CHARS)
        if self._word_chars + charge <= WORD_TABLE_CHARS:
            self._word_ids[word] = result
            self._word_chars += charge
        return result
