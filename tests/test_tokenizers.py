"""Reference tokenizer behavior and vocabulary persistence."""

import json
import random
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexprep.chunking import pack_chunks
from lexprep.tokenizers import (
    LONG_WORD,
    MASK,
    SPECIAL_PIECES,
    Token,
    TokenizerInterface,
    UNK,
    WORD_ENTRY_CHARS,
    WORD_TABLE_CHARS,
    VocabTokenizer,
    _WORD_OR_MARK,
    default_pieces,
)

_words_text = st.text(
    alphabet=st.sampled_from(list("abcdeéñz .,\n\t(¿?")), max_size=60
)

# Characters where isalnum, isspace and the regex classes could plausibly
# part ways: underscore, superscript and non-ASCII digits, fractions and
# Roman numerals, combining marks, NBSP and other Unicode spaces, the
# zero-width space (not a space), the ASCII separators (spaces) and letters
# whose case mapping changes length.
_AWKWARD = list(
    "_²³¹٣½Ⅻ\u0301\u0327\u00a0\u2003\u3000\u202f\u200b\u2028\x1c\x1f\x85"
    "ßİﬁ ab1éñ.,¿?\n\t"
)
_awkward_text = st.text(
    alphabet=st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=80
)


def _reference_tokenize(text: str) -> list[Token]:
    """The per-character scan that the single regex pass replaced."""
    piece_ids = {p: i + len(SPECIAL_PIECES) for i, p in enumerate(default_pieces())}
    max_len = max(len(p) for p in piece_ids)
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if not ch.isalnum():
            tokens.append(Token(piece_ids.get(ch, UNK), True, ch, pos))
            pos += 1
            continue
        end = pos + 1
        while end < len(text) and text[end].isalnum():
            end += 1
        i = pos
        while i < end:
            for take in range(min(max_len, end - i), 0, -1):
                if text[i : i + take] in piece_ids:
                    piece = text[i : i + take]
                    tokens.append(Token(piece_ids[piece], i == pos, piece, i))
                    i += take
                    break
            else:
                tokens.append(Token(UNK, i == pos, text[i], i))
                i += 1
        pos = end
    return tokens


def test_empty_text_yields_no_tokens(tokenizer):
    assert tokenizer.tokenize("") == []
    assert tokenizer.tokenize("   \n\t ") == []


def test_satisfies_interface(tokenizer):
    assert isinstance(tokenizer, TokenizerInterface)
    assert tokenizer.reserved_special_count == 0
    assert tokenizer.mask_token_id == MASK
    assert tokenizer.special_token_ids == frozenset(range(len(SPECIAL_PIECES)))


def test_word_start_flags(tokenizer):
    tokens = tokenizer.tokenize("información de")
    assert tokens[0].is_word_start
    assert not any(t.is_word_start for t in tokens[1 : -1])
    assert tokens[-1].is_word_start
    assert tokens[-1].piece == "de"


def test_punctuation_splits_off(tokenizer):
    tokens = tokenizer.tokenize("ley, art.")
    pieces = [t.piece for t in tokens]
    assert "," in pieces
    assert "." in pieces
    assert all(t.is_word_start for t in tokens if t.piece in ",.")


def test_offsets_and_pieces_reconstruct_text(tokenizer):
    text = "El art. 5, (¿vigente?) se publicará."
    for token in tokenizer.tokenize(text):
        assert text[token.start : token.start + len(token.piece)] == token.piece


@given(_words_text)
def test_offsets_cover_non_whitespace(tokenizer, text):
    tokens = tokenizer.tokenize(text)
    covered = "".join(t.piece for t in tokens)
    assert covered == "".join(text.split())


@given(_words_text)
def test_deterministic(tokenizer, text):
    assert tokenizer.tokenize(text) == tokenizer.tokenize(text)


@settings(deadline=None)
@given(_awkward_text)
def test_matches_per_character_scan(tokenizer, text):
    assert tokenizer.tokenize(text) == _reference_tokenize(text)


def test_word_or_mark_pattern_on_every_code_point():
    # The scan's words are the isalnum runs; every other non-space
    # character is a token of its own.
    text = "".join(map(chr, range(0x110000)))
    expected = []
    for alnum, run in groupby(text, key=str.isalnum):
        if alnum:
            expected.append("".join(run))
        else:
            expected.extend(ch for ch in run if not ch.isspace())
    assert _WORD_OR_MARK.findall(text) == expected


def test_declares_concat_stable(tokenizer):
    assert VocabTokenizer.concat_stable is True
    a, b = "El art. 5, (¿vigente?)", "información_pública x² café"
    joined = tokenizer.tokenize(a + " " + b)
    split = tokenizer.tokenize(a) + tokenizer.tokenize(b)
    assert [(t.id, t.is_word_start) for t in joined] == [
        (t.id, t.is_word_start) for t in split
    ]


def test_unknown_characters_map_to_unk(tokenizer):
    tokens = tokenizer.tokenize("правило")
    assert tokens
    assert all(t.id == UNK for t in tokens)
    assert "".join(t.piece for t in tokens) == "правило"


def test_no_specials_in_output(tokenizer):
    tokens = tokenizer.tokenize("de la ley artículo cinco")
    assert all(t.id not in tokenizer.special_token_ids for t in tokens)


def test_greedy_longest_match():
    tok = VocabTokenizer(pieces=["abcd", "ab", "cd", "a", "b", "c", "d"])
    pieces = [t.piece for t in tok.tokenize("abcd abc")]
    assert pieces == ["abcd", "ab", "c"]


def test_vocab_round_trip(tmp_path, tokenizer):
    path = tmp_path / "vocab.json"
    tokenizer.save(path)
    restored = VocabTokenizer.from_file(path)
    assert restored.vocab_size == tokenizer.vocab_size
    text = "disposición transitoria"
    assert restored.tokenize(text) == tokenizer.tokenize(text)


def test_save_publishes_whole_or_not_at_all(tmp_path, tokenizer, monkeypatch):
    path = tmp_path / "vocab.json"
    path.write_text("old", encoding="utf-8")

    def failing_dump(data, handle, **kwargs):
        handle.write("{")
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError):
        tokenizer.save(path)
    monkeypatch.undo()
    assert path.read_text(encoding="utf-8") == "old"
    tokenizer.save(path)
    assert VocabTokenizer.from_file(path).vocab_size == tokenizer.vocab_size
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.json"]


def test_from_file_rejects_non_vocab(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ValueError):
        VocabTokenizer.from_file(path)


def test_from_file_names_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"pieces": [', encoding="utf-8")
    with pytest.raises(ValueError, match="bad.json is not valid JSON"):
        VocabTokenizer.from_file(path)


def test_duplicate_pieces_rejected():
    with pytest.raises(ValueError):
        VocabTokenizer(pieces=["ab", "ab"])


def test_explicit_special_pieces_rejected():
    with pytest.raises(ValueError):
        VocabTokenizer(pieces=["[MASK]", "ab"])


def test_token_fields():
    token = Token(id=7, is_word_start=True, piece="ley", start=4)
    assert token.id == 7
    assert token.piece == "ley"
    assert token.start == 4


def _word_groups(tokens: list[Token]) -> list[tuple[int, ...]]:
    groups: list[list[int]] = []
    for token in tokens:
        if token.is_word_start:
            groups.append([token.id])
        else:
            groups[-1].append(token.id)
    return [tuple(group) for group in groups]


@settings(deadline=None)
@given(_awkward_text)
def test_encode_groups_the_ids_of_tokenize(text):
    fresh = VocabTokenizer()
    # The first call segments every word, the later calls look them up.
    encoded = fresh.encode(text)
    tokens = fresh.tokenize(text)
    assert encoded == _word_groups(tokens) == fresh.encode(text)
    assert tokens == _reference_tokenize(text)


@settings(deadline=None)
@given(_awkward_text)
def test_iter_words_yields_the_words_of_encode_with_their_spans(text):
    fresh = VocabTokenizer()
    # The first pass segments every word, the second looks them up.
    for words in (list(fresh.iter_words(text)), list(fresh.iter_words(text))):
        assert [ids for _, _, ids in words] == fresh.encode(text)
        # Each span slices out its word: the pieces of the word's tokens.
        tokens = iter(_reference_tokenize(text))
        for start, end, ids in words:
            pieces = [next(tokens) for _ in ids]
            assert pieces[0].start == start
            assert text[start:end] == "".join(token.piece for token in pieces)
        assert next(tokens, None) is None


def test_encode_marks_digits_underscores_and_unknowns(tokenizer):
    text = "art_5 12º, ¿x²? правило…"
    encoded = tokenizer.encode(text)
    assert encoded == _word_groups(tokenizer.tokenize(text))
    words = _WORD_OR_MARK.findall(text)
    assert len(encoded) == len(words)
    for word, ids in zip(words, encoded):
        if not word.isalnum():
            assert len(ids) == 1
    assert encoded[words.index("правило")] == (UNK,) * len("правило")


def test_word_table_holds_id_tuples_and_keeps_them_when_full():
    tok = VocabTokenizer()
    # Words of 8 characters that fill the table exactly.
    words = [f"w{i:07d}" for i in range(WORD_TABLE_CHARS // 8)]
    encoded = tok.encode(" ".join(words))
    table = tok._word_ids
    assert len(table) == WORD_TABLE_CHARS // 8
    assert sum(map(len, table)) == WORD_TABLE_CHARS
    assert all(
        type(ids) is tuple and ids and all(type(i) is int for i in ids)
        for ids in table.values()
    )
    assert tok.encode("palabra") == _word_groups(tok.tokenize("palabra"))
    assert list(table) == words
    assert "palabra" not in table
    assert tok.encode(" ".join(words)) == encoded


def test_word_table_counts_a_short_word_as_a_full_entry():
    tok = VocabTokenizer()
    # 262,144 distinct two-letter words of 518 letters that no piece covers:
    # by their characters alone they would all fit in the table at once.
    letters = [chr(0x4E00 + i) for i in range(518)]
    words = [a + b for a in letters for b in letters][: 4 * 65536]
    encoded = tok.encode(" ".join(words))
    assert encoded == [(UNK, UNK)] * len(words)
    assert len(tok._word_ids) == WORD_TABLE_CHARS // WORD_ENTRY_CHARS
    assert tok._word_chars == WORD_TABLE_CHARS


def test_word_table_bounded_by_characters_for_glued_runs():
    tok = VocabTokenizer()
    rng = random.Random(9)
    for _ in range(30):
        word = "".join(rng.choices("abcdelmnoprstuñé", k=20_000))
        assert tok.encode(word) == VocabTokenizer().encode(word)
        assert sum(map(len, tok._word_ids)) <= WORD_TABLE_CHARS
    # A word longer than the bound is segmented but never kept.
    word = "ab" * (WORD_TABLE_CHARS // 2) + "c"
    assert tok.encode(word) == VocabTokenizer().encode(word)
    assert word not in tok._word_ids
    assert sum(map(len, tok._word_ids)) <= WORD_TABLE_CHARS


def test_word_table_admits_no_word_longer_than_the_bound():
    tok = VocabTokenizer()
    common = tok.encode("ley")
    rng = random.Random(4)
    word = "".join(rng.choices("abcdelmnoprstuñé", k=100_000))
    # Packing cuts the word and tokenizes each piece of it again.
    chunks = pack_chunks([f"Véase {word}."], tok, max_tokens=512)
    assert sum(chunk.token_count for chunk in chunks) == sum(
        map(len, VocabTokenizer().encode(f"Véase {word}."))
    )
    assert max(map(len, tok._word_ids)) <= LONG_WORD
    assert tok._word_ids["ley"] == common[0]
    # The last longer word is kept beside the table: segmented once.
    glued = "ab" * LONG_WORD
    assert tok.encode(glued)[0] is tok.encode(glued)[0]
    assert glued not in tok._word_ids


class _CountingGets(dict):
    """A piece table that counts its lookups: segmentation's unit of work."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


# Letters the pieces cover, alone and in chunks ("ción", "de", "la"), and
# two that no piece covers, so a long word holds [UNK] tokens too.
_GLUED_CHARS = list("abcdelnoprsuñéció") + ["中", "ж"]


@st.composite
def _long_word_and_spans(draw):
    """A word longer than LONG_WORD, maybe periodic, and spans of it.

    The spans are consecutive pieces, as a hard split cuts them, then
    arbitrary ones.
    """
    if draw(st.booleans()):
        unit = draw(st.text(st.sampled_from(_GLUED_CHARS), min_size=1, max_size=6))
        size = draw(st.integers(LONG_WORD + 1, 5000))
        word = (unit * (size // len(unit) + 1))[:size]
    else:
        word = draw(
            st.text(st.sampled_from(_GLUED_CHARS), min_size=LONG_WORD + 1, max_size=800)
        )
    offsets = st.integers(0, len(word))
    cuts = sorted(draw(st.lists(offsets, max_size=6)))
    spans = list(zip([0, *cuts], [*cuts, len(word)]))
    spans += draw(st.lists(st.tuples(offsets, offsets).map(sorted), max_size=6))
    return word, spans


@settings(max_examples=200, deadline=None)
@given(_long_word_and_spans())
@example(("a" * 5000, [(0, 512), (512, 1024), (1, 4999), (1024, 5000)]))
@example(("ción" * 1000, [(0, 2048), (2048, 4000), (1, 65 * 4), (2, 3000)]))
def test_a_piece_of_the_kept_long_word_segments_as_alone(case):
    word, spans = case
    tok = VocabTokenizer()
    tok.encode(word)
    for start, end in spans:
        piece = word[start:end]
        if piece:
            assert tok._segment(piece) == VocabTokenizer()._segment(piece), (start, end)


def test_pieces_of_the_kept_long_word_are_sliced_not_segmented():
    tok = VocabTokenizer()
    word = "".join(random.Random(3).choices("abcdelmnoprstuñé中", k=10_000))
    (ids,) = tok.encode(word)
    tok._piece_ids = _CountingGets(tok._piece_ids)
    # Pieces of 500 tokens each, as a hard split cuts them: each starts
    # where the last one ended, and takes its ids from the kept word's.
    ends = [token.start + len(token.piece) for token in tok.tokenize(word)]
    for first in range(0, len(ids) - 499, 500):
        start = ends[first - 1] if first else 0
        assert tok._segment(word[start : ends[first + 499]]) == ids[first : first + 500]
    assert tok._piece_ids.gets == 0
    assert tok._long_word[0] == word
    # Its token ends cost 4 bytes a token beside the ids.
    ends = tok._long_word[2]
    assert (len(ends), ends.itemsize) == (len(ids), 4)
    # A piece anywhere else, here one that starts inside a token, is
    # segmented, and kept, as before.
    k = next(k for k in range(1, len(ends)) if ends[k] - ends[k - 1] > 1)
    piece = word[ends[k - 1] + 1 : 5000]
    assert tok._segment(piece) == VocabTokenizer()._segment(piece)
    assert tok._piece_ids.gets > 0
    assert tok._long_word[0] == piece
