"""Sentence splitting and token-budgeted packing."""

import ast
import random
import re
import time
from collections import Counter
from importlib import resources
from itertools import accumulate, chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from lexprep import chunking
from lexprep.chunking import (
    ABBREVIATIONS,
    Chunk,
    _encode_within,
    _hard_split,
    chunk_document,
    chunk_from_record,
    iter_chunks,
    pack_chunks,
    split_sentences,
    validate_chunk_record,
)
from lexprep.corpus import RawDocument
from lexprep.errors import TokenizerFailure
from lexprep.tokenizers import Token, VocabTokenizer, group_words

from .conftest import make_doc
from .test_oversized_contract import unpunctuated_line

# Words with known reference-tokenizer behavior: the short ones are one
# token, the long ones several.
_WORD_POOL = (
    "de la ley el en artículo normativa información publicación jurídico "
    "administración procedimiento responsabilidad extraordinario qwzkj"
).split()


def _sentence_of(n_tokens: int) -> str:
    return " ".join(["de"] * n_tokens)


# Each test marked so runs once per declaration: a concat-stable tokenizer's
# summed counts, or an undeclared one's, whose chunks are tokenized again.
_BOTH_PACKERS = pytest.mark.parametrize(
    "concat_stable", [True, False], ids=["counts", "retokenizing"]
)


class Delegating:
    """The reference tokenizer without its `concat_stable` declaration.

    It has only `tokenize`, so its chunks go through the one packer and
    then the verifying tokenize of each chunk.
    """

    def __init__(self, inner):
        self.inner = inner
        self.reserved_special_count = inner.reserved_special_count

    def tokenize(self, text):
        return self.inner.tokenize(text)


def chunk_fields(chunks):
    return [
        (c.doc_id, c.seq, c.text, c.token_count, c.word_boundaries, c.token_ids)
        for c in chunks
    ]


# Sentence material for the differential tests: pool words, punctuation,
# unusual characters, and a word long enough to need a mid-word cut at
# small budgets.
_SENTENCE_WORDS = _WORD_POOL + [
    ",", ".", "¿", "?", "(", ")", "x²", "mar_azul", "e\u0301", "правило",
    "1.º", "responsabilidad" * 12,
]

_OPENERS = "¿¡«“\"'‘(["
_REFERENCE_LAST_WORD = re.compile(r"\S+$")
_REFERENCE_BOUNDARY = re.compile(r"([.!?…]+)(\s+)(?=(\S))")


def _reference_split_line(line: str) -> list[str]:
    """The quadratic splitter: a regex search over the line up to each boundary."""
    sentences = []
    start = 0
    for match in _REFERENCE_BOUNDARY.finditer(line):
        if not (match.group(3).isupper() or match.group(3) in _OPENERS):
            continue
        word = _REFERENCE_LAST_WORD.search(line[: match.end(1)])
        if word and word.group().lstrip(_OPENERS).lower() in ABBREVIATIONS:
            continue
        sentence = line[start : match.end(1)].strip()
        if sentence:
            sentences.append(sentence)
        start = match.end(2)
    tail = line[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def token_multiset(tokenizer, texts) -> Counter:
    counts: Counter = Counter()
    for text in texts:
        counts.update(token.id for token in tokenizer.tokenize(text))
    return counts


class TestSplitSentences:
    def test_single_sentence(self):
        assert split_sentences("Una frase.") == ["Una frase."]

    def test_abbreviation_does_not_split(self):
        text = "Visto el art. 5 de la Ley. Se acuerda su publicación."
        assert split_sentences(text) == [
            "Visto el art. 5 de la Ley.",
            "Se acuerda su publicación.",
        ]

    def test_line_break_always_splits(self):
        assert split_sentences("Primera línea\nSegunda línea") == [
            "Primera línea",
            "Segunda línea",
        ]

    def test_empty_input(self):
        assert split_sentences("") == []

    @given(
        st.lists(
            st.sampled_from(
                ["Ley", "art.", "Sr.", "(art.", "«Sra.", "EE.UU.", "núm.", "x.",
                 "fin.", "¿Qué?", "¡Sí!", "…", "Él", "1.º", "de", "«Otra", "a"]
            ),
            max_size=40,
        ),
        st.lists(st.sampled_from([" ", "  ", "\t", "\u00a0", "\u2003"]), min_size=1),
    )
    def test_matches_regex_search_splitter(self, words, spaces):
        line = "".join(w + spaces[i % len(spaces)] for i, w in enumerate(words))
        assert split_sentences(line) == _reference_split_line(line)

    def test_split_time_linear_in_line_length(self):
        # Many boundaries on one line, some after abbreviations; the old
        # per-boundary search made doubling the line quadruple the time.
        def line(n):
            return " ".join(
                f"Visto el art. {i} de la Ley. El Sr. Díaz firma. ¿Procede? Sí."
                for i in range(n)
            )

        short, long = line(200), line(800)
        assert len(split_sentences(long)) == 4 * len(split_sentences(short))
        # The two lengths alternate so that a drift in the host's speed
        # reaches both, and the fastest of 15 timings of each is compared.
        # Four times the line takes about 4 times as long when the split is
        # linear and 13 to 18 times when it is quadratic; the bound of 8
        # lies between them, a factor of 2 from each.
        times = {short: [], long: []}
        for _ in range(15):
            for text in times:
                begin = time.perf_counter()
                split_sentences(text)
                times[text].append(time.perf_counter() - begin)
        assert min(times[long]) <= 8 * min(times[short])

    def test_more_abbreviations(self):
        text = "El Sr. García y la Sra. Ruiz firman. La pág. 3 lo recoge."
        assert split_sentences(text) == [
            "El Sr. García y la Sra. Ruiz firman.",
            "La pág. 3 lo recoge.",
        ]

    def test_ordinal_period_does_not_split(self):
        assert split_sentences("El punto 1.º queda aprobado.") == [
            "El punto 1.º queda aprobado."
        ]

    def test_lowercase_continuation_does_not_split(self):
        assert split_sentences("La norma n. 5 sigue vigente.") == [
            "La norma n. 5 sigue vigente."
        ]

    def test_boundary_before_opener(self):
        text = "Se aprueba. ¿Procede su publicación?"
        assert split_sentences(text) == ["Se aprueba.", "¿Procede su publicación?"]

    def test_question_and_exclamation(self):
        text = "¿Está vigente? Sí. ¡Publíquese!"
        assert split_sentences(text) == ["¿Está vigente?", "Sí.", "¡Publíquese!"]

    @given(
        st.text(
            alphabet=st.sampled_from(list("abcA. !?\n¿«(é")),
            max_size=80,
        )
    )
    def test_non_whitespace_content_preserved(self, text):
        joined = "".join("".join(s.split()) for s in split_sentences(text))
        assert joined == "".join(text.split())


class TestChunkType:
    def test_word_boundaries_must_partition(self):
        with pytest.raises(ValueError):
            Chunk("d", 0, "x", word_boundaries=((0, 1),), token_ids=(5, 6))
        with pytest.raises(ValueError):
            Chunk("d", 0, "x", word_boundaries=((0, 1), (0, 2)), token_ids=(5, 6))
        with pytest.raises(ValueError):
            Chunk("d", 0, "x", word_boundaries=((0, 2), (2, 2)), token_ids=(5, 6))

    def test_token_count_positive(self):
        with pytest.raises(ValueError):
            Chunk("d", 0, "", word_boundaries=(), token_ids=())

    def test_group_words_starts_a_word_at_a_leading_continuation(self):
        tokens = [
            Token(7, False, "ón", 0),
            Token(8, False, "es", 2),
            Token(9, True, "de", 5),
        ]
        assert list(group_words(tokens)) == [(0, 4, (7, 8)), (5, 7, (9,))]

    def test_group_words_gives_the_spans_of_words(self, tokenizer):
        tokens = tokenizer.tokenize("información de")
        words = list(group_words(tokens))
        assert [(start, end) for start, end, _ in words] == [(0, 11), (12, 14)]
        assert [i for _, _, ids in words for i in ids] == [t.id for t in tokens]
        assert words[-1][2] == (tokens[-1].id,)


class TestPackChunks:
    def test_example_three_sentences(self, tokenizer):
        sentences = [_sentence_of(200)] * 3
        chunks = pack_chunks(sentences, tokenizer, max_tokens=512, doc_id="d")
        assert [c.token_count for c in chunks] == [400, 200]

    def test_example_exact_budget(self, tokenizer):
        chunks = pack_chunks([_sentence_of(512)], tokenizer, max_tokens=512)
        assert [c.token_count for c in chunks] == [512]

    def test_example_hard_split(self, tokenizer):
        chunks = pack_chunks([_sentence_of(1030)], tokenizer, max_tokens=512)
        assert [c.token_count for c in chunks] == [512, 512, 6]

    def test_seq_numbers_consecutive(self, tokenizer):
        chunks = pack_chunks(
            [_sentence_of(30)] * 5, tokenizer, max_tokens=64, doc_id="d"
        )
        assert [c.seq for c in chunks] == list(range(len(chunks)))
        assert all(c.doc_id == "d" for c in chunks)

    def test_order_preserved(self, tokenizer):
        sentences = [f"{w} {w}" for w in ("de", "la", "el", "en", "ley")]
        chunks = pack_chunks(sentences, tokenizer, max_tokens=4)
        assert " ".join(c.text for c in chunks) == " ".join(sentences)

    def test_budget_unusable_raises(self, tokenizer):
        with pytest.raises(ValueError):
            pack_chunks(["de"], tokenizer, max_tokens=0)

    def test_reserved_specials_shrink_budget(self, tokenizer):
        class Reserving:
            reserved_special_count = 2
            vocab_size = tokenizer.vocab_size
            mask_token_id = tokenizer.mask_token_id
            special_token_ids = tokenizer.special_token_ids

            def tokenize(self, text):
                return tokenizer.tokenize(text)

        chunks = pack_chunks([_sentence_of(511)], Reserving(), max_tokens=512)
        assert [c.token_count for c in chunks] == [510, 1]

    @_BOTH_PACKERS
    @pytest.mark.parametrize("broken", ["encode", "tokenize"])
    def test_tokenizer_failure_names_the_document_and_chunk(
        self, tokenizer, concat_stable, broken
    ):
        breaking = BreaksOnRota(tokenizer, broken, concat_stable)
        sentences = [_sentence_of(10), _sentence_of(10), "una ley rota"]
        chunks = iter_chunks(sentences, breaking, max_tokens=16, doc_id="doc-4")
        assert next(chunks).text == sentences[0]
        with pytest.raises(TokenizerFailure) as excinfo:
            next(chunks)
        assert str(excinfo.value) == (
            "tokenizer failed in document 'doc-4': broke on 'rota' (cutting chunk 1)"
        )
        assert type(excinfo.value.__cause__) is RuntimeError

    @_BOTH_PACKERS
    def test_no_single_token_fits_the_budget(self, concat_stable):
        tokenizer = CharsThenEnd(concat_stable)
        with pytest.raises(TokenizerFailure) as excinfo:
            pack_chunks(["abcde"], tokenizer, max_tokens=1, doc_id="doc-5")
        assert str(excinfo.value) == (
            "tokenizer failed in document 'doc-5': "
            "cannot fit a single token within budget 1 (cutting chunk 0)"
        )

    def test_tokenizer_failure_shortens_a_long_document_id(self):
        long_id = "d" * 100_000
        failure = TokenizerFailure(long_id, "boom (cutting chunk 0)")
        assert failure.doc_id == long_id
        message = str(failure)
        assert len(message) < 100
        assert message.startswith("tokenizer failed in document 'ddd")
        assert message.endswith("ddd': boom (cutting chunk 0)")
        # An id whose repr fits `reprlib`'s 30 characters prints whole.
        short = TokenizerFailure("d" * 28, "boom")
        assert str(short) == f"tokenizer failed in document {'d' * 28!r}: boom"

    @_BOTH_PACKERS
    def test_lazy_tokenizer_failure_carries_doc_id(self, tokenizer, concat_stable):
        failing = FailsAfterTwentyTokens(tokenizer, concat_stable)
        with pytest.raises(
            TokenizerFailure, match=r"document 'doc-3': boom \(cutting chunk \d\)"
        ):
            pack_chunks(["de la " + _HUGE_WORD], failing, max_tokens=16, doc_id="doc-3")

    @_BOTH_PACKERS
    def test_error_raised_by_the_sentences_passes_through(
        self, tokenizer, concat_stable
    ):
        # The caller's iterable failed, not the tokenizer: no relabelling.
        error = KeyError("caller bug")

        def sentences():
            yield _sentence_of(10)
            raise error

        packer = tokenizer if concat_stable else Delegating(tokenizer)
        chunks = iter_chunks(sentences(), packer, max_tokens=16, doc_id="d")
        with pytest.raises(KeyError) as excinfo:
            list(chunks)
        assert excinfo.value is error

    def test_empty_and_blank_sentences_skipped(self, tokenizer):
        assert pack_chunks([], tokenizer) == []
        assert pack_chunks(["", "   "], tokenizer) == []

    def test_word_boundaries_cover_all_tokens(self, tokenizer):
        for chunk in pack_chunks(
            ["información de la administración"], tokenizer, max_tokens=8
        ):
            assert chunk.word_boundaries[0][0] == 0
            assert chunk.word_boundaries[-1][1] == chunk.token_count

    @settings(deadline=None)
    @given(st.data())
    def test_budget_and_conservation(self, tokenizer, data):
        rng_words = data.draw(
            st.lists(st.sampled_from(_WORD_POOL), min_size=1, max_size=60)
        )
        n_sentences = data.draw(st.integers(1, 6))
        max_tokens = data.draw(st.integers(8, 64))
        per = max(1, len(rng_words) // n_sentences)
        sentences = [
            " ".join(rng_words[i : i + per]) for i in range(0, len(rng_words), per)
        ]
        sentences = [s for s in sentences if s]
        chunks = pack_chunks(sentences, tokenizer, max_tokens=max_tokens, doc_id="p")
        assert all(c.token_count <= max_tokens for c in chunks)
        assert all(
            c.token_count == len(tokenizer.tokenize(c.text)) for c in chunks
        )
        assert token_multiset(tokenizer, (c.text for c in chunks)) == token_multiset(
            tokenizer, sentences
        )

    def test_greedy_no_chunk_could_absorb_next_sentence(self, tokenizer):
        rng = random.Random(3)
        sentences = [
            _sentence_of(rng.randint(1, 40)) for _ in range(30)
        ]
        budget = 64
        chunks = pack_chunks(sentences, tokenizer, max_tokens=budget, doc_id="g")
        # Recover which sentences each chunk holds: no hard splits occur
        # here, so chunk texts are joins of consecutive sentences.
        remaining = list(sentences)
        groups = []
        for chunk in chunks:
            group = []
            text = chunk.text
            while text:
                sentence = remaining.pop(0)
                assert text.startswith(sentence)
                group.append(sentence)
                text = text[len(sentence) :].lstrip()
            groups.append(group)
        assert not remaining
        for chunk, next_group in zip(chunks, groups[1:]):
            candidate = chunk.text + " " + next_group[0]
            assert len(tokenizer.tokenize(candidate)) > budget


class TestConcatStablePacking:
    """Both declarations give the chunks of the old re-tokenizing rule."""

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(_SENTENCE_WORDS), max_size=40).map(" ".join),
            max_size=12,
        ),
        st.integers(4, 64),
    )
    def test_matches_retokenizing_path(self, tokenizer, sentences, max_tokens):
        _both_match_reference(sentences, tokenizer, max_tokens, "c")

    @pytest.mark.parametrize("max_tokens", [16, 100, 512])
    def test_matches_retokenizing_path_with_huge_word(self, tokenizer, max_tokens):
        huge = ("prescripción" * 900)[:10_000]
        sentences = [
            "La ley se publica.",
            "Antes " + huge + " después de la ley.",
            _sentence_of(max_tokens + 3),
            "Fin del texto.",
        ]
        assert len(_both_match_reference(sentences, tokenizer, max_tokens, "h")) > 1

    @settings(deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(1, 40), min_size=1, max_size=30).map(
                lambda sizes: " ".join("ab" * size for size in sizes)
            ),
            max_size=4,
        ),
        st.integers(1, 24),
    )
    def test_matches_retokenizing_path_when_inner_cuts_change_tokens(
        self, sentences, max_tokens
    ):
        # No `encode` or `iter_words`: words are grouped from `tokenize`.
        _both_match_reference(sentences, LengthTagged(), max_tokens, "t")

    def test_a_sentence_without_tokens_joins_only_an_open_chunk(self):
        class DropsTildes(LengthTagged):
            def tokenize(self, text):
                return [t for t in super().tokenize(text) if t.piece != "~"]

        tokenizer = DropsTildes()
        sentences = ["~", "ab ab", "~", "ab", "~"]
        chunks = _both_match_reference(sentences, tokenizer, 4, "z")
        assert [c.text for c in chunks] == ["ab ab ~", "ab ~"]

    def test_chunks_carry_their_token_ids(self, tokenizer):
        chunks = pack_chunks(
            ["Una frase corta.", "Otra frase algo más larga."] * 5,
            tokenizer,
            max_tokens=12,
        )
        for chunk in chunks:
            expected = tuple(t.id for t in tokenizer.tokenize(chunk.text))
            assert chunk.token_ids == expected


class TestIterChunks:
    def test_pack_chunks_and_chunk_document_return_lists(self, tokenizer):
        # Callers take `len()` of them; `iter_chunks` is the lazy form.
        sentences = ["La ley se publica.", _sentence_of(40)]
        chunks = pack_chunks(sentences, tokenizer, max_tokens=16, doc_id="d")
        assert type(chunks) is list and len(chunks) > 2
        doc = make_doc("d", " ".join(sentences))
        assert type(chunk_document(doc, tokenizer, max_tokens=16)) is list
        assert type(pack_chunks([], tokenizer)) is list

    def test_chunks_are_cut_as_they_are_drawn(self, tokenizer):
        line = unpunctuated_line()
        lazy = iter_chunks([line], tokenizer, max_tokens=512, doc_id="u")
        make_chunk = chunking._make_chunk
        with mock.patch.object(chunking, "_make_chunk", wraps=make_chunk) as made:
            first = next(lazy)
            assert made.call_count == 1
            second = next(lazy)
            assert made.call_count == 2
        assert (first.seq, second.seq) == (0, 1)
        rest = list(lazy)
        assert chunk_fields([first, second, *rest]) == chunk_fields(
            pack_chunks([line], tokenizer, max_tokens=512, doc_id="u")
        )

    def test_budget_checked_before_any_chunk_is_drawn(self, tokenizer):
        with pytest.raises(ValueError, match="leaves no room"):
            iter_chunks(["una frase"], tokenizer, max_tokens=0)

    def test_one_function_builds_tokenizer_failures(self):
        # Packing raises plain errors; `iter_chunks` alone names the
        # document and the chunk they were raised in.
        tree = ast.parse(Path(chunking.__file__).read_text(encoding="utf-8"))
        found = set()

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = (*scope, child.name)
                elif isinstance(child, ast.Name) and child.id == "TokenizerFailure":
                    found.add(".".join(scope))
                visit(child, inner)

        visit(tree, ())
        assert found == {"iter_chunks.chunks"}


class TestChunkDocument:
    def test_splits_then_packs(self, tokenizer):
        doc = make_doc("d1", "Una frase corta. Otra frase corta.")
        chunks = chunk_document(doc, tokenizer, max_tokens=512)
        assert len(chunks) == 1
        assert chunks[0].doc_id == "d1"
        assert chunks[0].text == "Una frase corta. Otra frase corta."

    def test_empty_document_yields_nothing(self, tokenizer):
        assert chunk_document(make_doc("d2", ""), tokenizer) == []

    def test_conservation_with_hard_splits(self, tokenizer):
        rng = random.Random(11)
        for trial in range(30):
            words = [rng.choice(_WORD_POOL) for _ in range(rng.randint(5, 150))]
            doc = make_doc(f"d{trial}", " ".join(words) + ".")
            budget = rng.randint(8, 48)
            chunks = chunk_document(doc, tokenizer, max_tokens=budget)
            assert all(c.token_count <= budget for c in chunks)
            expected = token_multiset(tokenizer, split_sentences(doc.text))
            assert token_multiset(tokenizer, (c.text for c in chunks)) == expected


class TestChunkRecords:
    def test_round_trip(self, tokenizer):
        (chunk,) = pack_chunks(["de la ley"], tokenizer, max_tokens=16, doc_id="r")
        restored = chunk_from_record(chunk.to_record(), tokenizer)
        assert restored == chunk

    def test_record_rebuilds_token_ids(self, tokenizer):
        (chunk,) = pack_chunks(["de la ley"], tokenizer, max_tokens=16, doc_id="r")
        restored = chunk_from_record(chunk.to_record(), tokenizer)
        assert restored.token_ids == chunk.token_ids
        assert "token_ids" not in chunk.to_record()

    def test_token_ids_must_match_count(self):
        with pytest.raises(ValueError):
            Chunk("d", 0, "x y", ((0, 1), (1, 2)), token_ids=(5,))

    def test_token_count_mismatch_rejected(self, tokenizer):
        (chunk,) = pack_chunks(["de la ley"], tokenizer, max_tokens=16, doc_id="r")
        record = chunk.to_record()
        record["token_count"] = record["token_count"] + 1
        with pytest.raises(ValueError):
            chunk_from_record(record, tokenizer)

    @pytest.mark.parametrize(
        "fields",
        [{"seq": "3"}, {"seq": True}, {"seq": 2.9, "token_count": 2.0}],
        ids=["string-seq", "bool-seq", "float-seq-and-count"],
    )
    def test_ill_typed_record_is_refused_not_coerced(self, tokenizer, fields):
        record = {"doc_id": "r", "seq": 0, "text": "de la", **fields}
        with pytest.raises(ValueError, match="field 'seq' must be"):
            chunk_from_record(record, tokenizer)

    def test_unencodable_text_fails_as_in_a_document_record(self):
        chunk_record = {"doc_id": "a", "seq": 0, "text": "Hola \ud800."}
        with pytest.raises(ValueError) as chunk_error:
            validate_chunk_record(chunk_record)
        with pytest.raises(ValueError) as doc_error:
            RawDocument.from_record({"id": "a", "text": "Hola \ud800."})
        assert str(chunk_error.value) == str(doc_error.value)
        with pytest.raises(ValueError, match="field 'doc_id' is not valid UTF-8"):
            validate_chunk_record({"doc_id": "b\ud800", "seq": 0, "text": "Hola."})

    @given(st.text(st.sampled_from(" \t\n\x0b\x1f\u00a0\u2003\u3000a.ñ"), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_a_valid_record_has_a_token(self, tokenizer, text):
        # The blank-text rule is the bundled tokenizer's: a record passes
        # iff its text makes a chunk.
        record = {"doc_id": "a", "seq": 0, "text": text}
        try:
            validate_chunk_record(record)
        except ValueError:
            assert tokenizer.tokenize(text) == []
        else:
            assert chunk_from_record(record, tokenizer).token_count > 0


def _reference_hard_split(sentence, tokens, budget, tokenizer):
    """The hard split that re-tokenized every piece, cut at a word or not."""
    pieces = []
    start = 0
    total = len(tokens)
    while start < total:
        take = min(budget, total - start)
        cut = take
        while cut > 0 and start + cut < total and not tokens[start + cut].is_word_start:
            cut -= 1
        if cut == 0:
            cut = take
        while cut > 0:
            last = tokens[start + cut - 1]
            piece_text = sentence[tokens[start].start : last.start + len(last.piece)]
            piece_tokens = tokenizer.tokenize(piece_text)
            if len(piece_tokens) <= budget:
                break
            cut -= 1
        if cut == 0:
            raise ValueError(f"cannot fit a single token within budget {budget}")
        pieces.append((piece_text, piece_tokens))
        start += cut
    return pieces


def _grouped_ids(tokens):
    return [ids for _, _, ids in group_words(tokens)]


def _reference_pack(sentences, tokenizer, max_tokens, doc_id):
    """The chunk fields of the old rule, written plainly.

    The next sentence joins iff the joined text, tokenized whole, fits
    the budget. An oversized sentence is cut by `_reference_hard_split`,
    and its last piece stays open. A chunk's ids are its text's tokens.
    """
    budget = chunking.chunk_budget(tokenizer, max_tokens)
    texts, joined = [], []
    for sentence in filter(None, map(str.strip, sentences)):
        width = len(tokenizer.tokenize(" ".join([*joined, sentence])))
        if 0 < width <= budget:
            joined.append(sentence)
        elif width:
            if joined:
                texts.append(" ".join(joined))
            joined = [sentence]
            tokens = tokenizer.tokenize(sentence)
            if len(tokens) > budget:
                pieces = _reference_hard_split(sentence, tokens, budget, tokenizer)
                texts += [text for text, _ in pieces[:-1]]
                joined = [pieces[-1][0]]
    if joined:
        texts.append(" ".join(joined))
    fields = []
    for seq, text in enumerate(texts):
        words = _grouped_ids(tokenizer.tokenize(text))
        ends = list(accumulate(map(len, words)))
        ids = tuple(chain.from_iterable(words))
        fields.append((doc_id, seq, text, len(ids), tuple(zip([0, *ends], ends)), ids))
    return fields


def _both_match_reference(sentences, tokenizer, max_tokens, doc_id):
    """The chunks of `tokenizer` and of it undeclared, both `_reference_pack`'s."""
    expected = _reference_pack(sentences, tokenizer, max_tokens, doc_id)
    for packer in (tokenizer, Delegating(tokenizer)):
        chunks = pack_chunks(sentences, packer, max_tokens=max_tokens, doc_id=doc_id)
        assert chunk_fields(chunks) == expected
    return chunks


class Counting:
    """The reference tokenizer without `encode`, counting `tokenize` calls and text."""

    concat_stable = True
    reserved_special_count = 0

    def __init__(self, inner):
        self.inner = inner
        self.calls = self.chars = 0

    def tokenize(self, text):
        self.calls += 1
        self.chars += len(text)
        return self.inner.tokenize(text)


class Encoding(Counting):
    """The reference tokenizer with `encode`, counting calls to `tokenize`."""

    def encode(self, text):
        return self.inner.encode(text)


class LengthTagged:
    """Concat-stable, but a word's first id depends on the word's length.

    Words are whitespace-delimited and each character is a token, so
    cutting inside a word changes the tokens of both sides, while cutting
    between words keeps them.
    """

    concat_stable = True
    reserved_special_count = 0

    def tokenize(self, text):
        tokens = []
        for match in re.finditer(r"\S+", text):
            word = match.group()
            for i, ch in enumerate(word):
                token_id = 5 + min(len(word), 50) if i == 0 else 60 + ord(ch) % 100
                tokens.append(Token(token_id, i == 0, ch, match.start() + i))
        return tokens


_HUGE_WORD = ("prescripción" * 900)[:10_000]


class CharsThenEnd:
    """One token per character, then an empty end-of-word token per word.

    Concat-stable only if declared so, and a piece re-tokenized alone
    gains an end token, so a mid-word cut must shrink until the piece and
    its end token fit.
    """

    reserved_special_count = 0

    def __init__(self, concat_stable=False):
        self.concat_stable = concat_stable

    def tokenize(self, text):
        tokens = []
        for match in re.finditer(r"\S+", text):
            start, word = match.start(), match.group()
            tokens += [
                Token(10 + ord(ch) % 50, i == 0, ch, start + i)
                for i, ch in enumerate(word)
            ]
            tokens.append(Token(5, False, "", match.end()))
        return tokens


class BreaksOnRota:
    """The reference tokenizer, but its `encode` or `tokenize` fails on "rota"."""

    reserved_special_count = 0

    def __init__(self, inner, broken, concat_stable):
        self.concat_stable = concat_stable
        self.tokenize = inner.tokenize

        def failing(text):
            if "rota" in text:
                raise RuntimeError("broke on 'rota'")
            return getattr(inner, broken)(text)

        setattr(self, broken, failing)


class FailsAfterTwentyTokens:
    """The reference tokenizer, but `iter_tokens` fails after 20 tokens."""

    reserved_special_count = 0

    def __init__(self, inner, concat_stable):
        self.inner = inner
        self.concat_stable = concat_stable

    def tokenize(self, text):
        return self.inner.tokenize(text)

    def iter_tokens(self, text):
        yield from islice(self.inner.iter_tokens(text), 20)
        raise RuntimeError("boom")


class SpacesAreTokens:
    """Not concat-stable: each space is a token of its own, and so is each word.

    Joining two texts with a space adds a token, so a chunk's summed count
    falls short of its text's.
    """

    reserved_special_count = 0

    def tokenize(self, text):
        tokens = []
        for match in re.finditer(r"\S+|\s", text):
            piece = match.group()
            token_id = 7 if piece.isspace() else 10 + len(piece)
            tokens.append(Token(token_id, True, piece, match.start()))
        return tokens


class MergesRepeats:
    """Not concat-stable: a run of one word, repeated, is one token.

    Joining two texts where the seam repeats a word removes a token, so a
    chunk's summed count passes its text's.
    """

    reserved_special_count = 0

    def tokenize(self, text):
        return [
            Token(10 + len(match.group(1)), True, match.group(), match.start())
            for match in re.finditer(r"(\S+)(?:\s+\1(?!\S))*", text)
        ]


class CountingUndeclared(Counting):
    """`Counting` without the `concat_stable` declaration."""

    concat_stable = False


class TestHardSplit:
    """The hard split cuts the reference's pieces; packing cuts them by words."""

    def test_mid_word_cut_shrinks_until_the_piece_fits(self):
        tokenizer = CharsThenEnd()
        tokens = tokenizer.tokenize("abcde")
        pieces = list(_hard_split("abcde", tokens, 2, tokenizer))
        assert [text for text, _ in pieces] == list("abcde")
        assert [sum(map(len, words)) for _, words in pieces] == [2] * 5

    @staticmethod
    def _both(tokenizer, sentence, budget):
        tokens = tokenizer.tokenize(sentence)
        slow = _reference_hard_split(sentence, tokens, budget, tokenizer)
        expected = [(text, _grouped_ids(piece)) for text, piece in slow]
        fast = list(_hard_split(sentence, tokens, budget, tokenizer))
        assert fast == expected
        # A one-shot iterator gives the same pieces: the window never rewinds.
        streamed = _hard_split(sentence, iter(tokens), budget, tokenizer)
        assert list(streamed) == expected
        return fast

    @staticmethod
    def _packed(tokenizer, sentence, budget, pieces):
        """The chunks `pack_chunks` cuts from `sentence`, and its `tokenize` calls.

        The chunks are the hard split's `pieces`, though `pack_chunks` cuts
        between words without tokenizing them.
        """
        encoding = Encoding(tokenizer)
        chunks = pack_chunks([sentence], encoding, max_tokens=budget, doc_id="h")
        assert [
            (c.text, [c.token_ids[start:end] for start, end in c.word_boundaries])
            for c in chunks
        ] == pieces
        return chunks, encoding.calls

    @pytest.mark.parametrize("budget", [1, 16, 100, 512])
    def test_draws_at_most_budget_plus_one_tokens_ahead(self, tokenizer, budget):
        sentence = "Antes de la " + _HUGE_WORD + " y después, " + _sentence_of(
            3 * budget
        )
        tokens = tokenizer.tokenize(sentence)
        index_at = {token.start: i for i, token in enumerate(tokens)}
        drawn = 0

        def one_shot():
            nonlocal drawn
            for token in tokens:
                drawn += 1
                yield token

        offset = 0
        for text, _ in _hard_split(sentence, one_shot(), budget, tokenizer):
            begin = sentence.index(text, offset)
            offset = begin + len(text)
            assert drawn <= index_at[begin] + budget + 1
        assert drawn == len(tokens)

    @pytest.mark.parametrize("budget", [16, 100, 512])
    def test_matches_reference_with_huge_word(self, tokenizer, budget):
        sentence = "Antes de la " + _HUGE_WORD + " y después, " + _sentence_of(600)
        pieces = self._both(tokenizer, sentence, budget)
        assert len(pieces) > 2
        _, calls = self._packed(tokenizer, sentence, budget, pieces)
        # One call groups the sentence's words and one tokenizes the huge
        # word; only pieces cut inside the huge word are tokenized again.
        huge_tokens = len(tokenizer.tokenize(_HUGE_WORD))
        assert calls <= huge_tokens // budget + 3

    @pytest.mark.parametrize("budget", [16, 100, 512])
    def test_word_aligned_pieces_are_not_retokenized(self, tokenizer, budget):
        sentence = _sentence_of(3 * budget + 5)
        pieces = self._both(tokenizer, sentence, budget)
        chunks, calls = self._packed(tokenizer, sentence, budget, pieces)
        assert [c.token_count for c in chunks] == [budget] * 3 + [5]
        # The one call groups the oversized sentence's words.
        assert calls == 1

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(_SENTENCE_WORDS), min_size=1, max_size=80).map(
            " ".join
        ),
        st.integers(1, 24),
    )
    def test_matches_reference(self, tokenizer, sentence, budget):
        self._both(tokenizer, sentence, budget)

    @settings(deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=30).map(
            lambda sizes: " ".join("ab" * size for size in sizes)
        ),
        st.integers(1, 24),
    )
    def test_matches_reference_when_inner_cuts_change_tokens(self, sentence, budget):
        self._both(LengthTagged(), sentence, budget)


class TestEncodePacking:
    """Packing through `encode` matches packing from tokens."""

    @settings(deadline=None)
    @given(
        st.lists(
            # Words glued ("ley,") or spaced, with any number of them wider
            # than a small budget: two in the pool, and glued runs.
            st.lists(
                st.tuples(
                    st.sampled_from(_SENTENCE_WORDS + ["prescripción" * 9]),
                    st.sampled_from(["", " "]),
                ),
                max_size=40,
            ).map(lambda words: "".join(word + sep for word, sep in words)),
            max_size=12,
        ),
        st.integers(4, 64),
    )
    def test_matches_token_paths(self, tokenizer, sentences, max_tokens):
        encoded = pack_chunks(sentences, tokenizer, max_tokens=max_tokens, doc_id="e")
        grouped = pack_chunks(
            sentences, Counting(tokenizer), max_tokens=max_tokens, doc_id="e"
        )
        assert chunk_fields(encoded) == chunk_fields(grouped)
        _both_match_reference(sentences, tokenizer, max_tokens, "e")

    def test_encode_path_tokenizes_only_oversized_sentences(self, tokenizer):
        class Encoding(Counting):
            def encode(self, text):
                return self.inner.encode(text)

        encoding = Encoding(tokenizer)
        sentences = ["La ley se publica.", _sentence_of(40), "Fin del texto."]
        chunks = pack_chunks(sentences, encoding, max_tokens=16, doc_id="e")
        assert chunk_fields(chunks) == _reference_pack(sentences, tokenizer, 16, "e")
        assert encoding.calls == 1

    def test_unpunctuated_line_is_cut_without_tokens(self):
        line = unpunctuated_line()
        tokenizer = VocabTokenizer()

        def no_tokens(text):
            raise AssertionError("a Token was asked for")

        tokenizer.tokenize = tokenizer.iter_tokens = no_tokens
        chunks = pack_chunks([line], tokenizer, max_tokens=512, doc_id="u")
        assert len(chunks) > 50
        assert all(0 < chunk.token_count <= 512 for chunk in chunks)
        # Cuts fall at word starts, so between "Asimismo" and its ",": all
        # the non-space characters are kept, in order.
        kept = "".join(chunk.text for chunk in chunks)
        assert "".join(kept.split()) == "".join(line.split())
        assert chunk_fields(chunks) == chunk_fields(
            pack_chunks([line], Counting(VocabTokenizer()), max_tokens=512, doc_id="u")
        )

    def test_oversized_sentence_is_encoded_only_past_the_budget(self):
        line = unpunctuated_line()
        tokenizer = VocabTokenizer()
        encoded = []

        def encode(text, whole=tokenizer.encode):
            encoded.append(len(text))
            return whole(text)

        tokenizer.encode = encode
        chunks = pack_chunks([line], tokenizer, max_tokens=512, doc_id="u")
        # 512 tokens take fewer characters than one slice: the first slice
        # passes the budget, and the line is then cut from `iter_words`.
        assert encoded == [line.index(" ", chunking._ENCODE_SLICE)]
        assert chunk_fields(chunks) == chunk_fields(
            pack_chunks([line], Counting(VocabTokenizer()), max_tokens=512, doc_id="u")
        )

    @settings(deadline=None)
    @given(
        st.lists(st.sampled_from(_SENTENCE_WORDS), max_size=40).map(" ".join),
        st.integers(1, 12),
        st.integers(1, 40),
    )
    def test_encoded_slices_are_the_encoded_sentence(
        self, tokenizer, sentence, slice_chars, budget
    ):
        whole = tokenizer.encode(sentence)
        count = sum(map(len, whole))
        with mock.patch.object(chunking, "_ENCODE_SLICE", slice_chars):
            words, counted = _encode_within(tokenizer.encode, sentence, budget)
        assert counted == sum(map(len, words))
        if count <= budget:
            assert (words, counted) == (whole, count)
        else:
            # A prefix of the sentence's words, stopped past the budget.
            assert budget < counted <= count
            assert words == whole[: len(words)]

    def test_record_rebuilt_without_encode(self, tokenizer):
        chunks = pack_chunks(
            ["Una frase corta.", "Otra frase algo más larga."] * 5,
            tokenizer,
            max_tokens=12,
            doc_id="r",
        )
        for chunk in chunks:
            record = chunk.to_record()
            fast = chunk_from_record(record, tokenizer)
            slow = chunk_from_record(record, Delegating(tokenizer))
            assert chunk_fields([fast]) == chunk_fields([slow]) == chunk_fields([chunk])


def _non_space(texts):
    return "".join("".join(texts).split())


class TestUndeclaredTokenizers:
    """A tokenizer without `concat_stable`: one packer, then one tokenize a chunk."""

    @pytest.mark.parametrize(
        "undeclared", [SpacesAreTokens, MergesRepeats], ids=["adds", "removes"]
    )
    @settings(deadline=None)
    @given(
        st.lists(
            # "de" twice, so repeats across a join are likely.
            st.lists(st.sampled_from(["de", "de", "la", "ley"]), max_size=8).map(
                " ".join
            ),
            max_size=10,
        ),
        st.integers(1, 12),
    )
    def test_chunks_fit_and_carry_their_texts_ids(self, undeclared, sentences, budget):
        tokenizer = undeclared()
        chunks = pack_chunks(sentences, tokenizer, max_tokens=budget, doc_id="u")
        for chunk in chunks:
            assert chunk.token_count <= budget
            ids = tuple(token.id for token in tokenizer.tokenize(chunk.text))
            assert chunk.token_ids == ids
        assert _non_space(c.text for c in chunks) == _non_space(sentences)

    def test_a_chunk_that_joining_overfills_is_cut(self):
        # "a" and "b" count 1 each, but "a b" is 3 tokens: over budget 2.
        chunks = pack_chunks(["a", "b"], SpacesAreTokens(), max_tokens=2)
        pieces = [(c.text, c.token_ids) for c in chunks]
        assert pieces == [("a ", (11, 7)), ("b", (11,))]

    def test_a_chunk_that_joining_shrinks_is_not_extended(self):
        # "la de" and "de ley" count 2 each: over budget 3 together, though
        # "la de de ley" is 3 tokens.
        chunks = pack_chunks(["la de", "de ley"], MergesRepeats(), max_tokens=3)
        pieces = [(c.text, c.token_ids) for c in chunks]
        assert pieces == [("la de", (12, 12)), ("de ley", (12, 13))]

    @pytest.mark.parametrize("words", [4, 12, 40])
    def test_each_sentence_and_chunk_is_tokenized_once(self, tokenizer, words):
        # Counted, not timed: re-tokenizing each candidate chunk read these
        # 4-word sentences 15 times over.
        seed = resources.files("lexprep").joinpath("data/seed/es.txt")
        pool = seed.read_text(encoding="utf-8").split()
        rng = random.Random(words)
        sentences = [" ".join(rng.choices(pool, k=words)) for _ in range(300)]
        # An oversized sentence, whose words are grouped from one more call.
        oversized = _sentence_of(3 * 512 + 5)
        sentences.insert(150, oversized)
        counting = CountingUndeclared(tokenizer)
        chunks = pack_chunks(sentences, counting, max_tokens=512, doc_id="n")
        assert chunk_fields(chunks) == chunk_fields(
            pack_chunks(sentences, tokenizer, max_tokens=512, doc_id="n")
        )
        assert counting.calls <= len(sentences) + len(chunks) + 1
        text = " ".join(sentences)
        assert counting.chars <= 2 * len(text) + len(oversized)
