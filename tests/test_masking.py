"""Whole-word selection and the 80/10/10 corruption rules."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexprep.chunking import chunk_from_record, pack_chunks
from lexprep.errors import VocabularyTooSmall
from lexprep.masking import (
    IGNORE_LABEL,
    MaskingConfig,
    MlmExample,
    _shuffle,
    apply_mask,
    chunk_rng,
    mask_chunk,
    select_words,
)
from lexprep.tokenizers import Token, UNK

_SINGLE_TOKEN_WORDS = "de la el en es al ar os as ón".split()


def one_chunk(tokenizer, text, max_tokens=512, doc_id="m"):
    (chunk,) = pack_chunks([text], tokenizer, max_tokens=max_tokens, doc_id=doc_id)
    return chunk


def covered(selection):
    return sum(end - start for start, end in selection)


def _reference_select(chunk, config, rng, tokenizer):
    """Word selection as it was: re-tokenize, then test every word for specials."""
    token_ids = [tok.id for tok in tokenizer.tokenize(chunk.text)]
    specials = tokenizer.special_token_ids
    candidates = []
    maskable = 0
    for start, end in chunk.word_boundaries:
        if all(token_ids[i] in specials for i in range(start, end)):
            continue
        candidates.append((start, end))
        maskable += end - start
    if not candidates:
        return ()
    target = math.ceil(config.mask_rate * maskable)
    rng.shuffle(candidates)
    covered_tokens = 0
    chosen = []
    for start, end in candidates:
        if covered_tokens >= target:
            break
        chosen.append((start, end))
        covered_tokens += end - start
    return tuple(sorted(chosen))


# Unknown characters (Cyrillic, "²") become [UNK], a special id, so some
# drawn words are made of special tokens only and are never candidates.
_MASK_WORDS = st.sampled_from(
    _SINGLE_TOKEN_WORDS + ["información", "правило", "x²", "ley", ",", "¿"]
)


class TestSelectWords:
    def test_single_word_full_rate(self, tokenizer):
        chunk = one_chunk(tokenizer, "información")
        config = MaskingConfig(mask_rate=1.0)
        selection = select_words(chunk, config, random.Random(0), tokenizer)
        assert selection == ((0, chunk.token_count),)

    def test_whole_word_overshoot(self, tokenizer):
        # target is 1 token but every word has several: the drawn word is
        # taken whole.
        chunk = one_chunk(tokenizer, "información publicación jurídico")
        config = MaskingConfig(mask_rate=0.01)
        selection = select_words(chunk, config, random.Random(0), tokenizer)
        assert len(selection) == 1
        assert selection[0] in chunk.word_boundaries
        assert covered(selection) >= 1

    def test_ten_words_rate_015_selects_two(self, tokenizer):
        chunk = one_chunk(tokenizer, " ".join(_SINGLE_TOKEN_WORDS))
        assert chunk.token_count == 10
        config = MaskingConfig(mask_rate=0.15)
        for seed in range(20):
            selection = select_words(chunk, config, random.Random(seed), tokenizer)
            assert covered(selection) == 2

    def test_target_is_ceiling(self, tokenizer):
        chunk = one_chunk(tokenizer, " ".join(_SINGLE_TOKEN_WORDS[:7]))
        config = MaskingConfig(mask_rate=0.15)
        selection = select_words(chunk, config, random.Random(1), tokenizer)
        assert covered(selection) == math.ceil(0.15 * 7)

    def test_all_special_chunk_selects_nothing(self, tokenizer):
        # Cyrillic maps every character to the UNK special token.
        chunk = one_chunk(tokenizer, "пример слова")
        config = MaskingConfig(mask_rate=0.5)
        assert select_words(chunk, config, random.Random(0), tokenizer) == ()

    def test_special_words_never_candidates(self, tokenizer):
        chunk = one_chunk(tokenizer, "пример de la el en")
        token_ids = [t.id for t in tokenizer.tokenize(chunk.text)]
        config = MaskingConfig(mask_rate=1.0)
        selection = select_words(chunk, config, random.Random(0), tokenizer)
        for start, end in selection:
            assert any(token_ids[i] != UNK for i in range(start, end))

    def test_ranges_sorted_and_from_boundaries(self, tokenizer):
        chunk = one_chunk(tokenizer, "la administración publicó la resolución ayer")
        config = MaskingConfig(mask_rate=0.6)
        selection = select_words(chunk, config, random.Random(7), tokenizer)
        assert list(selection) == sorted(selection)
        assert set(selection) <= set(chunk.word_boundaries)

    def test_deterministic_for_fixed_rng_seed(self, tokenizer):
        chunk = one_chunk(tokenizer, "una resolución administrativa cualquiera")
        config = MaskingConfig(mask_rate=0.4)
        first = select_words(chunk, config, random.Random(5), tokenizer)
        second = select_words(chunk, config, random.Random(5), tokenizer)
        assert first == second


class TestShuffle:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 + 3])
    def test_same_permutation_and_state_as_random_shuffle(self, seed):
        for length in range(601):
            expected = list(range(length))
            reference = random.Random(f"{seed}-{length}")
            reference.shuffle(expected)
            items = list(range(length))
            rng = random.Random(f"{seed}-{length}")
            _shuffle(items, rng)
            assert items == expected
            assert rng.random() == reference.random()


class TestCarriedIds:
    @settings(deadline=None)
    @given(
        st.lists(_MASK_WORDS, min_size=1, max_size=80).map(" ".join),
        st.floats(0.01, 1.0),
        st.integers(0, 2**32),
    )
    def test_select_matches_reference(self, tokenizer, text, rate, seed):
        chunk = one_chunk(tokenizer, text)
        config = MaskingConfig(mask_rate=rate)
        reference = random.Random(seed)
        expected = _reference_select(chunk, config, reference, tokenizer)
        rng = random.Random(seed)
        assert select_words(chunk, config, rng, tokenizer) == expected
        # apply_mask draws on from the same state.
        assert rng.random() == reference.random()

    @settings(deadline=None)
    @given(st.lists(_MASK_WORDS, min_size=1, max_size=80).map(" ".join))
    def test_carried_ids_mask_like_retokenized(self, tokenizer, text):
        # `lexprep mask` decodes each chunk from its record; `run` masks it as cut.
        chunk = one_chunk(tokenizer, text)
        decoded = chunk_from_record(chunk.to_record(), tokenizer)
        config = MaskingConfig(seed=5)
        assert mask_chunk(chunk, tokenizer, config) == mask_chunk(
            decoded, tokenizer, config
        )

    def test_carried_ids_skip_tokenizing(self, tokenizer):
        class Counting:
            def __init__(self):
                self.calls = 0
                self.vocab_size = tokenizer.vocab_size
                self.mask_token_id = tokenizer.mask_token_id
                self.special_token_ids = tokenizer.special_token_ids

            def tokenize(self, text):
                self.calls += 1
                return tokenizer.tokenize(text)

        chunk = one_chunk(tokenizer, "la administración publicó la resolución")
        counting = Counting()
        mask_chunk(chunk, counting, MaskingConfig())
        assert counting.calls == 0


class TestApplyMask:
    def test_all_mask_probability(self, tokenizer):
        chunk = one_chunk(tokenizer, "la ley organica del estado")
        config = MaskingConfig(mask_prob=1.0, random_prob=0.0)
        selection = chunk.word_boundaries
        example = apply_mask(chunk, selection, config, tokenizer, random.Random(0))
        assert all(i == tokenizer.mask_token_id for i in example.input_ids)
        original = [t.id for t in tokenizer.tokenize(chunk.text)]
        assert list(example.labels) == original

    def test_empty_selection_is_identity(self, tokenizer):
        chunk = one_chunk(tokenizer, "la ley organica del estado")
        example = apply_mask(chunk, (), MaskingConfig(), tokenizer, random.Random(0))
        assert list(example.input_ids) == [t.id for t in tokenizer.tokenize(chunk.text)]
        assert all(label == IGNORE_LABEL for label in example.labels)

    def test_labels_match_selection_exactly(self, tokenizer):
        chunk = one_chunk(tokenizer, "la administración publicó la resolución ayer")
        config = MaskingConfig(mask_rate=0.4)
        rng = random.Random(3)
        selection = select_words(chunk, config, rng, tokenizer)
        example = apply_mask(chunk, selection, config, tokenizer, rng)
        selected_positions = {
            i for start, end in selection for i in range(start, end)
        }
        labeled_positions = {
            i for i, label in enumerate(example.labels) if label != IGNORE_LABEL
        }
        assert labeled_positions == selected_positions

    def test_unselected_positions_untouched(self, tokenizer):
        chunk = one_chunk(tokenizer, "la administración publicó la resolución ayer")
        original = [t.id for t in tokenizer.tokenize(chunk.text)]
        config = MaskingConfig(mask_rate=0.3)
        rng = random.Random(9)
        selection = select_words(chunk, config, rng, tokenizer)
        example = apply_mask(chunk, selection, config, tokenizer, rng)
        selected_positions = {
            i for start, end in selection for i in range(start, end)
        }
        for i, token_id in enumerate(original):
            if i not in selected_positions:
                assert example.input_ids[i] == token_id

    def test_random_branch_never_emits_specials(self, tokenizer):
        chunk = one_chunk(tokenizer, " ".join(_SINGLE_TOKEN_WORDS * 20))
        config = MaskingConfig(mask_prob=0.0, random_prob=1.0)
        example = apply_mask(
            chunk, chunk.word_boundaries, config, tokenizer, random.Random(2)
        )
        assert all(i not in tokenizer.special_token_ids for i in example.input_ids)

    def test_keep_branch_still_labels(self, tokenizer):
        chunk = one_chunk(tokenizer, "de la ley")
        config = MaskingConfig(mask_prob=0.0, random_prob=0.0)
        example = apply_mask(
            chunk, chunk.word_boundaries, config, tokenizer, random.Random(0)
        )
        original = [t.id for t in tokenizer.tokenize(chunk.text)]
        assert list(example.input_ids) == original
        assert list(example.labels) == original

    def test_vocabulary_too_small(self):
        class AllSpecial:
            vocab_size = 5
            mask_token_id = 4
            special_token_ids = frozenset(range(5))
            reserved_special_count = 0

            def tokenize(self, text):
                return [
                    Token(UNK, i == 0, ch, i) for i, ch in enumerate(text)
                ]

        small = AllSpecial()
        bad_chunk = one_chunk(small, "пример")
        with pytest.raises(VocabularyTooSmall):
            apply_mask(
                bad_chunk,
                bad_chunk.word_boundaries,
                MaskingConfig(),
                small,
                random.Random(0),
            )
        # with the random branch disabled the same vocabulary is fine
        example = apply_mask(
            bad_chunk,
            bad_chunk.word_boundaries,
            MaskingConfig(mask_prob=1.0, random_prob=0.0),
            small,
            random.Random(0),
        )
        assert all(i == small.mask_token_id for i in example.input_ids)


class TestMaskChunk:
    def test_deterministic_and_order_independent(self, tokenizer):
        texts = [
            "la administración publicó la resolución",
            "el artículo quinto entra en vigor",
            "los plazos se computan en días hábiles",
        ]
        chunks = [one_chunk(tokenizer, t, doc_id=f"d{i}") for i, t in enumerate(texts)]
        config = MaskingConfig(seed=13)
        forward = [mask_chunk(c, tokenizer, config) for c in chunks]
        backward = [mask_chunk(c, tokenizer, config) for c in reversed(chunks)]
        assert forward == list(reversed(backward))

    def test_seed_changes_output(self, tokenizer):
        chunk = one_chunk(tokenizer, "la administración publicó la resolución ayer")
        a = mask_chunk(chunk, tokenizer, MaskingConfig(seed=0))
        b = mask_chunk(chunk, tokenizer, MaskingConfig(seed=1))
        assert a != b

    def test_rng_stream_depends_on_identity(self):
        assert chunk_rng(0, "a", 0).random() != chunk_rng(0, "a", 1).random()
        assert chunk_rng(0, "a", 0).random() != chunk_rng(0, "b", 0).random()
        assert chunk_rng(0, "a", 0).random() == chunk_rng(0, "a", 0).random()

    @given(
        seed=st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200)),
        # Any text but lone surrogates, which no chunk record may carry.
        doc_id=st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
        | st.sampled_from(["d0", "ley-ñ", "𝔏𝔢𝔶", "文書\x1f0"]),
        seq=st.integers(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rng_is_seeded_from_the_hashlib_digest(self, seed, doc_id, seq):
        # hashlib's SHA-256 seeded every 04-mask.jsonl written so far.
        key = f"{seed}\x1f{doc_id}\x1f{seq}".encode()
        digest = hashlib.sha256(key).digest()
        reference = random.Random(int.from_bytes(digest[:16], "big"))
        assert chunk_rng(seed, doc_id, seq).getstate() == reference.getstate()

    def test_to_record_shape(self, tokenizer):
        chunk = one_chunk(tokenizer, "de la ley", doc_id="r")
        record = mask_chunk(chunk, tokenizer, MaskingConfig()).to_record()
        assert set(record) == {"doc_id", "seq", "input_ids", "labels"}
        assert len(record["input_ids"]) == len(record["labels"]) == chunk.token_count


def test_an_example_needs_a_label_per_input_id():
    with pytest.raises(ValueError, match="^input_ids and labels must have equal length$"):
        MlmExample("d-1", 0, input_ids=(4, 5), labels=(IGNORE_LABEL,))


class TestMaskingConfig:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            MaskingConfig(mask_rate=0.0)
        with pytest.raises(ValueError):
            MaskingConfig(mask_rate=1.2)

    def test_rejects_probabilities_not_summing_to_one(self):
        # A mask share and a random share that leave less than nothing to keep.
        with pytest.raises(ValueError, match="^mask_prob and random_prob sum to 1.1"):
            MaskingConfig(mask_prob=0.8, random_prob=0.3)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            MaskingConfig(mask_prob=1.5, random_prob=-0.4)
