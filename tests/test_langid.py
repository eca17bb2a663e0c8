"""Character n-gram language identification and the Spanish gate."""

import random
import tracemalloc
from collections import Counter
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexprep import langid
from lexprep.errors import EmptyText, MalformedRecord, NoProfiles
from lexprep.langid import (
    DEFAULT_THRESHOLD,
    GRAM_TABLE_LIMIT,
    LONG_WORD,
    NGRAM_MAX,
    NGRAM_MIN,
    PLAN_WORD,
    PROFILE_SIZE,
    REJECTED_LANGUAGE,
    REJECTED_VERDICT,
    LanguageProfile,
    build_profiles_from_dir,
    builtin_profiles,
    filter_spanish,
    gate,
    identify_language,
    load_profiles,
    out_of_place_distance,
    rank_ngrams,
    save_profiles,
    text_ngrams,
    _normalize,
)

from .conftest import make_doc
from .lang_snippets import CA_SNIPPETS, EN_SNIPPETS, ES_SNIPPETS, GATE_FIXTURE


def _reference_ngrams(text: str) -> Counter:
    """The per-occurrence count: every gram of every word occurrence."""
    words = "".join(ch if ch.isalpha() else " " for ch in text.lower()).split()
    counts: Counter = Counter()
    for word in words:
        padded = f" {word} "
        for n in range(NGRAM_MIN, NGRAM_MAX + 1):
            for i in range(len(padded) - n + 1):
                gram = padded[i : i + n]
                if not gram.isspace():
                    counts[gram] += 1
    return counts


def _reference_normalize(text: str) -> list[str]:
    """Words as the per-character scan finds them: maximal isalpha runs."""
    return "".join(ch if ch.isalpha() else " " for ch in text.lower()).split()


def _reference_rank(counts: Counter, size: int = PROFILE_SIZE) -> tuple[str, ...]:
    """The full sort by (-count, gram), truncated."""
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return tuple(gram for gram, _ in ordered[:size])


def _assert_matches_reference(counts: dict, text: str) -> None:
    """`counts` is the reference count of `text`, in the reference's order.

    A glued word's grams are counted only as far as they can rank, so for
    a text holding one the counts must only rank as the reference does,
    never exceed it, and match it on every gram no glued word holds.
    """
    reference = _reference_ngrams(text)
    glued = [word for word in _reference_normalize(text) if len(word) > LONG_WORD]
    if not glued:
        assert list(counts.items()) == list(reference.items())
        return
    assert rank_ngrams(counts) == _reference_rank(reference)
    assert all(count <= reference[gram] for gram, count in counts.items())
    in_glued = set().union(*map(_reference_ngrams, set(glued)))
    for gram, count in reference.items():
        if gram not in in_glued:
            assert counts[gram] == count


# Words that repeat (so counts exceed 1 and ties are common), plus digits,
# punctuation, Unicode spaces and letters whose case mapping is unusual.
_LANGID_WORDS = st.sampled_from(
    "la ley de del el estado llei da lei the law x² mar_azul año ñandú "
    "İstanbul STRASSE straße ﬁn l·l 7/1985 -- e\u0301 \u00a0 \t".split(" ")
)
_langid_text = st.one_of(
    st.lists(_LANGID_WORDS, max_size=60).map(" ".join),
    st.text(max_size=80),
    # Glued runs of letters about LONG_WORD long, the first one repeated.
    st.lists(
        st.text(st.sampled_from("abcñé"), min_size=LONG_WORD - 2, max_size=150),
        max_size=4,
    ).map(lambda words: " ".join(words + words[:1])),
)


# Letters next to the characters a letter-run regex could get wrong:
# decimal and non-decimal digits (², ½, Ⅻ, ٣), underscores, combining
# marks, letters whose lowercase form changes length, punctuation, and
# every character `str.split()` cuts at.
_SPLIT_SEPARATORS = (
    " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)
_NORMALIZE_CHARS = st.sampled_from(
    list("aZñÉ_7²½Ⅻ٣\u0301·'.,;¿?«»()-İßﬁΣ" + _SPLIT_SEPARATORS)
)
# Characters of a token longer than LONG_WORD: letters, digits, numerics,
# marks, punctuation and letters whose lowercase form changes length.
_LONG_TOKEN_CHARS = st.sampled_from(
    list("abñÉ_7²½Ⅻ٣\u0301·'.,;¿?«»()-İßﬁΣǅ")
)
# Words with punctuation glued on, between separators.
_GLUED_WORDS = st.lists(
    st.one_of(
        st.sampled_from(
            ["ley,", "(art.", "«año»", "¿Qué?", "l·l", "x²,", "e\u0301.", "a_b"]
        ),
        st.sampled_from(list(_SPLIT_SEPARATORS)),
    ),
    max_size=30,
).map("".join)


# Pieces whose lowercase depends on their neighbours (a final sigma), or
# whose length changes (İ), numerics and digits inside runs, and the
# whitespace a window may be cut at.
_WINDOW_PIECES = st.sampled_from(
    ["ΟΔΟΣ", "Σ", "ΑΣ", "İ", "İstanbul", "x²", "½", "7", "ley", "LEY", "ñ", ".",
     " ", "  ", "\t", "\n", "\u00a0", "\u2028"]
)


class TestNgramsMatchReference:
    @settings(deadline=None)
    @given(st.lists(_WINDOW_PIECES, max_size=40).map("".join), st.integers(1, 8))
    def test_windowed_counts_match_the_whole_text(self, text, window):
        # Windows of a few characters put a cut next to every piece.
        with mock.patch.object(langid, "WINDOW", window):
            counts = text_ngrams(text)
        _assert_matches_reference(counts, text)

    def test_windows_cut_at_whitespace_and_cover_the_text(self):
        text = "ΟΔΟΣ\u00a0ΟΔΟΣ\tley  x²½ İstanbul"
        with mock.patch.object(langid, "WINDOW", 3):
            windows = list(langid._windows(text))
        assert "".join(windows) == text
        assert len(windows) > 3
        assert all(window[0].isspace() for window in windows[1:])
        assert "".join(map(str.lower, windows)) == text.lower()

    @settings(deadline=None)
    @given(
        st.one_of(
            st.text(_NORMALIZE_CHARS, max_size=40), _GLUED_WORDS, st.text(max_size=80)
        )
    )
    def test_normalize_matches_per_character_scan(self, text):
        assert _normalize(text) == _reference_normalize(text)

    @settings(deadline=None)
    @given(
        st.lists(
            st.text(_LONG_TOKEN_CHARS, min_size=LONG_WORD - 4, max_size=300),
            max_size=4,
        ).map(" ".join)
    )
    def test_normalize_cuts_long_tokens_as_the_scan_does(self, text):
        assert _normalize(text) == _reference_normalize(text)

    @settings(deadline=None)
    @given(_langid_text)
    def test_counts_match_per_occurrence_loop(self, text):
        _assert_matches_reference(text_ngrams(text), text)

    @settings(deadline=None)
    @given(_langid_text, st.integers(0, PROFILE_SIZE + 5))
    def test_rank_matches_full_sort(self, text, size):
        counts = _reference_ngrams(text)
        assert rank_ngrams(counts, size) == _reference_rank(counts, size)
        assert rank_ngrams(dict(counts), size) == _reference_rank(counts, size)

    @settings(deadline=None)
    @given(_langid_text, st.integers(0, 5))
    def test_rank_without_a_floor_keeps_every_gram(self, text, spare):
        # At most `size` grams: no floor is computed and every gram ranks.
        counts = text_ngrams(text)
        size = len(counts) + spare
        ranked = rank_ngrams(counts, size)
        assert ranked == _reference_rank(counts, size)
        assert sorted(ranked) == sorted(counts)

    def test_builtin_profiles_match_reference(self):
        seed_dir = resources.files("lexprep").joinpath("data/seed")
        for profile in builtin_profiles():
            text = seed_dir.joinpath(f"{profile.language}.txt").read_text(
                encoding="utf-8"
            )
            assert profile.ngram_ranks == _reference_rank(_reference_ngrams(text))

    def test_shipped_profiles_rebuild_from_seed(self, tmp_path):
        package = resources.files("lexprep")
        rebuilt = tmp_path / "profiles.jsonl"
        with resources.as_file(package.joinpath("data/seed")) as seed_dir:
            save_profiles(build_profiles_from_dir(seed_dir), rebuilt)
        shipped = package.joinpath("data/profiles.jsonl").read_bytes()
        assert rebuilt.read_bytes() == shipped


@pytest.fixture()
def empty_gram_table(monkeypatch):
    """A fresh word→grams table for one test; the process's own is restored."""
    monkeypatch.setattr(langid, "_word_grams", {})
    monkeypatch.setattr(langid, "_gram_strings", {})
    monkeypatch.setattr(langid, "_table_grams", 0)


def _table_crossing_texts() -> list[str]:
    """Texts whose distinct short words pass the table's bound in the middle
    of the third one, with repeats, glued runs and words seen before."""
    rng = random.Random(17)
    letters = "abcdeilmnoprstuñéá"
    vocabulary = sorted(
        {"".join(rng.choices(letters, k=rng.randint(1, 12))) for _ in range(3000)}
    )
    # A word of n letters has 5n - 2 grams; find the word that first
    # overflows the bound, and cut the third text around it.
    total = 0
    for crossing, word in enumerate(vocabulary):
        total += 5 * len(word) - 2
        if total > GRAM_TABLE_LIMIT:
            break
    first, second = crossing // 3, 2 * crossing // 3
    pieces = [
        vocabulary[:first],
        vocabulary[first:second] + vocabulary[:50],
        vocabulary[second : crossing + 300],
        vocabulary[crossing - 100 : crossing + 600],
    ]
    texts = []
    for words in pieces:
        words = words + rng.choices(words, k=len(words) // 2)
        rng.shuffle(words)
        words.insert(len(words) // 2, "".join(rng.choices(letters, k=LONG_WORD + 7)))
        texts.append(" ".join(words) + ".")
    return texts


@pytest.mark.usefixtures("empty_gram_table")
class TestGramTable:
    def test_counts_match_reference_across_the_bound(self):
        texts = _table_crossing_texts()
        for i, text in enumerate(texts):
            held_before = langid._table_grams
            _assert_matches_reference(text_ngrams(text), text)
            if i == 2:
                # The bound is passed within this text: some of its words
                # were admitted and some were listed without the table.
                assert held_before < langid._table_grams
                short = {w for w in _normalize(text) if len(w) <= LONG_WORD}
                assert short - set(langid._word_grams)
        # Every text again, now from a full table.
        for text in texts:
            _assert_matches_reference(text_ngrams(text), text)

    def test_table_holds_at_most_the_bound_and_no_long_word(self):
        for text in _table_crossing_texts():
            text_ngrams(text)
        table = langid._word_grams
        held = sum(map(len, table.values()))
        assert held == langid._table_grams
        assert GRAM_TABLE_LIMIT - 5 * LONG_WORD < held <= GRAM_TABLE_LIMIT
        assert all(len(word) <= LONG_WORD for word in table)
        for word, grams in table.items():
            assert Counter(grams) == _reference_ngrams(word)

    def test_words_share_equal_grams(self):
        text_ngrams("la ley de las leyes del estado; la ley")
        by_value: dict[str, str] = {}
        for grams in langid._word_grams.values():
            for gram in grams:
                assert by_value.setdefault(gram, gram) is gram
        assert langid._word_grams["la"][0] is langid._word_grams["las"][0]


# Words of a few letters, and words around the longest slice plan kept
# and around LONG_WORD, from an alphabet small enough to repeat grams.
_BOUND_WORDS = st.one_of(
    *(
        st.text(st.sampled_from("abcñé"), min_size=low, max_size=high)
        for low, high in (
            (1, 4),
            (PLAN_WORD - 2, PLAN_WORD + 2),
            (LONG_WORD - 2, LONG_WORD + 2),
        )
    )
)


@st.composite
def _singles_and_repeats(draw) -> str:
    """A text whose words are seen once or repeated, in mixed order."""
    words = draw(st.lists(_BOUND_WORDS, min_size=1, max_size=12))
    repeats = draw(st.lists(st.integers(0, len(words) - 1), max_size=8))
    return " ".join(words + [words[i] for i in repeats])


class TestSlicePlans:
    @pytest.mark.parametrize("limit", [0, 300, GRAM_TABLE_LIMIT])
    @settings(deadline=None)
    @given(texts=st.lists(_singles_and_repeats(), min_size=1, max_size=3))
    def test_counts_match_reference_across_calls(self, limit, texts):
        with (
            mock.patch.object(langid, "GRAM_TABLE_LIMIT", limit),
            mock.patch.object(langid, "_word_grams", {}),
            mock.patch.object(langid, "_gram_strings", {}),
            mock.patch.object(langid, "_table_grams", 0),
        ):
            for text in texts:
                _assert_matches_reference(text_ngrams(text), text)
            assert langid._table_grams <= limit

    @pytest.mark.usefixtures("empty_gram_table")
    def test_plans_kept_only_within_their_bound(self):
        rng = random.Random(3)
        words = ["".join(rng.choices("abcdeñé", k=n)) for n in range(1, 201)]
        with mock.patch.object(langid, "_plans", {}):
            text = " ".join(words)
            _assert_matches_reference(text_ngrams(text), text)
            assert set(langid._plans) == set(range(1, PLAN_WORD + 1))


# Glued runs over alphabets of 1, 2, 16 and 32 letters and a CJK block:
# few distinct grams, or many.
_GLUED_ALPHABETS = (
    "a",
    "ab",
    "abcdefghijklmnop",
    "abcdefghijklmnopqrstuvwxyzñéáíóú",
    "".join(map(chr, range(0x4E00, 0x4E20))),
)


@st.composite
def _glued_texts(draw) -> str:
    """Spanish snippets mixed with glued runs of 65 to 5,000 letters.

    A run is random, or its alphabet repeated so that many of its grams
    tie, and may occur more than once in the text.
    """
    pieces = [
        snippet[: draw(st.integers(1, len(snippet)))]
        for snippet in draw(st.lists(st.sampled_from(ES_SNIPPETS), max_size=3))
    ]
    for _ in range(draw(st.integers(1, 3))):
        alphabet = draw(st.sampled_from(_GLUED_ALPHABETS))
        length = draw(st.integers(LONG_WORD + 1, 5000))
        if draw(st.booleans()):
            run = (alphabet * length)[:length]
        else:
            rng = random.Random(draw(st.integers(0, 2**16)))
            run = "".join(rng.choices(alphabet, k=length))
        pieces += [run] * draw(st.integers(1, 3))
    return " ".join(draw(st.permutations(pieces)))


class TestBoundedCount:
    @settings(deadline=None, max_examples=40)
    @given(_glued_texts())
    def test_rank_and_verdict_match_the_full_count(self, text):
        reference = _reference_ngrams(text)
        counts = text_ngrams(text)
        for size in (0, 1, 7, PROFILE_SIZE):
            assert rank_ngrams(counts, size) == _reference_rank(reference, size)
        profiles = list(builtin_profiles())
        verdict = identify_language(text, profiles)
        with mock.patch.object(langid, "text_ngrams", _reference_ngrams):
            assert identify_language(text, profiles) == verdict

    @pytest.mark.parametrize(
        "alphabet, length",
        [
            ("abcdefghijklmnop", 160_000),
            # Nearly every bigram of a run over 3,000 CJK code points is
            # distinct.
            ("".join(map(chr, range(0x4E00, 0x4E00 + 3000))), 40_000),
        ],
        ids=["ascii", "cjk"],
    )
    def test_glued_run_of_random_letters_gated_in_bounded_memory(
        self, alphabet, length
    ):
        rng = random.Random(11)
        glued = "".join(rng.choices(alphabet, k=length))
        text = f"{ES_SNIPPETS[0]} {glued}"
        profiles = list(builtin_profiles())
        tracemalloc.start()
        try:
            identify_language(text, profiles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Counting every distinct gram of the run peaks near 20 MB over 16
        # letters and 17 MB over the CJK ones; every bigram, near 5 MB.
        assert peak < 4 * 2**20


class TestNgrams:
    def test_long_token_normalized_in_memory_for_its_words(self):
        rng = random.Random(3)
        token = "".join(rng.choices("abcdefghijklmnop", k=400_000)) + "."
        tracemalloc.start()
        try:
            words = _normalize(token)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert words == [token[:-1]]
        # A list of one entry per character peaks near 4 MB here.
        assert peak < 2 * 2**20

    def test_huge_word_counted_in_memory_for_its_distinct_grams(self):
        seed = resources.files("lexprep").joinpath("data/seed/es.txt")
        words = _normalize(seed.read_text(encoding="utf-8"))
        rng = random.Random(5)
        glued = ""
        while len(glued) < 100_000:
            glued += rng.choice(words)
        text = f"Véase {glued[:100_000]}."
        tracemalloc.start()
        try:
            counts = text_ngrams(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rank_ngrams(counts) == _reference_rank(_reference_ngrams(text))
        # Listing all 500,000 grams of the word at once peaks near 27 MB.
        assert peak < 8 * 2**20

    def test_gram_lengths_bounded(self):
        for gram in text_ngrams("Boletín Oficial del Estado"):
            assert NGRAM_MIN <= len(gram) <= NGRAM_MAX

    def test_case_folded(self):
        assert text_ngrams("LEY") == text_ngrams("ley")

    def test_digits_and_punctuation_ignored(self):
        assert text_ngrams("ley 7/1985, de 2 de abril") == text_ngrams(
            "ley de de abril"
        )

    def test_accents_preserved(self):
        assert text_ngrams("año") != text_ngrams("ano")

    def test_no_alphabetic_content_is_empty(self):
        assert not text_ngrams("123 456 --- 7.8")
        assert not text_ngrams("")

    def test_rank_orders_by_count_then_gram(self):
        from collections import Counter

        counts = Counter({"b": 5, "aa": 3, "ab": 3})
        assert rank_ngrams(counts) == ("b", "aa", "ab")

    def test_counts_are_a_plain_dict(self):
        # A store into a dict subclass such as Counter misses the exact-dict
        # fast path of the counting loop.
        for text in ("", "la ley de la ley", "véase " + "a" * (LONG_WORD + 1)):
            assert type(text_ngrams(text)) is dict

    def test_rank_truncates_to_size(self):
        counts = text_ngrams("la ley del estado regula el procedimiento general")
        assert len(rank_ngrams(counts, size=10)) == 10


class TestProfiles:
    def test_profile_size_capped(self):
        grams = tuple(f"g{i}" for i in range(PROFILE_SIZE + 1))
        with pytest.raises(ValueError):
            LanguageProfile(language="xx", ngram_ranks=grams)

    def test_profile_grams_unique(self):
        with pytest.raises(ValueError):
            LanguageProfile(language="xx", ngram_ranks=("a", "a"))

    def test_from_text_respects_cap(self):
        profile = LanguageProfile.from_text("es", "la ley " * 500)
        assert len(profile.ngram_ranks) <= PROFILE_SIZE
        assert len(set(profile.ngram_ranks)) == len(profile.ngram_ranks)

    def test_save_load_round_trip(self, tmp_path):
        originals = list(builtin_profiles())[:3]
        path = tmp_path / "profiles.jsonl"
        save_profiles(originals, path)
        restored = load_profiles(path)
        assert restored == originals

    @pytest.mark.parametrize(
        "line",
        [
            '{"ngram_ranks": ["a"]}',
            'not json',
            '{"language": "xx", "ngram_ranks": "abc"}',
        ],
        ids=["no-language", "not-json", "ranks-not-a-list"],
    )
    def test_load_reports_a_bad_line_by_number(self, tmp_path, line):
        path = tmp_path / "profiles.jsonl"
        good = '{"language": "es", "ngram_ranks": ["a", "b"]}'
        path.write_text(f"{good}\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedRecord) as excinfo:
            load_profiles(path)
        assert str(excinfo.value).startswith(f"{path}: line 2:")

    def test_build_from_dir_uses_stems(self, tmp_path):
        (tmp_path / "aa.txt").write_text("la ley del estado", encoding="utf-8")
        (tmp_path / "bb.txt").write_text("the law of the land", encoding="utf-8")
        profiles = build_profiles_from_dir(tmp_path)
        assert [p.language for p in profiles] == ["aa", "bb"]

    def test_build_from_empty_dir_raises(self, tmp_path):
        with pytest.raises(NoProfiles):
            build_profiles_from_dir(tmp_path)

    def test_builtin_profiles_cover_neighbors(self):
        languages = sorted(p.language for p in builtin_profiles())
        assert languages == ["ca", "en", "es", "eu", "fr", "gl", "pt"]

    def test_out_of_place_distance_zero_on_self(self):
        profile = builtin_profiles()[0]
        assert out_of_place_distance(profile.ngram_ranks, profile) == 0

    def test_out_of_place_distance_penalizes_misses(self):
        profile = LanguageProfile(language="xx", ngram_ranks=("a", "b"))
        assert out_of_place_distance(("b", "zz"), profile) == 1 + PROFILE_SIZE


class TestIdentify:
    def test_fixture_snippets_all_classified(self):
        profiles = list(builtin_profiles())
        for label, snippets in GATE_FIXTURE:
            for snippet in snippets:
                verdict = identify_language(snippet, profiles)
                assert verdict.language == label, snippet

    def test_spanish_example(self):
        verdict = identify_language(
            "El Boletín Oficial del Estado publica la presente ley con arreglo "
            "al artículo quinto.",
            list(builtin_profiles()),
        )
        assert verdict.language == "es"
        assert verdict.confidence > DEFAULT_THRESHOLD

    def test_english_example(self):
        verdict = identify_language(
            "The quick brown fox jumps over the lazy dog.",
            list(builtin_profiles()),
        )
        assert verdict.language == "en"

    def test_confidence_in_unit_interval(self):
        profiles = list(builtin_profiles())
        for _, snippets in GATE_FIXTURE:
            for snippet in snippets:
                verdict = identify_language(snippet, profiles)
                assert 0.0 <= verdict.confidence <= 1.0

    def test_needs_two_profiles(self):
        with pytest.raises(NoProfiles):
            identify_language("hola", [])
        with pytest.raises(NoProfiles):
            identify_language("hola", [builtin_profiles()[0]])

    def test_empty_text_raises(self):
        profiles = list(builtin_profiles())
        with pytest.raises(EmptyText):
            identify_language("", profiles)
        with pytest.raises(EmptyText):
            identify_language("123 456", profiles)

    def test_symmetric_profiles_give_zero_confidence(self):
        # identical profiles under two codes: nothing separates them,
        # so the verdict must carry zero confidence instead of erroring
        text = "aaaa aaaa aaaa"
        twin_a = LanguageProfile.from_text("aa", text)
        twin_b = LanguageProfile(language="bb", ngram_ranks=twin_a.ngram_ranks)
        verdict = identify_language(text, [twin_b, twin_a])
        assert verdict.confidence == 0.0
        assert verdict.language == "aa"

    def test_distance_ties_break_lexicographically(self):
        ranks = ("x", "y", "z")
        first = LanguageProfile(language="zz", ngram_ranks=ranks)
        second = LanguageProfile(language="aa", ngram_ranks=ranks)
        verdict = identify_language("xyz " * 4, [first, second])
        assert verdict.language == "aa"

    def test_deterministic(self):
        profiles = list(builtin_profiles())
        text = ES_SNIPPETS[0]
        assert identify_language(text, profiles) == identify_language(text, profiles)

    def test_sharpness_raises_confidence(self, monkeypatch):
        profiles = list(builtin_profiles())
        monkeypatch.setattr(langid, "SHARPNESS", 1)
        soft = identify_language(ES_SNIPPETS[0], profiles)
        monkeypatch.setattr(langid, "SHARPNESS", 50)
        sharp = identify_language(ES_SNIPPETS[0], profiles)
        assert soft.language == sharp.language == "es"
        assert sharp.confidence > soft.confidence


class TestGate:
    def test_keeps_spanish_rejects_neighbors(self):
        profiles = list(builtin_profiles())
        for label, snippets in GATE_FIXTURE:
            for snippet in snippets:
                kept, verdict = gate(snippet, profiles, threshold=0.95)
                assert kept == (label == "es"), snippet
                assert verdict.language == label

    def test_blank_text_rejected_with_sentinel(self):
        kept, verdict = gate("   \n", list(builtin_profiles()))
        assert not kept
        assert verdict == REJECTED_VERDICT
        assert verdict.language == REJECTED_LANGUAGE

    def test_threshold_is_strict(self):
        profiles = list(builtin_profiles())
        verdict = identify_language(ES_SNIPPETS[0], profiles)
        kept, _ = gate(ES_SNIPPETS[0], profiles, threshold=verdict.confidence)
        assert not kept

    def test_monotone_in_threshold(self):
        profiles = list(builtin_profiles())
        snippets = [s for _, group in GATE_FIXTURE for s in group]
        kept_counts = []
        for threshold in (0.0, 0.5, 0.95, 1.0):
            kept_counts.append(
                sum(gate(s, profiles, threshold=threshold)[0] for s in snippets)
            )
        assert kept_counts[0] == len(ES_SNIPPETS)
        assert kept_counts == sorted(kept_counts, reverse=True)
        assert kept_counts[-1] == 0

    def test_other_target_language(self):
        profiles = list(builtin_profiles())
        kept, verdict = gate(EN_SNIPPETS[0], profiles, language="en")
        assert kept
        assert verdict.language == "en"


def _profiles(*languages: str) -> list[LanguageProfile]:
    by_language = {profile.language: profile for profile in builtin_profiles()}
    return [by_language[language] for language in languages]


# Settings the gate refuses, with the messages `filter-lang` exits on:
# (profile languages, kept language, threshold, error, message).
_REFUSED_SETTINGS = {
    "listed-twice": (
        ("ca", "ca", "es"), "es", 0.95,
        ValueError, "the profiles list language 'ca' twice",
    ),
    "kept-listed-twice": (
        ("es", "es", "ca"), "es", 0.95,
        ValueError, "the profiles list language 'es' twice",
    ),
    "no-such-language": (
        ("ca", "es"), "xx", 0.95,
        ValueError, "no profile for language 'xx'; the profiles are ca, es",
    ),
    "one-profile": (
        ("es",), "es", 0.95,
        NoProfiles, "the gate needs two or more profiles, got 1",
    ),
    "threshold-above-1": (
        ("ca", "es"), "es", 1.5,
        ValueError, "threshold must lie in [0, 1], got 1.5",
    ),
}
_refused = pytest.mark.parametrize(
    "languages, language, threshold, error, message",
    list(_REFUSED_SETTINGS.values()),
    ids=list(_REFUSED_SETTINGS),
)


class TestRefusedSettings:
    @_refused
    def test_gate_raises(self, languages, language, threshold, error, message):
        with pytest.raises(error) as excinfo:
            gate(CA_SNIPPETS[0], _profiles(*languages), language, threshold)
        assert str(excinfo.value) == message

    @_refused
    @pytest.mark.parametrize("count", [0, 1])
    def test_filter_spanish_raises(
        self, count, languages, language, threshold, error, message
    ):
        docs = [make_doc("ca-0", CA_SNIPPETS[0])][:count]
        with pytest.raises(error) as excinfo:
            filter_spanish(
                docs, threshold, profiles=_profiles(*languages), language=language
            )
        assert str(excinfo.value) == message


class TestFilterSpanish:
    def _mixed_docs(self):
        docs = [make_doc(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS)]
        docs += [make_doc(f"ca-{i}", text) for i, text in enumerate(CA_SNIPPETS)]
        docs.append(make_doc("blank", "  \n "))
        return docs

    def test_conservation_and_routing(self):
        docs = self._mixed_docs()
        kept, rejected = filter_spanish(docs)
        assert len(kept) + len(rejected) == len(docs)
        assert [doc.id for doc in kept] == [f"es-{i}" for i in range(len(ES_SNIPPETS))]
        rejected_ids = {doc.id for doc, _ in rejected}
        assert rejected_ids == {f"ca-{i}" for i in range(len(CA_SNIPPETS))} | {"blank"}

    def test_blank_doc_gets_sentinel_verdict(self):
        _, rejected = filter_spanish([make_doc("blank", "...")])
        ((doc, verdict),) = rejected
        assert doc.id == "blank"
        assert verdict == REJECTED_VERDICT

    def test_rejected_carries_real_verdicts(self):
        _, rejected = filter_spanish([make_doc("ca-0", CA_SNIPPETS[0])])
        ((_, verdict),) = rejected
        assert verdict.language == "ca"
        assert verdict.confidence > 0

    def test_threshold_one_rejects_everything(self):
        kept, rejected = filter_spanish(self._mixed_docs(), threshold=1.0)
        assert not kept
        assert len(rejected) == len(self._mixed_docs())

    def test_threshold_zero_keeps_all_spanish(self):
        kept, _ = filter_spanish(self._mixed_docs(), threshold=0.0)
        assert len(kept) == len(ES_SNIPPETS)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            filter_spanish([], threshold=1.5)
        with pytest.raises(ValueError):
            filter_spanish([], threshold=-0.1)

    def test_other_language(self):
        docs = self._mixed_docs()
        kept, _ = filter_spanish(docs, language="ca")
        assert [doc.id for doc in kept] == [
            f"ca-{i}" for i in range(len(CA_SNIPPETS))
        ]

    def test_custom_profiles_used(self):
        spanish = LanguageProfile.from_text("es", " ".join(ES_SNIPPETS))
        catalan = LanguageProfile.from_text("ca", " ".join(CA_SNIPPETS))
        kept, _ = filter_spanish(
            [make_doc("es-0", ES_SNIPPETS[0])], profiles=[spanish, catalan]
        )
        assert [doc.id for doc in kept] == ["es-0"]
