"""Character n-gram language identification and the Spanish gate."""

from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexprep.errors import EmptyText, NoProfiles
from lexprep.langid import (
    DEFAULT_THRESHOLD,
    NGRAM_MAX,
    NGRAM_MIN,
    PROFILE_SIZE,
    REJECTED_LANGUAGE,
    REJECTED_VERDICT,
    LanguageProfile,
    LanguageVerdict,
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


# Words that repeat (so counts exceed 1 and ties are common), plus digits,
# punctuation, Unicode spaces and letters whose case mapping is unusual.
_LANGID_WORDS = st.sampled_from(
    "la ley de del el estado llei da lei the law x² mar_azul año ñandú "
    "İstanbul STRASSE straße ﬁn l·l 7/1985 -- e\u0301 \u00a0 \t".split(" ")
)
_langid_text = st.one_of(
    st.lists(_LANGID_WORDS, max_size=60).map(" ".join),
    st.text(max_size=80),
)


# Letters next to the characters a letter-run regex could get wrong:
# decimal and non-decimal digits (², ½, Ⅻ, ٣), underscores, combining
# marks, and letters whose lowercase form changes length.
_NORMALIZE_CHARS = st.sampled_from(list("aZñÉ_7²½Ⅻ٣\u0301·' \t\nİßﬁΣ"))


class TestNgramsMatchReference:
    @settings(deadline=None)
    @given(st.one_of(st.text(_NORMALIZE_CHARS, max_size=40), st.text(max_size=80)))
    def test_normalize_matches_per_character_scan(self, text):
        assert _normalize(text) == _reference_normalize(text)

    @settings(deadline=None)
    @given(_langid_text)
    def test_counts_match_per_occurrence_loop(self, text):
        counts = text_ngrams(text)
        assert list(counts.items()) == list(_reference_ngrams(text).items())

    @settings(deadline=None)
    @given(_langid_text, st.integers(0, PROFILE_SIZE + 5))
    def test_rank_matches_full_sort(self, text, size):
        counts = _reference_ngrams(text)
        assert rank_ngrams(counts, size) == _reference_rank(counts, size)

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


class TestNgrams:
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

    def test_sharpness_raises_confidence(self):
        profiles = list(builtin_profiles())
        soft = identify_language(ES_SNIPPETS[0], profiles, sharpness=1)
        sharp = identify_language(ES_SNIPPETS[0], profiles, sharpness=50)
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

    def test_pluggable_identifier(self):
        always_spanish = lambda text: LanguageVerdict(language="es", confidence=1.0)
        docs = self._mixed_docs()
        kept, rejected = filter_spanish(docs, identifier=always_spanish)
        assert len(kept) == len(docs)
        assert not rejected

    def test_identifier_at_exact_threshold_rejected(self):
        at_threshold = lambda text: LanguageVerdict(language="es", confidence=0.95)
        kept, rejected = filter_spanish(
            [make_doc("d", "hola")], threshold=0.95, identifier=at_threshold
        )
        assert not kept
        assert len(rejected) == 1

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
