"""Character n-gram language identification with a confidence gate.

Each language is modeled by the rank order of its most frequent character
n-grams (lengths 1 to 5, word-padded). A text is scored against each
profile with the out-of-place distance: for every gram in the text's own
ranked profile, the absolute rank difference in the language profile, or
PROFILE_SIZE when the gram is absent. Smallest total distance wins.

Confidence reflects how decisively the winner beat the runner-up. The
raw relative margin (d2 - d1) / d2 lives in a narrow band even for
unambiguous text (related languages share most frequent grams), so it is
sharpened through 1 - (1 - margin) ** SHARPNESS to spread decisive wins
toward 1.0 where a high-threshold gate can separate them.

The gate's rules live here once, for `filter_spanish` and `filter-lang`
alike: `check_gate` refuses a setting the gate cannot honour, and `gate`
keeps a text iff the kept language wins above the threshold.

Counting grams is most of the gate's time, and the documents of one
corpus share most of their words. So each process keeps one table from
each word of at most LONG_WORD letters to the tuple of its grams, bounded
by the GRAM_TABLE_LIMIT grams it holds. It follows the rule of every
process-wide table (the tokenizer's word table and the mask id→text table
too): a new word is kept while its grams fit, and the table is never
cleared; a word that does not fit has its grams listed as if there were no
table. Clearing it when full thrashes on a corpus whose vocabulary
outgrows it (the benchmark's mixed_zipf counted grams about 1.6x slower
that way), while one language's vocabulary, such as the Spanish seed
text's 13,635 grams, fits whole. Admitted words share their gram
strings through one dict beside the table, which holds a full table to
about 0.5 MB instead of 0.8 MB.

A word missing from the table is cut into its grams in one C call by its
slice plan: an `operator.itemgetter` of the slices for its length, whose
tuple of grams is counted and dropped when the table is full. Plans are
kept for words of at most PLAN_WORD letters (a bound on their memory,
see there); a longer word's plan is built each time. The counts go into
a plain dict: a store into a dict subclass such as Counter misses the
interpreter's exact-dict fast path. The grams of a word a text holds
once are counted by `collections._count_elements`, the C loop behind
`Counter.update`, which keeps that fast path for a plain dict.

A word longer than LONG_WORD letters is a glued run such as PDF
extraction leaves, and may hold far more distinct grams than a profile
ranks. Such words are counted last, one gram length at a time, and a
gram only where its prefix and suffix can still rank among the
PROFILE_SIZE most frequent: a gram occurs no more often than either
(the bound behind Apriori, Agrawal & Srikant 1994), so every ranking of
at most PROFILE_SIZE grams stays exact. A run then costs one byte per
letter for each gram length and an entry per distinct letter, plus the
grams that still reach the floor: all of them only while fewer than
PROFILE_SIZE grams count more than once.
"""

from __future__ import annotations

import json
import re
from collections import Counter, _count_elements
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import lru_cache
from itertools import compress, islice
from operator import and_, itemgetter
from pathlib import Path

from .corpus import RawDocument, published, read_records
from .errors import EmptyText, MalformedRecord, NoProfiles, check_type
from .tokenizers import LONG_WORD
from .values import FrozenValue

NGRAM_MIN = 1
NGRAM_MAX = 5
PROFILE_SIZE = 400
SHARPNESS = 50
DEFAULT_THRESHOLD = 0.95

REJECTED_LANGUAGE = "??"

# A word of at most LONG_WORD letters has its grams listed; a longer one is
# a glued run such as PDF extraction leaves, and is counted only where its
# grams can rank (see `_count_glued`). Listing every gram of the short
# words is faster; streaming every word measured 20% slower n-gram
# counting. The slice plans of the listed words are kept up to PLAN_WORD
# letters: about 0.16 MB by tracemalloc, against 0.64 MB up to LONG_WORD,
# for words too rare in natural text to repay it.
PLAN_WORD = 32

# Most grams the word→grams table holds. Per process, not an option, like
# the tokenizer's word table.
GRAM_TABLE_LIMIT = 16384

# The table, the gram strings its words share, and how many grams it holds.
_word_grams: dict[str, tuple[str, ...]] = {}
_gram_strings: dict[str, str] = {}
_table_grams = 0

# Word length → the slices that cut its padded form into its grams.
_plans: dict[int, Callable[[str], tuple[str, ...]]] = {}

# Text is lowercased and its words found one window at a time, each of at
# least WINDOW characters and cut at whitespace, so a long text is never
# lowercased whole (CPython's case mapping holds 12 bytes per character
# of a non-ASCII text while it runs). No letter run crosses whitespace,
# and whitespace ends the context of a final sigma, so the windows'
# words are the whole text's.
WINDOW = 16384
_SPACE = re.compile(r"\s")


def _normalize(text: str) -> list[str]:
    """Lowercase, map non-letters to spaces, return words.

    Accented letters stay: characters such as ñ, ç, ã or l·l separate
    closely related languages better than any unaccented gram.
    """
    # No letter run crosses whitespace, so each whitespace-split token is
    # cut on its own: an all-alpha token is one word, and only the others
    # (punctuation glued on, digits, ², combining marks) are scanned. A
    # token longer than LONG_WORD is mapped through a table of its distinct
    # characters, not a list of one entry per character; a table that maps
    # the letters too spares `translate` a failed lookup per letter.
    words = []
    append = words.append
    for token in text.lower().split():
        if token.isalpha():
            append(token)
        elif len(token) > LONG_WORD:
            table = {ord(ch): ch if ch.isalpha() else " " for ch in set(token)}
            words += token.translate(table).split()
        else:
            words += "".join([ch if ch.isalpha() else " " for ch in token]).split()
    return words


def _windows(text: str) -> Iterator[str]:
    """`text` in whitespace-aligned windows of at least WINDOW characters."""
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, start + WINDOW)
        end = len(text) if cut is None else cut.start()
        yield text[start:end]
        start = end


def _cut(padded: str, n: int) -> Iterator[str]:
    """The n-grams of a padded word by start, cut in C one at a time."""
    return map("".join, zip(*[islice(padded, k, None) for k in range(n)]))


def _slice_plan(length: int) -> Callable[[str], tuple[str, ...]]:
    """The slice plan of a word of `length` letters: called on the padded
    word, it cuts out the word's grams in one C call, in `text_ngrams`'
    order (the letters, then n = 2 to 5 by start)."""
    plan = _plans.get(length)
    if plan is None:
        # Words hold no whitespace, so the unigrams (NGRAM_MIN is 1) are
        # the letters: the two padding spaces are the only all-space grams.
        plan = itemgetter(
            *[slice(i, i + 1) for i in range(1, length + 1)],
            *[
                slice(i, i + n)
                for n in range(NGRAM_MIN + 1, NGRAM_MAX + 1)
                for i in range(length + 3 - n)
            ],
        )
        if length <= PLAN_WORD:
            _plans[length] = plan
    return plan


def _missed_grams(word: str) -> tuple[str, ...]:
    """The grams of a word of at most LONG_WORD letters not in the table,
    in `text_ngrams`' order, admitted to the table while they fit."""
    global _table_grams
    grams = _slice_plan(len(word))(f" {word} ")
    if _table_grams + len(grams) > GRAM_TABLE_LIMIT:
        return grams
    admitted = tuple(map(_gram_strings.setdefault, grams, grams))
    _word_grams[word] = admitted
    _table_grams += len(admitted)
    return admitted


def text_ngrams(text: str) -> dict[str, int]:
    """Count word-padded character n-grams of lengths 1 to 5, in a plain dict.

    Each distinct word is expanded once and its grams weighted by how
    often the word occurs. A word's grams come from the process's
    word→grams table when it holds the word, and from its slice plan
    otherwise (see the module docstring); neither changes what is
    counted, so the result depends on the text alone. The grams of a
    word seen once are counted in C, and every word's grams as the word
    comes, so a text with no word longer than LONG_WORD letters has
    every gram counted, entered in the order of its first occurrence.
    Words are found one window of the text at a time (see WINDOW), so a
    long text costs memory for its distinct words and one window's
    occurrences.

    The words longer than LONG_WORD are counted last, and only as far as
    their grams can rank among the PROFILE_SIZE most frequent (see
    `_count_glued`). Every gram that can rank keeps its exact count, so
    `rank_ngrams(counts, size)` is the full count's ranking for any
    size up to PROFILE_SIZE; other grams may be missing or counted too
    low.
    """
    occurrences: Counter = Counter()
    for window in _windows(text):
        occurrences.update(_normalize(window))
    counts: dict[str, int] = {}
    get = counts.get
    held = _word_grams.get
    glued: list[tuple[str, int]] = []
    for word, times in occurrences.items():
        grams = held(word)
        if grams is None:
            if len(word) > LONG_WORD:
                glued.append((word, times))
                continue
            grams = _missed_grams(word)
        if times == 1:
            _count_elements(counts, grams)
        else:
            for gram in grams:
                counts[gram] = get(gram, 0) + times
    if glued:
        _count_glued(counts, glued)
    return counts


def _count_glued(counts: dict[str, int], glued: list[tuple[str, int]]) -> None:
    """Add to `counts` the grams of the glued words that can rank.

    One gram length at a time, for every glued word. Letters are counted
    in full. From bigrams on, a gram is counted at a start only when its
    prefix and suffix both hold at least the floor, the PROFILE_SIZE-th
    largest count so far; the padding space, no gram itself, always
    passes. A gram occurs no more often than its prefix or suffix, and
    the floor never passes the final one, so every gram that can rank
    is counted in full (the Apriori bound). Each length costs one byte
    per start, for the mask of its fitting prefixes.
    """
    get = counts.get
    for n in range(NGRAM_MIN, NGRAM_MAX + 1):
        floor = 0 if n == NGRAM_MIN else _floor(counts, PROFILE_SIZE)
        if floor:
            allowed = {gram for gram, count in counts.items() if count >= floor}
            allowed.add(" ")
        for word, times in glued:
            if n == NGRAM_MIN:
                # Words hold no whitespace, so the unigrams are the letters.
                grams = word
            else:
                # While the floor is 0, every gram is counted.
                padded = f" {word} "
                grams = _cut(padded, n)
                if floor:
                    fit = bytes(map(allowed.__contains__, _cut(padded, n - 1)))
                    grams = compress(grams, map(and_, fit, memoryview(fit)[1:]))
            if times == 1:
                _count_elements(counts, grams)
            else:
                for gram in grams:
                    counts[gram] = get(gram, 0) + times


def _floor(counts: Mapping[str, int], size: int) -> int:
    """The size-th largest count, or 0 while fewer than `size` grams are held."""
    if not 0 < size <= len(counts):
        return 0
    return sorted(counts.values(), reverse=True)[size - 1]


def rank_ngrams(counts: Mapping[str, int], size: int = PROFILE_SIZE) -> tuple[str, ...]:
    """Most frequent grams first; count ties break alphabetically."""
    if size <= 0:
        return ()
    # Only grams counted at least as often as the size-th one can rank.
    floor = _floor(counts, size)
    items = [item for item in counts.items() if item[1] >= floor]
    # Grams are unique, so the first sort orders by gram; the second is
    # stable, so count ties keep that order.
    items.sort()
    items.sort(key=itemgetter(1), reverse=True)
    return tuple([gram for gram, _ in items[:size]])


class LanguageProfile(FrozenValue):
    """Ranked n-gram signature of one language (at most PROFILE_SIZE grams)."""

    __slots__ = ("language", "ngram_ranks", "ranks")
    _compared = __slots__[:2]  # `ranks`, each gram's rank, is derived from them

    def __init__(self, language: str, ngram_ranks: tuple[str, ...]):
        if len(ngram_ranks) > PROFILE_SIZE:
            raise ValueError(f"a profile holds at most {PROFILE_SIZE} grams")
        ranks = {gram: i for i, gram in enumerate(ngram_ranks)}
        if len(ranks) != len(ngram_ranks):
            raise ValueError("profile grams must be unique")
        self._set_fields(language, ngram_ranks, ranks)

    @classmethod
    def from_record(cls, record: object) -> "LanguageProfile":
        """Build a profile from its parsed JSON record; ValueError if ill-shaped."""
        if not isinstance(record, dict):
            raise ValueError("record must be a JSON object")
        language, grams = record.get("language"), record.get("ngram_ranks")
        if not isinstance(language, str) or not language:
            raise ValueError("field 'language' must be a non-empty string")
        if not isinstance(grams, list) or not all(isinstance(g, str) for g in grams):
            raise ValueError("field 'ngram_ranks' must be a list of strings")
        return cls(language=language, ngram_ranks=tuple(grams))

    @classmethod
    def from_text(cls, language: str, text: str):
        return cls(language=language, ngram_ranks=rank_ngrams(text_ngrams(text)))


def out_of_place_distance(doc_grams: tuple[str, ...], profile: LanguageProfile) -> int:
    """Sum of rank displacements; an absent gram costs PROFILE_SIZE."""
    ranks = profile.ranks
    total = 0
    for doc_rank, gram in enumerate(doc_grams):
        lang_rank = ranks.get(gram)
        total += PROFILE_SIZE if lang_rank is None else abs(doc_rank - lang_rank)
    return total


class LanguageVerdict(FrozenValue):
    """Winning language and gate confidence for one text."""

    __slots__ = ("language", "confidence")

    def __init__(self, language: str, confidence: float):
        self._set_fields(language, confidence)


REJECTED_VERDICT = LanguageVerdict(language=REJECTED_LANGUAGE, confidence=0.0)


def check_threshold(threshold: float) -> None:
    """Raise unless the gate threshold is a number in [0, 1]."""
    check_type("threshold", threshold, int, float)
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")


def check_gate(
    profiles: Sequence[LanguageProfile], language: str, threshold: float
) -> None:
    """Raise unless the gate can keep `language` under these settings.

    The threshold must be a number in [0, 1] (`check_threshold`); there
    must be two or more profiles (NoProfiles otherwise), each language
    listed once, and one of them `language` (ValueError otherwise).
    """
    check_threshold(threshold)
    if len(profiles) < 2:
        raise NoProfiles(f"the gate needs two or more profiles, got {len(profiles)}")
    languages = sorted(profile.language for profile in profiles)
    # A language listed twice is its own runner-up: a text it wins would be
    # given a confidence of 0.
    for code, following in zip(languages, languages[1:]):
        if code == following:
            raise ValueError(f"the profiles list language {code!r} twice")
    if language not in languages:
        raise ValueError(
            f"no profile for language {language!r}; "
            f"the profiles are {', '.join(languages)}"
        )


def identify_language(
    text: str, profiles: Sequence[LanguageProfile]
) -> LanguageVerdict:
    """Classify a text against at least two candidate profiles.

    Distance ties break toward the lexicographically smaller language
    code, deterministically. Confidence is 0 when the runner-up distance
    is 0 (nothing separates the candidates).
    """
    if len(profiles) < 2:
        raise NoProfiles(
            f"need at least two language profiles to rank, got {len(profiles)}"
        )
    doc_grams = rank_ngrams(text_ngrams(text))
    if not doc_grams:
        raise EmptyText("text has no alphabetic content to identify")
    scored = sorted(
        (out_of_place_distance(doc_grams, profile), profile.language)
        for profile in profiles
    )
    (d1, language), (d2, _) = scored[0], scored[1]
    if d2 == 0:
        return LanguageVerdict(language=language, confidence=0.0)
    margin = (d2 - d1) / d2
    confidence = 1.0 - (1.0 - margin) ** SHARPNESS
    return LanguageVerdict(language=language, confidence=confidence)


def gate(
    text: str,
    profiles: Sequence[LanguageProfile],
    language: str = "es",
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[bool, LanguageVerdict]:
    """Keep a text iff `language` wins with confidence strictly above
    `threshold`; a setting `check_gate` refuses raises, as in `filter-lang`.

    Text without alphabetic content is rejected with REJECTED_VERDICT
    rather than raising, so corpus streams never abort on blank records.
    """
    check_gate(profiles, language, threshold)
    try:
        verdict = identify_language(text, profiles)
    except EmptyText:
        return False, REJECTED_VERDICT
    return verdict.language == language and verdict.confidence > threshold, verdict


def filter_spanish(
    docs: Iterable[RawDocument],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    profiles: Sequence[LanguageProfile] | None = None,
    language: str = "es",
) -> tuple[list[RawDocument], list[tuple[RawDocument, LanguageVerdict]]]:
    """Split documents into kept and rejected-with-verdict by `gate`, so
    every input appears in exactly one output. `check_gate` checks the
    settings before any document is read; the profiles default to the
    bundled ones.
    """
    pool = list(builtin_profiles()) if profiles is None else list(profiles)
    check_gate(pool, language, threshold)
    kept: list[RawDocument] = []
    rejected: list[tuple[RawDocument, LanguageVerdict]] = []
    for doc in docs:
        keep, verdict = gate(doc.text, pool, language, threshold)
        if keep:
            kept.append(doc)
        else:
            rejected.append((doc, verdict))
    return kept, rejected


def save_profiles(profiles: list[LanguageProfile], path: str | Path) -> None:
    """Write one JSON line per profile; the file appears only once complete."""
    with published(path) as (handle,):
        for profile in profiles:
            record = {
                "language": profile.language,
                "ngram_ranks": list(profile.ngram_ranks),
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_profiles(path: str | Path) -> list[LanguageProfile]:
    """One profile per line; a bad line raises MalformedRecord, naming the file."""
    try:
        profiles = list(read_records(path, LanguageProfile.from_record, strict=True))
    except MalformedRecord as exc:
        raise MalformedRecord(exc.line_number, exc.reason, path) from None
    if not profiles:
        raise NoProfiles(f"no profiles found in {path}")
    return profiles


def build_profiles_from_dir(directory: str | Path) -> list[LanguageProfile]:
    """One profile per *.txt file; the stem is the language code."""
    directory = Path(directory)
    profiles = [
        LanguageProfile.from_text(path.stem, path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.txt"))
    ]
    if not profiles:
        raise NoProfiles(f"no *.txt seed files in {directory}")
    return profiles


@lru_cache(maxsize=1)
def builtin_profiles() -> tuple[LanguageProfile, ...]:
    """Profiles of the bundled seed corpora, loaded from `data/profiles.jsonl`.

    The file is shipped prebuilt so that no process has to rank the seed
    texts. After changing a seed text or the n-gram code, rebuild it with
    `lexprep build-profiles src/lexprep/data/seed src/lexprep/data/profiles.jsonl`.
    """
    # The package ships as files (pyproject `package-data`), never zipped.
    return tuple(load_profiles(Path(__file__).with_name("data") / "profiles.jsonl"))
