"""Character n-gram language identification with a confidence gate.

Each language is modeled by the rank order of its most frequent character
n-grams (lengths 1 to 5, word-padded). A text is scored against each
profile with the out-of-place distance: for every gram in the text's own
ranked profile, the absolute rank difference in the language profile, or
a fixed penalty when the gram is absent. Smallest total distance wins.

Confidence reflects how decisively the winner beat the runner-up. The
raw relative margin (d2 - d1) / d2 lives in a narrow band even for
unambiguous text (related languages share most frequent grams), so it is
sharpened through 1 - (1 - margin) ** sharpness to spread decisive wins
toward 1.0 where a high-threshold gate can separate them.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .corpus import RawDocument
from .errors import EmptyText, NoProfiles

NGRAM_MIN = 1
NGRAM_MAX = 5
PROFILE_SIZE = 400
DEFAULT_SHARPNESS = 50
DEFAULT_THRESHOLD = 0.95

REJECTED_LANGUAGE = "??"

# Runs of isalnum characters other than decimal digits. Every letter is
# one, and so are the rare non-decimal numerics (², ½, Ⅻ) that still have
# to be cut out of a run.
_LETTER_RUN = re.compile(r"[^\W\d_]+")


def _normalize(text: str) -> list[str]:
    """Lowercase, map non-letters to spaces, return words.

    Accented letters stay: characters such as ñ, ç, ã or l·l separate
    closely related languages better than any unaccented gram.
    """
    words = []
    for run in _LETTER_RUN.findall(text.lower()):
        if run.isalpha():
            words.append(run)
        else:
            words += "".join(ch if ch.isalpha() else " " for ch in run).split()
    return words


def text_ngrams(text: str) -> Counter:
    """Count word-padded character n-grams of lengths 1 to 5.

    Each distinct word is expanded once and its grams weighted by how
    often the word occurs.
    """
    counts: Counter = Counter()
    get = counts.get
    for word, times in Counter(_normalize(text)).items():
        padded = f" {word} "
        # Words hold no whitespace, so the unigrams (NGRAM_MIN is 1) are the
        # letters: the two padding spaces are the only all-space grams.
        grams = [*word]
        for n in range(NGRAM_MIN + 1, NGRAM_MAX + 1):
            grams += [padded[i : i + n] for i in range(len(padded) - n + 1)]
        if times == 1:
            counts.update(grams)
        else:
            for gram in grams:
                counts[gram] = get(gram, 0) + times
    return counts


def rank_ngrams(counts: Counter, size: int = PROFILE_SIZE) -> tuple[str, ...]:
    """Most frequent grams first; count ties break alphabetically."""
    if size <= 0:
        return ()
    items = list(counts.items())
    if len(items) > size:
        # Only grams counted at least as often as the size-th one can rank.
        floor = sorted(counts.values(), reverse=True)[size - 1]
        items = [item for item in items if item[1] >= floor]
    # Grams are unique, so the first sort orders by gram; the second is
    # stable, so count ties keep that order.
    items.sort()
    items.sort(key=itemgetter(1), reverse=True)
    return tuple([gram for gram, _ in items[:size]])


@dataclass(frozen=True)
class LanguageProfile:
    """Ranked n-gram signature of one language (at most PROFILE_SIZE grams)."""

    language: str
    ngram_ranks: tuple[str, ...]

    def __post_init__(self):
        if len(self.ngram_ranks) > PROFILE_SIZE:
            raise ValueError(f"a profile holds at most {PROFILE_SIZE} grams")
        if len(set(self.ngram_ranks)) != len(self.ngram_ranks):
            raise ValueError("profile grams must be unique")

    @cached_property
    def ranks(self) -> dict[str, int]:
        return {gram: i for i, gram in enumerate(self.ngram_ranks)}

    @classmethod
    def from_text(cls, language: str, text: str, size: int = PROFILE_SIZE):
        return cls(language=language, ngram_ranks=rank_ngrams(text_ngrams(text), size))


def out_of_place_distance(
    doc_grams: tuple[str, ...], profile: LanguageProfile, penalty: int = PROFILE_SIZE
) -> int:
    """Sum of rank displacements; absent grams cost the full penalty."""
    ranks = profile.ranks
    total = 0
    for doc_rank, gram in enumerate(doc_grams):
        lang_rank = ranks.get(gram)
        total += penalty if lang_rank is None else abs(doc_rank - lang_rank)
    return total


@dataclass(frozen=True)
class LanguageVerdict:
    """Winning language and gate confidence for one text."""

    language: str
    confidence: float


REJECTED_VERDICT = LanguageVerdict(language=REJECTED_LANGUAGE, confidence=0.0)


def identify_language(
    text: str,
    profiles: list[LanguageProfile],
    sharpness: float = DEFAULT_SHARPNESS,
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
    confidence = 1.0 - (1.0 - margin) ** sharpness
    return LanguageVerdict(language=language, confidence=confidence)


def gate(
    text: str,
    profiles: list[LanguageProfile],
    language: str = "es",
    threshold: float = DEFAULT_THRESHOLD,
    sharpness: float = DEFAULT_SHARPNESS,
) -> tuple[bool, LanguageVerdict]:
    """Keep a text iff the target language wins above the threshold.

    Text without alphabetic content is rejected with a sentinel verdict
    rather than raising, so corpus streams never abort on blank records.
    """
    try:
        verdict = identify_language(text, profiles, sharpness=sharpness)
    except EmptyText:
        return False, REJECTED_VERDICT
    kept = verdict.language == language and verdict.confidence > threshold
    return kept, verdict


def filter_spanish(
    docs: Iterable[RawDocument],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    profiles: Sequence[LanguageProfile] | None = None,
    language: str = "es",
    sharpness: float = DEFAULT_SHARPNESS,
    identifier: Callable[[str], LanguageVerdict] | None = None,
) -> tuple[list[RawDocument], list[tuple[RawDocument, LanguageVerdict]]]:
    """Split documents into kept and rejected-with-verdict.

    A document is kept iff the identifier names the target language with
    confidence strictly above the threshold. Documents the identifier
    cannot score (no alphabetic content) land in rejected under a
    sentinel verdict, so every input appears in exactly one output.

    Any callable from text to LanguageVerdict can replace the default
    rank-distance identifier built on the bundled profiles.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if identifier is None:
        pool = list(profiles) if profiles is not None else list(builtin_profiles())
        identifier = partial(identify_language, profiles=pool, sharpness=sharpness)
    kept: list[RawDocument] = []
    rejected: list[tuple[RawDocument, LanguageVerdict]] = []
    for doc in docs:
        try:
            verdict = identifier(doc.text)
        except EmptyText:
            rejected.append((doc, REJECTED_VERDICT))
            continue
        if verdict.language == language and verdict.confidence > threshold:
            kept.append(doc)
        else:
            rejected.append((doc, verdict))
    return kept, rejected


def save_profiles(profiles: list[LanguageProfile], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for profile in profiles:
            record = {
                "language": profile.language,
                "ngram_ranks": list(profile.ngram_ranks),
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _parse_profiles(lines: Iterable[str], source: str) -> list[LanguageProfile]:
    profiles = []
    for line in lines:
        if line.strip():
            record = json.loads(line)
            profiles.append(
                LanguageProfile(
                    language=record["language"],
                    ngram_ranks=tuple(record["ngram_ranks"]),
                )
            )
    if not profiles:
        raise NoProfiles(f"no profiles found in {source}")
    return profiles


def load_profiles(path: str | Path) -> list[LanguageProfile]:
    with open(path, encoding="utf-8") as handle:
        return _parse_profiles(handle, str(path))


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
    entry = resources.files("lexprep").joinpath("data/profiles.jsonl")
    lines = entry.read_text(encoding="utf-8").splitlines()
    return tuple(_parse_profiles(lines, "the bundled profiles"))
