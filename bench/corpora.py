"""Seeded corpus generator for the benchmark workloads (stdlib only).

Every corpus is built from the bundled seed texts in
`src/lexprep/data/seed/` and from the seed argument alone, so the same
(workload, seed) pair always gives the same bytes. The program under test
receives nothing but the JSONL corpus and the manifest written here.

    python3 bench/corpora.py --workload es_resampled --seed 1 --out DIR

See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED_DIR = ROOT / "src" / "lexprep" / "data" / "seed"

WORKLOADS = ("es_resampled", "mixed_zipf", "hostile")
OTHER_LANGUAGES = ("ca", "gl", "pt", "en", "fr", "eu")
MAX_TOKENS = 512

# Corpus sizes: one `lexprep run` takes about 1 to 4 s on a 2.1 GHz core,
# so a 40 s measurement holds 7 or more runs, and the layer each workload
# is meant to stress still dominates its self time. es_resampled is the
# largest because building the language profiles is a fixed per-process
# cost that would otherwise put langid level with tokenizers.
ES_BYTES = 340_000
MIXED_BYTES = 160_000
PSEUDO_WORDS = 30_000
ZIPF_EXPONENT = 1.0
HOSTILE_SPLIT_LINE_CHARS = 32_000
HOSTILE_UNPUNCTUATED_CHARS = 70_000
HOSTILE_LONG_WORD_CHARS = 10_000

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")
_WORD = re.compile(r"[^\W\d_]+")
_FINAL_PUNCT = re.compile(r"[.!?…]")

_SOURCES = ("boe", "dogc", "bocm", "boja", "dog", "bopv")
_REGIONS = ("estado", "catalunya", "madrid", "andalucia", "galicia", "euskadi")
_KINDS = ("rule", "notice", "ruling", "transcript")


def seed_text(language: str) -> str:
    return (SEED_DIR / f"{language}.txt").read_text(encoding="utf-8")


def seed_sentences(language: str) -> list[str]:
    return [
        sentence
        for line in seed_text(language).splitlines()
        for sentence in _SENTENCE_END.split(line.strip())
        if sentence
    ]


def seed_words(language: str) -> list[str]:
    return _WORD.findall(seed_text(language).lower())


def _record(rng: random.Random, doc_id: str, text: str) -> dict:
    return {
        "id": doc_id,
        "source": rng.choice(_SOURCES),
        "region": rng.choice(_REGIONS),
        "doc_kind": rng.choice(_KINDS),
        "language_hint": None,
        "published_date": f"20{rng.randint(10, 24)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
        "text": text,
    }


def _separator(rng: random.Random) -> str:
    """Mostly one space; sometimes the runs PDF extraction leaves behind."""
    draw = rng.random()
    if draw < 0.05:
        return "  "
    if draw < 0.07:
        return " \t"
    return " "


def _paragraphs(rng: random.Random, sentences: list[str]) -> str:
    """Join sentences into paragraphs of 2 to 6, separated by blank lines."""
    paragraphs = []
    i = 0
    while i < len(sentences):
        size = rng.randint(2, 6)
        group = sentences[i : i + size]
        paragraphs.append("".join(s + _separator(rng) for s in group[:-1]) + group[-1])
        i += size
    return "".join(
        p + ("\n\n" if rng.random() < 0.9 else "\n \n\n") for p in paragraphs[:-1]
    ) + paragraphs[-1]


def _fill(rng: random.Random, target_bytes: int, make_sentence, prefix: str, kinds):
    """Add documents of 10 to 60 sentences until the corpus reaches target_bytes.

    `kinds` cycles per document, so classes alternate in a fixed ratio and
    the corpus size stays within one sentence of the target for any seed.
    """
    records = []
    total = 0
    while total < target_bytes:
        kind = kinds[len(records) % len(kinds)]
        planned = rng.randint(10, 60)
        sentences: list[str] = []
        size = 0
        while len(sentences) < planned and total + size < target_bytes:
            sentence = make_sentence(kind)
            sentences.append(sentence)
            size += len(sentence.encode("utf-8")) + 1
        text = _paragraphs(rng, sentences)
        records.append(_record(rng, f"{prefix}-{len(records):05d}", text))
        total += len(text.encode("utf-8"))
    return records


def es_resampled(rng: random.Random) -> list[dict]:
    sentences = seed_sentences("es")
    return _fill(rng, ES_BYTES, lambda _: rng.choice(sentences), "es", ("es",))


def _char_model(words: list[str], order: int) -> dict[str, list[str]]:
    model: dict[str, list[str]] = {}
    for word in sorted(set(words)):
        padded = "^" * order + word + "$"
        for i in range(len(padded) - order):
            model.setdefault(padded[i : i + order], []).append(padded[i + order])
    return model


def pseudo_words(rng: random.Random, words: list[str], count: int) -> list[str]:
    """Distinct Spanish-looking words from an order-2 character model."""
    order = 2
    model = _char_model(words, order)
    known = set(words)
    made: dict[str, None] = {}
    while len(made) < count:
        state = "^" * order
        word = ""
        while len(word) < 16:
            ch = rng.choice(model[state])
            if ch == "$":
                break
            word += ch
            state = state[1:] + ch
        if len(word) >= 3 and word not in known:
            made.setdefault(word, None)
    return list(made)


def zipf_vocabulary(rng: random.Random) -> list[str]:
    """Seed words by falling frequency, then pseudo-words, rank order."""
    words = seed_words("es")
    ranked = [w for w, _ in sorted(Counter(words).items(), key=lambda i: (-i[1], i[0]))]
    return ranked + pseudo_words(rng, words, PSEUDO_WORDS)


def _sentence_from_words(rng: random.Random, words: list[str]) -> str:
    out = []
    for i, word in enumerate(words):
        if i == 0:
            word = word[0].upper() + word[1:]
        elif i < len(words) - 1 and rng.random() < 0.08:
            word += ","
        out.append(word)
    return " ".join(out) + "."


def mixed_zipf(rng: random.Random) -> list[dict]:
    vocab = zipf_vocabulary(rng)
    cum_weights = []
    acc = 0.0
    for rank in range(len(vocab)):
        acc += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum_weights.append(acc)
    other_words = {lang: seed_words(lang) for lang in OTHER_LANGUAGES}

    def make_sentence(kind: str) -> str:
        length = rng.randint(8, 28)
        if kind == "es":
            picked = rng.choices(vocab, cum_weights=cum_weights, k=length)
        else:
            picked = [rng.choice(other_words[kind]) for _ in range(length)]
        return _sentence_from_words(rng, picked)

    kinds = tuple(k for lang in OTHER_LANGUAGES for k in ("es", lang))
    return _fill(rng, MIXED_BYTES, make_sentence, "mx", kinds)


def _single_line(rng: random.Random, sentences: list[str], chars: int) -> str:
    parts = []
    size = 0
    while size < chars:
        sentence = rng.choice(sentences)
        parts.append(sentence)
        size += len(sentence) + 1
    return " ".join(parts)[:chars].rstrip()


def hostile(rng: random.Random) -> list[str]:
    """Adversarial documents as JSONL lines; one line is malformed on purpose.

    Records with lone surrogates are left out: today one aborts the whole
    run instead of being rejected.
    """
    es = seed_sentences("es")
    words = seed_words("es")
    long_word = ""
    while len(long_word) < HOSTILE_LONG_WORD_CHARS:
        long_word += rng.choice(words)
    long_word = long_word[:HOSTILE_LONG_WORD_CHARS]
    unpunctuated = _FINAL_PUNCT.sub(
        "", _single_line(rng, es, HOSTILE_UNPUNCTUATED_CHARS + 1000)
    )[:HOSTILE_UNPUNCTUATED_CHARS]
    texts = [
        ("split-a", _single_line(rng, es, HOSTILE_SPLIT_LINE_CHARS)),
        ("split-b", _single_line(rng, es, HOSTILE_SPLIT_LINE_CHARS)),
        ("unpunctuated", unpunctuated),
        (
            "long-word",
            " ".join(rng.sample(es, 3)) + f" Véase {long_word}. " + " ".join(rng.sample(es, 3)),
        ),
        ("catalan", _paragraphs(rng, [rng.choice(seed_sentences("ca")) for _ in range(20)])),
        ("punctuation", "... ¿¡ !!! --- ;;; «» (...) ¿? ¡! …"),
        ("empty", ""),
    ]
    lines = [
        json.dumps(_record(rng, f"hostile-{name}", text), ensure_ascii=False)
        for name, text in texts
    ]
    lines.insert(rng.randrange(len(lines) + 1), '{"id": "hostile-malformed", "text": "sin cierre')
    return lines


def corpus_lines(workload: str, seed: int) -> list[str]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hostile":
        return hostile(rng)
    records = es_resampled(rng) if workload == "es_resampled" else mixed_zipf(rng)
    return [json.dumps(record, ensure_ascii=False) for record in records]


def manifest(seed: int) -> dict:
    return {
        "input_path": "corpus.jsonl",
        "output_dir": "out",
        "stages": ["filter-lang", "clean", "chunk", "mask"],
        "seed": seed,
        "filter-lang": {"language": "es", "threshold": 0.95},
        "clean": {},
        "chunk": {"max_tokens": MAX_TOKENS},
        "mask": {"mask_rate": 0.15},
    }


def word_repeat_share(lines: list[str]) -> float:
    """Share of word occurrences whose word already occurred in the corpus."""
    total = 0
    distinct: set[str] = set()
    for line in lines:
        try:
            text = json.loads(line).get("text", "")
        except json.JSONDecodeError:
            continue
        words = _WORD.findall(text.lower())
        total += len(words)
        distinct.update(words)
    return 1.0 - len(distinct) / total if total else 0.0


def write_corpus(workload: str, seed: int, directory: Path) -> dict:
    """Write corpus.jsonl and manifest.json into directory; return corpus facts."""
    lines = corpus_lines(workload, seed)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "corpus.jsonl").write_bytes(data)
    (directory / "manifest.json").write_text(
        json.dumps(manifest(seed), indent=2) + "\n", encoding="utf-8"
    )
    return {
        "workload": workload,
        "seed": seed,
        "docs": sum(1 for line in lines if line.strip()),
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
        "word_repeat_share": round(word_repeat_share(lines), 6),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for corpus.jsonl and manifest.json")
    args = parser.parse_args(argv)
    print(json.dumps(write_corpus(args.workload, args.seed, Path(args.out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
