"""Whole-word masking for masked-language-model training examples.

Words are selected until the covered-token count reaches the target rate;
selection is all-or-nothing per word. Each token of a selected word then
draws its treatment: replace with the mask token, replace with a random
vocabulary token, or keep unchanged. Labels carry the original ids at
selected positions and an ignore value elsewhere, so the loss only sees
masked words.

Masking reads the token ids each chunk carries. From the tokenizer it
uses only three constants: `vocab_size`, `mask_token_id` and
`special_token_ids`.
"""

from __future__ import annotations

import math
import random

try:
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:  # an interpreter built without either
        from hashlib import sha256

from .chunking import Chunk
from .errors import VocabularyTooSmall, check_type
from .tokenizers import TokenizerInterface
from .values import FrozenValue

IGNORE_LABEL = -100

DEFAULT_MASK_RATE = 0.15
DEFAULT_MASK_PROB = 0.80
DEFAULT_RANDOM_PROB = 0.10

_PROB_TOL = 1e-12


class MaskingConfig(FrozenValue):
    """Masking rates and the seed that makes a run reproducible.

    A selected token is kept with the share 1 - mask_prob - random_prob.
    """

    __slots__ = ("mask_rate", "mask_prob", "random_prob", "seed")

    def __init__(
        self,
        mask_rate: float = DEFAULT_MASK_RATE,
        mask_prob: float = DEFAULT_MASK_PROB,
        random_prob: float = DEFAULT_RANDOM_PROB,
        seed: int = 0,
    ):
        self._set_fields(mask_rate, mask_prob, random_prob, seed)
        for name in ("mask_rate", "mask_prob", "random_prob"):
            check_type(name, getattr(self, name), int, float)
        check_type("seed", self.seed, int)
        if not 0.0 < self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in (0, 1], got {self.mask_rate}")
        for name in ("mask_prob", "random_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.mask_prob + self.random_prob
        if total > 1.0 + _PROB_TOL:
            raise ValueError(f"mask_prob and random_prob sum to {total}, more than 1")


class MlmExample(FrozenValue):
    """One training example: corrupted ids plus recovery labels."""

    __slots__ = ("doc_id", "seq", "input_ids", "labels", "selected_word_ranges")

    def __init__(
        self,
        doc_id: str,
        seq: int,
        input_ids: tuple[int, ...],
        labels: tuple[int, ...],
        selected_word_ranges: tuple[tuple[int, int], ...] = (),
    ):
        if len(input_ids) != len(labels):
            raise ValueError("input_ids and labels must have equal length")
        self._set_fields(doc_id, seq, input_ids, labels, selected_word_ranges)

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "seq": self.seq,
            "input_ids": list(self.input_ids),
            "labels": list(self.labels),
        }


def chunk_rng(seed: int, doc_id: str, seq: int) -> random.Random:
    """Derive an RNG from (seed, doc_id, seq) only.

    Every chunk gets an independent stream, so masking a corpus is
    deterministic regardless of the order chunks are processed in and
    stable under parallel execution. SHA-256 comes from the interpreter's
    built-in `_sha256` or `_sha2`, since `hashlib` maps all of OpenSSL.
    """
    digest = sha256(f"{seed}\x1f{doc_id}\x1f{seq}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _shuffle(items: list, rng: random.Random) -> None:
    """`rng.shuffle(items)` without two method calls per swap.

    The same Fisher–Yates swaps from the same rejection draws of
    `getrandbits` as `random.Random.shuffle`, so the same permutation and
    the same RNG state after it.
    """
    getrandbits = rng.getrandbits
    for i in range(len(items) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


def select_words(
    chunk: Chunk,
    config: MaskingConfig,
    rng: random.Random,
    tokenizer: TokenizerInterface,
) -> tuple[tuple[int, int], ...]:
    """Choose whole words until covered tokens first reach the target.

    The target is ceil(mask_rate * maskable) where maskable counts tokens
    of candidate words; words made solely of special tokens are never
    candidates. Words are drawn uniformly without replacement; the last
    accepted word may overshoot the target but words are never split.
    Returned ranges are sorted by position.
    """
    token_ids = chunk.token_ids
    specials = tokenizer.special_token_ids
    if specials.isdisjoint(token_ids):
        # Every word holds a non-special token, so every word is a candidate.
        candidates = list(chunk.word_boundaries)
        maskable = chunk.token_count
    else:
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
    _shuffle(candidates, rng)
    covered = 0
    chosen = []
    for start, end in candidates:
        if covered >= target:
            break
        chosen.append((start, end))
        covered += end - start
    chosen.sort()
    return tuple(chosen)


def apply_mask(
    chunk: Chunk,
    selection: tuple[tuple[int, int], ...],
    config: MaskingConfig,
    tokenizer: TokenizerInterface,
    rng: random.Random,
) -> MlmExample:
    """Corrupt the selected ranges and build labels.

    Each selected token independently becomes the mask token (mask_prob),
    a random non-special vocabulary id (random_prob, rejection-sampled so
    a special id never lands in the input), or stays unchanged (the share
    the other two leave). Kept positions still get a label: the model must
    predict them too. Unselected positions are never altered.
    """
    vocab = tokenizer.vocab_size
    specials = tokenizer.special_token_ids
    if config.random_prob > 0.0 and vocab - len(specials) < 1:
        raise VocabularyTooSmall(
            f"vocabulary of {vocab} has no non-special tokens to sample"
        )
    token_ids = chunk.token_ids
    input_ids = list(token_ids)
    labels = [IGNORE_LABEL] * len(token_ids)
    for start, end in selection:
        for i in range(start, end):
            labels[i] = token_ids[i]
            draw = rng.random()
            if draw < config.mask_prob:
                input_ids[i] = tokenizer.mask_token_id
            elif draw < config.mask_prob + config.random_prob:
                replacement = rng.randrange(vocab)
                while replacement in specials:
                    replacement = rng.randrange(vocab)
                input_ids[i] = replacement
    return MlmExample(
        doc_id=chunk.doc_id,
        seq=chunk.seq,
        input_ids=tuple(input_ids),
        labels=tuple(labels),
        selected_word_ranges=tuple(selection),
    )


def mask_chunk(
    chunk: Chunk, tokenizer: TokenizerInterface, config: MaskingConfig
) -> MlmExample:
    """Select and mask one chunk with its derived RNG stream.

    The chunk's own ids are masked; the tokenizer gives only its
    vocabulary size, mask id and special ids.
    """
    rng = chunk_rng(config.seed, chunk.doc_id, chunk.seq)
    selection = select_words(chunk, config, rng, tokenizer)
    return apply_mask(chunk, selection, config, tokenizer, rng)
