"""Whole-word masking for masked-language-model training examples.

Words are selected until the covered-token count reaches the target rate;
selection is all-or-nothing per word. Each token of a selected word then
draws its treatment: replace with the mask token, replace with a random
vocabulary token, or keep unchanged. Labels carry the original ids at
selected positions and an ignore value elsewhere, so the loss only sees
masked words.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from .chunking import Chunk
from .errors import VocabularyTooSmall
from .tokenizers import TokenizerInterface

IGNORE_LABEL = -100

DEFAULT_MASK_RATE = 0.15
DEFAULT_MASK_PROB = 0.80
DEFAULT_RANDOM_PROB = 0.10
DEFAULT_KEEP_PROB = 0.10

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class MaskingConfig:
    """Masking rates and the seed that makes a run reproducible."""

    mask_rate: float = DEFAULT_MASK_RATE
    mask_prob: float = DEFAULT_MASK_PROB
    random_prob: float = DEFAULT_RANDOM_PROB
    keep_prob: float = DEFAULT_KEEP_PROB
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_rate <= 1.0:
            raise ValueError(f"mask_rate must be in (0, 1], got {self.mask_rate}")
        for name in ("mask_prob", "random_prob", "keep_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        total = self.mask_prob + self.random_prob + self.keep_prob
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"treatment probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class MlmExample:
    """One training example: corrupted ids plus recovery labels."""

    doc_id: str
    seq: int
    input_ids: tuple[int, ...]
    labels: tuple[int, ...]
    selected_word_ranges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if len(self.input_ids) != len(self.labels):
            raise ValueError("input_ids and labels must have equal length")

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
    stable under parallel execution.
    """
    digest = hashlib.sha256(f"{seed}\x1f{doc_id}\x1f{seq}".encode()).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def _chunk_token_ids(chunk: Chunk, tokenizer: TokenizerInterface) -> Sequence[int]:
    """The ids the chunk carries, or else its re-tokenized and checked ids."""
    if chunk.token_ids is not None:
        return chunk.token_ids
    token_ids = [tok.id for tok in tokenizer.tokenize(chunk.text)]
    if len(token_ids) != chunk.token_count:
        raise ValueError(
            f"chunk {chunk.doc_id}:{chunk.seq} re-tokenized to {len(token_ids)} "
            f"tokens, expected {chunk.token_count}; wrong tokenizer?"
        )
    return token_ids


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
    token_ids = _chunk_token_ids(chunk, tokenizer)
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
    rng.shuffle(candidates)
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
    a special id never lands in the input), or stays unchanged
    (keep_prob). Kept positions still get a label: the model must predict
    them too. Unselected positions are never altered.
    """
    vocab = tokenizer.vocab_size
    specials = tokenizer.special_token_ids
    if config.random_prob > 0.0 and vocab - len(specials) < 1:
        raise VocabularyTooSmall(
            f"vocabulary of {vocab} has no non-special tokens to sample"
        )
    token_ids = _chunk_token_ids(chunk, tokenizer)
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
    """Select and mask one chunk with its derived RNG stream."""
    rng = chunk_rng(config.seed, chunk.doc_id, chunk.seq)
    selection = select_words(chunk, config, rng, tokenizer)
    return apply_mask(chunk, selection, config, tokenizer, rng)
