"""Every value type keeps its contract: the constructor's field order,
equality and hash over the compared fields, `repr`, read-only fields, and
copies and pickles that equal the original.

Each type is built twice from the same arguments, and once more for each
field with that one argument changed to another valid value.
"""

import copy
import inspect
import pickle
from datetime import date
from pathlib import Path

import pytest

from lexprep.chunking import Chunk
from lexprep.cleaning import CleanPolicy
from lexprep.corpus import CorpusStats, DocKind, RawDocument
from lexprep.langid import LanguageProfile, LanguageVerdict
from lexprep.masking import MaskingConfig, MlmExample
from lexprep.metrics import BenchmarkReport, LearningCurve, PredictionRecord, ReportRow
from lexprep.pipeline import PipelineManifest
from lexprep.schedule import TrainConfig

ROW = ReportRow("m", 0.5, 1.0, 0.0)

# Each type's fields in constructor order, each with one valid value and
# another valid value that differs from it.
CASES = {
    RawDocument: [
        ("id", "d-1", "d-2"),
        ("source", "boe", "dogc"),
        ("region", "estado", "cataluña"),
        ("doc_kind", DocKind.RULE, DocKind.RULING),
        ("language_hint", "es", None),
        ("published_date", date(2024, 1, 2), date(2024, 1, 3)),
        ("text", "Hola.", "Adiós."),
    ],
    CorpusStats: [
        ("document_count", 2, 3),
        ("total_bytes", 10, 11),
        ("total_tokens", None, 4),
        ("per_region_counts", {"estado": 2}, {"estado": 1, "": 1}),
    ],
    Chunk: [
        ("doc_id", "d-1", "d-2"),
        ("seq", 0, 1),
        ("text", "uno dos", "tres cuatro"),
        ("word_boundaries", ((0, 2),), ((0, 1), (1, 2))),
        ("token_ids", (5, 6), (7, 8)),
    ],
    CleanPolicy: [
        ("collapse_spaces", True, False),
        ("collapse_newlines", True, False),
        ("strip_control", True, False),
        ("trim_ends", True, False),
    ],
    LanguageProfile: [
        ("language", "es", "ca"),
        ("ngram_ranks", ("_d", "de"), ("_d", "el")),
    ],
    LanguageVerdict: [("language", "es", "ca"), ("confidence", 0.5, 0.75)],
    MaskingConfig: [
        ("mask_rate", 0.15, 0.2),
        ("mask_prob", 0.8, 0.9),
        ("random_prob", 0.1, 0.2),
        ("seed", 0, 1),
    ],
    MlmExample: [
        ("doc_id", "d-1", "d-2"),
        ("seq", 0, 1),
        ("input_ids", (4, 5), (4, 6)),
        ("labels", (-100, 5), (4, -100)),
        ("selected_word_ranges", ((1, 2),), ((0, 1),)),
    ],
    PipelineManifest: [
        ("input_path", Path("in.jsonl"), Path("other.jsonl")),
        ("output_dir", Path("out"), Path("elsewhere")),
        ("stages", ("clean", "chunk"), ("clean",)),
        ("seed", 0, 1),
        ("language", "es", "ca"),
        ("threshold", 0.5, 0.9),
        ("profiles_path", None, Path("profiles.jsonl")),
        ("clean_policy", CleanPolicy(), CleanPolicy(trim_ends=False)),
        ("max_tokens", 512, 64),
        ("tokenizer_path", None, Path("vocab.txt")),
        ("masking", MaskingConfig(), MaskingConfig(mask_rate=0.2)),
    ],
    PredictionRecord: [
        ("example_id", "e-1", "e-2"),
        ("gold", frozenset({"a"}), frozenset({"b"})),
        ("predicted", frozenset({"a"}), frozenset()),
    ],
    LearningCurve: [
        ("model_name", "m", "n"),
        ("points", ((0.0, 0.5), (1.0, 0.6)), ((0.0, 0.5),)),
    ],
    ReportRow: [
        ("model_name", "m", "n"),
        ("max_f1", 0.5, 0.6),
        ("auc", 1.0, 1.5),
        ("from_epoch", 0.0, 1.0),
        ("best_max_f1", False, True),
        ("best_auc", False, True),
    ],
    BenchmarkReport: [("dataset_name", "d", "e"), ("rows", (ROW,), ())],
    TrainConfig: [
        ("total_steps", 10, 20),
        ("lr_peak", 1e-4, 2e-4),
        ("warmup_frac", 0.08, 0.1),
        ("batch_size", 16, 8),
        ("grad_accum", 4, 2),
        ("epochs", 2, 3),
    ],
}
# The fields each type's constructor took when the types were dataclasses.
FIELD_ORDER = {
    RawDocument: [
        "id", "source", "region", "doc_kind", "language_hint", "published_date", "text"
    ],
    CorpusStats: ["document_count", "total_bytes", "total_tokens", "per_region_counts"],
    Chunk: ["doc_id", "seq", "text", "word_boundaries", "token_ids"],
    CleanPolicy: ["collapse_spaces", "collapse_newlines", "strip_control", "trim_ends"],
    LanguageProfile: ["language", "ngram_ranks"],
    LanguageVerdict: ["language", "confidence"],
    MaskingConfig: ["mask_rate", "mask_prob", "random_prob", "seed"],
    MlmExample: ["doc_id", "seq", "input_ids", "labels", "selected_word_ranges"],
    PipelineManifest: [
        "input_path", "output_dir", "stages", "seed", "language", "threshold",
        "profiles_path", "clean_policy", "max_tokens", "tokenizer_path", "masking",
    ],
    PredictionRecord: ["example_id", "gold", "predicted"],
    LearningCurve: ["model_name", "points"],
    ReportRow: ["model_name", "max_f1", "auc", "from_epoch", "best_max_f1", "best_auc"],
    BenchmarkReport: ["dataset_name", "rows"],
    TrainConfig: [
        "total_steps", "lr_peak", "warmup_frac", "batch_size", "grad_accum", "epochs"
    ],
}
# Fields left out of equality, hash and repr.
NOT_COMPARED = {Chunk: {"token_ids"}}
MUTABLE = {CorpusStats}

TYPES = pytest.mark.parametrize("kind", list(CASES), ids=lambda kind: kind.__name__)
FROZEN_TYPES = pytest.mark.parametrize(
    "kind", [kind for kind in CASES if kind not in MUTABLE], ids=lambda kind: kind.__name__
)


def _build(kind, **changes):
    return kind(**{name: changes.get(name, value) for name, value, _ in CASES[kind]})


def test_every_value_type_is_covered():
    assert len(CASES) == len(FIELD_ORDER) == 14


@TYPES
def test_constructor_takes_the_fields_in_their_order(kind):
    assert list(inspect.signature(kind).parameters) == FIELD_ORDER[kind]
    assert [name for name, _, _ in CASES[kind]] == FIELD_ORDER[kind]
    values = [value for _, value, _ in CASES[kind]]
    assert kind(*values) == _build(kind)


@TYPES
def test_equal_arguments_give_equal_values(kind):
    first, second = _build(kind), _build(kind)
    assert first is not second
    assert first == second and not first != second
    assert first != object() and first != tuple(value for _, value, _ in CASES[kind])
    if kind not in MUTABLE:
        assert hash(first) == hash(second)


@TYPES
def test_each_compared_field_tells_values_apart(kind):
    base = _build(kind)
    for name, _, other in CASES[kind]:
        changed = _build(kind, **{name: other})
        if name in NOT_COMPARED.get(kind, ()):
            assert changed == base and hash(changed) == hash(base), name
            assert getattr(changed, name) != getattr(base, name)
        else:
            assert changed != base, name


@TYPES
def test_repr_names_each_compared_field(kind):
    value = _build(kind)
    shown = [
        f"{name}={getattr(value, name)!r}"
        for name, _, _ in CASES[kind]
        if name not in NOT_COMPARED.get(kind, ())
    ]
    assert repr(value) == f"{kind.__name__}({', '.join(shown)})"


@TYPES
def test_fields_are_read_only_unless_the_type_is_mutable(kind):
    value = _build(kind)
    for name, _, other in CASES[kind]:
        if kind in MUTABLE:
            setattr(value, name, other)
            assert getattr(value, name) == other
            continue
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, other)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.not_a_field = 1


@FROZEN_TYPES
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_frozen_value_copies_and_pickles(kind, duplicate):
    value = _build(kind)
    twin = duplicate(value)
    assert type(twin) is kind and twin == value and hash(twin) == hash(value)
    for name in kind.__slots__:  # every slot, `token_ids` and `ranks` too
        assert getattr(twin, name) == getattr(value, name), name
    for name, _, other in CASES[kind]:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(twin, name, other)


def test_corpus_stats_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(CorpusStats())


def test_corpus_stats_default_counts_are_not_shared():
    first, second = CorpusStats(), CorpusStats()
    first.per_region_counts["estado"] = 1
    assert second.per_region_counts == {}


def test_a_profile_ranks_its_grams_but_compares_without_them():
    profile = LanguageProfile("es", ("_d", "de", "el"))
    assert profile.ranks == {"_d": 0, "de": 1, "el": 2}
    assert " ranks=" not in repr(profile)
    assert profile == LanguageProfile("es", ("_d", "de", "el"))
