"""Ingestion, stats, and validation-split behavior."""

import itertools
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexprep.cli import main
from lexprep.corpus import (
    CorpusStats,
    DocKind,
    RawDocument,
    compute_stats,
    document_to_line,
    ingest_stream,
    published,
    read_documents,
    split_validation,
    write_documents,
)
from lexprep.errors import DuplicateId, InsufficientDocuments, MalformedRecord

from .conftest import doc_record, make_doc


def test_ingest_single_record_identity():
    line = json.dumps(doc_record("boe-2020-1", "texto"))
    docs = list(ingest_stream([line]))
    assert len(docs) == 1
    assert docs[0].id == "boe-2020-1"
    assert docs[0].text == "texto"


def test_ingest_empty_input():
    errors: list[MalformedRecord] = []
    assert list(ingest_stream([], error_sink=errors)) == []
    assert errors == []


def test_ingest_lenient_skips_malformed_and_counts():
    lines = [
        json.dumps(doc_record("a", "uno")),
        "{not json",
        json.dumps(doc_record("b", "dos")),
    ]
    errors: list[MalformedRecord] = []
    docs = list(ingest_stream(lines, strict=False, error_sink=errors))
    assert [d.id for d in docs] == ["a", "b"]
    assert len(errors) == 1
    assert errors[0].line_number == 2


def test_ingest_strict_raises_on_malformed():
    lines = [json.dumps(doc_record("a", "uno")), "{not json"]
    with pytest.raises(MalformedRecord) as excinfo:
        list(ingest_stream(lines, strict=True))
    assert excinfo.value.line_number == 2


def test_ingest_strict_raises_on_duplicate_id():
    lines = [json.dumps(doc_record("a", "uno")), json.dumps(doc_record("a", "dos"))]
    with pytest.raises(DuplicateId):
        list(ingest_stream(lines, strict=True))
    # lenient mode admits the duplicate and keeps memory flat
    assert len(list(ingest_stream(lines, strict=False))) == 2


def test_ingest_rejects_missing_or_empty_id():
    errors: list[MalformedRecord] = []
    lines = [json.dumps({"text": "sin id"}), json.dumps(doc_record("", "vacío"))]
    assert list(ingest_stream(lines, error_sink=errors)) == []
    assert len(errors) == 2


def test_ingest_blank_lines_skipped():
    lines = ["", "   ", json.dumps(doc_record("a", "uno")), "\n"]
    assert [d.id for d in ingest_stream(lines)] == ["a"]


def test_ingest_is_lazy():
    # An endless stream must be consumable prefix-wise: single pass,
    # bounded memory.
    lines = (json.dumps(doc_record(f"d{i}", "x")) for i in itertools.count())
    stream = ingest_stream(lines)
    first_three = [next(stream) for _ in range(3)]
    assert [d.id for d in first_three] == ["d0", "d1", "d2"]


def test_unknown_doc_kind_maps_to_other():
    record = doc_record("a", "uno")
    record["doc_kind"] = "press-release"
    docs = list(ingest_stream([json.dumps(record)]))
    assert docs[0].doc_kind is DocKind.OTHER


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("text", 42, "field 'text' must be a string"),
        ("text", ["uno"], "field 'text' must be a string"),
        ("language_hint", "spa", "field 'language_hint' must be a 2-letter code"),
        ("language_hint", 7, "field 'language_hint' must be a 2-letter code"),
    ],
)
def test_ill_typed_field_is_malformed(field, value, reason):
    record = {**doc_record("a", "uno"), field: value}
    with pytest.raises(ValueError, match=reason):
        RawDocument.from_record(record)
    errors: list[MalformedRecord] = []
    assert list(ingest_stream([json.dumps(record)], error_sink=errors)) == []
    assert [err.reason for err in errors] == [reason]


def test_replace_text_keeps_every_other_field():
    extra = {"language_hint": "es", "published_date": "2024-01-31"}
    doc = RawDocument.from_record({**doc_record("a", "uno"), **extra})
    assert doc.replace_text("dos") == RawDocument.from_record(
        {**doc_record("a", "dos"), **extra}
    )


@pytest.mark.parametrize(
    "value",
    [20240101, "20240101", "2024-W01-1", "2024-1-01"],
    ids=["integer", "basic-form", "week-date", "one-digit-month"],
)
def test_published_date_other_than_yyyy_mm_dd_is_malformed(value):
    # Python 3.11's `date.fromisoformat` reads the first three as 2024-01-01,
    # and 3.10's reads none of them: the form is checked before parsing.
    record = {**doc_record("a", "uno"), "published_date": value}
    errors: list[MalformedRecord] = []
    assert list(ingest_stream([json.dumps(record)], error_sink=errors)) == []
    assert [err.reason for err in errors] == [
        "field 'published_date' must be a YYYY-MM-DD string"
    ]


def test_bad_published_date_is_malformed(tmp_path):
    cases = [
        ("not-a-date", "must be a YYYY-MM-DD string"),
        # The form is right, but February has no 30th.
        ("2024-02-30", "is not ISO-8601: day is out of range for month"),
    ]
    path = tmp_path / "in.jsonl"
    for value, reason in cases:
        record = {**doc_record("a", "uno"), "published_date": value}
        errors: list[MalformedRecord] = []
        assert list(ingest_stream([json.dumps(record)], error_sink=errors)) == []
        assert [err.reason for err in errors] == [f"field 'published_date' {reason}"]
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        argv = ["--strict", "ingest", str(path), str(tmp_path / "out.jsonl")]
        assert main(argv) == 2, value


@pytest.mark.parametrize("field", ["source", "region"])
@pytest.mark.parametrize(
    "value", [{"k": 1}, ["r"], 0, False, 7], ids=["object", "list", "0", "false", "7"]
)
def test_non_string_source_or_region_is_malformed(tmp_path, field, value):
    # Written as Python's repr ("{'k': 1}") or, for 0 and false, as "".
    record = {**doc_record("a", "uno"), field: value}
    reason = f"field '{field}' must be a string or null"
    errors: list[MalformedRecord] = []
    assert list(ingest_stream([json.dumps(record)], error_sink=errors)) == []
    assert [err.reason for err in errors] == [reason]
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["--strict", "ingest", str(path), str(tmp_path / "out.jsonl")]) == 2


@pytest.mark.parametrize("field", ["source", "region"])
def test_null_or_missing_source_or_region_is_empty(field):
    record = doc_record("a", "uno")
    for value in (None, ""):
        assert getattr(RawDocument.from_record({**record, field: value}), field) == ""
    del record[field]
    assert getattr(RawDocument.from_record(record), field) == ""


def test_a_document_needs_an_id():
    # `from_record` refuses an empty id first, so only a direct build gets here.
    with pytest.raises(ValueError, match="^document id must be non-empty$"):
        RawDocument(id="", text="uno")


def test_document_line_round_trip():
    doc = RawDocument(
        id="x-1",
        source="boe",
        region="estado",
        doc_kind=DocKind.RULE,
        language_hint="es",
        text="artículo único",
    )
    restored = list(ingest_stream([document_to_line(doc)]))[0]
    assert restored == doc


def test_compute_stats_empty():
    stats = compute_stats([])
    assert stats.document_count == 0
    assert stats.total_bytes == 0
    assert stats.total_tokens is None
    assert stats.per_region_counts == {}


def test_compute_stats_counts_bytes_and_regions():
    docs = [make_doc("1", "ab", region="A"), make_doc("2", "cde", region="B")]
    stats = compute_stats(docs)
    assert stats.document_count == 2
    assert stats.total_bytes == 5
    assert stats.per_region_counts == {"A": 1, "B": 1}


def test_compute_stats_bytes_are_utf8():
    stats = compute_stats([make_doc("1", "ñ")])
    assert stats.total_bytes == 2


def test_compute_stats_with_tokenizer(tokenizer):
    stats = compute_stats([make_doc("1", "de la ley")], tokenizer=tokenizer)
    assert stats.total_tokens == len(tokenizer.tokenize("de la ley"))


class _TokenizeOnly:
    """The reference tokenizer without `encode`."""

    def __init__(self, inner):
        self.tokenize = inner.tokenize


# The shapes raw dumps carry: blank and punctuation-only bodies, unusual
# Unicode, a glued run of letters, and a long line with no sentence end.
_TOKEN_COUNT_TEXTS = [
    "",
    "   \n\t ",
    "... ¿¡ !!! --- ;;; «» (...) ¿? ¡! …",
    "x² y³ café mar_azul ½ Ⅻ e\u0301 правило 1.º",
    "Véase " + "prescripciónjurídica" * 1000 + ".",
    " ".join(["la ley de la administración del estado"] * 2000),
]


def test_compute_stats_counts_the_tokens_tokenize_lists(tokenizer):
    docs = [make_doc(str(i), text) for i, text in enumerate(_TOKEN_COUNT_TEXTS)]
    expected = sum(len(tokenizer.tokenize(text)) for text in _TOKEN_COUNT_TEXTS)
    assert compute_stats(docs, tokenizer=tokenizer).total_tokens == expected
    slow = compute_stats(docs, tokenizer=_TokenizeOnly(tokenizer))
    assert slow.total_tokens == expected


@given(
    st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.text(max_size=20)), max_size=30
    )
)
def test_stats_region_sum_matches_count(pairs):
    docs = [make_doc(str(i), text, region) for i, (region, text) in enumerate(pairs)]
    stats = compute_stats(docs)
    assert stats.document_count == sum(stats.per_region_counts.values())
    assert stats.total_bytes == sum(len(t.encode("utf-8")) for _, t in pairs)


def test_split_validation_zero():
    docs = [make_doc(str(i), "x") for i in range(5)]
    train, validation = split_validation(docs, 0, seed=1)
    assert validation == []
    assert train == docs


def test_split_validation_all():
    docs = [make_doc(str(i), "x") for i in range(5)]
    train, validation = split_validation(docs, 5, seed=1)
    assert train == []
    assert sorted(d.id for d in validation) == sorted(d.id for d in docs)


def test_split_validation_deterministic():
    docs = [make_doc(str(i), "x") for i in range(10)]
    first = split_validation(docs, 3, seed=42)
    second = split_validation(docs, 3, seed=42)
    assert [d.id for d in first[1]] == [d.id for d in second[1]]
    assert [d.id for d in first[0]] == [d.id for d in second[0]]


def test_split_validation_seed_changes_sample():
    docs = [make_doc(str(i), "x") for i in range(50)]
    picks = {tuple(d.id for d in split_validation(docs, 5, seed=s)[1]) for s in range(8)}
    assert len(picks) > 1


def test_split_validation_insufficient():
    with pytest.raises(InsufficientDocuments):
        split_validation([make_doc("1", "x")], 2, seed=0)


def test_split_validation_rejects_negative():
    with pytest.raises(ValueError, match=r"validation count must be non-negative, got -1"):
        split_validation([], -1, seed=0)


@given(st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_split_validation_partitions(n, seed):
    docs = [make_doc(str(i), "x") for i in range(20)]
    train, validation = split_validation(docs, n, seed)
    assert len(validation) == n
    train_ids = {d.id for d in train}
    valid_ids = {d.id for d in validation}
    assert train_ids.isdisjoint(valid_ids)
    assert train_ids | valid_ids == {d.id for d in docs}


def test_write_read_round_trip(tmp_path):
    docs = [make_doc("1", "uno"), make_doc("2", "dos", region="galicia")]
    path = tmp_path / "docs.jsonl"
    assert write_documents(path, docs) == 2
    assert list(read_documents(path)) == docs


def test_published_renames_every_file_once_all_are_written(tmp_path):
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    with published(first, second) as (one, two):
        one.write("señor\n")
        two.write("ley\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".a.jsonl.tmp",
            ".b.jsonl.tmp",
        ]
    assert first.read_text(encoding="utf-8") == "señor\n"
    assert second.read_text(encoding="utf-8") == "ley\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "b.jsonl"]


def test_published_failure_removes_every_temp_and_keeps_old_files(tmp_path):
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("kept\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with published(old, new) as (first, second):
            first.write("cut short\n")
            second.write("cut short\n")
            raise RuntimeError("writer broke")
    assert old.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]


def test_published_refuses_one_file_given_twice_before_opening_it(tmp_path):
    (tmp_path / "sub").mkdir()
    path = tmp_path / "a.jsonl"
    with pytest.raises(ValueError, match="a.jsonl"):
        with published(path, tmp_path / "sub" / ".." / "a.jsonl"):
            pass
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
    # A link to a published file names that file too.
    (tmp_path / "link").symlink_to(path)
    with pytest.raises(ValueError, match="a.jsonl"):
        with published(path, tmp_path / "link"):
            pass
    assert not path.exists()


def test_published_writes_through_one_device_given_twice():
    with published(os.devnull, os.devnull) as (one, two):
        one.write("a\n")
        two.write("b\n")


def test_corpus_stats_invariant_in_to_record():
    stats = CorpusStats()
    stats.add(make_doc("1", "abc", region="B"))
    stats.add(make_doc("2", "d", region="A"))
    record = stats.to_record()
    assert list(record["per_region_counts"]) == ["A", "B"]
    assert record["document_count"] == 2
    assert record["total_bytes"] == 4
