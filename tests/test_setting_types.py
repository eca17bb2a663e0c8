"""Every setting and record field has one JSON type, and nothing is coerced.

A manifest value of the wrong type is a `ManifestError` (exit 2), never a
traceback and never a value cut to fit: 1.9 is no seed, "12" is no seed,
true is no rate and "no" is no switch. Each owner checks its own fields,
so the CLI, the library and the manifest share one check.
"""

import json
import logging
import re

import pytest

from lexprep.chunking import validate_chunk_record
from lexprep.cleaning import CleanPolicy
from lexprep.cli import main
from lexprep.errors import ManifestError
from lexprep.langid import check_threshold
from lexprep.masking import MaskingConfig
from lexprep.pipeline import PipelineManifest
from lexprep.tokenizers import VocabTokenizer

from .conftest import doc_record, run_lexprep, write_jsonl
from .lang_snippets import ES_SNIPPETS

_BASE = {
    "input_path": "in.jsonl",
    "output_dir": "out",
    "stages": ["filter-lang", "clean", "chunk", "mask"],
}

# Each entry replaces its key of a valid four-stage manifest. The first five
# raised TypeError (a traceback, exit 1); the next three ran as seed 1,
# 96 tokens and seed 12.
ILL_TYPED = [
    {"stages": 5},
    {"input_path": 5},
    {"clean": 5},
    {"chunk": 5},
    {"seed": [1]},
    {"seed": 1.9},
    {"chunk": {"max_tokens": 96.7}},
    {"seed": "12"},
    # true was read as 1.0, "no" as a true switch, and a quoted number
    # was converted.
    {"filter-lang": {"threshold": True}},
    {"filter-lang": {"threshold": "0.5"}},
    {"mask": {"mask_rate": True}},
    {"mask": {"mask_rate": "0.5"}},
    {"clean": {"collapse_spaces": "no"}},
    {"clean": {"trim_ends": 0}},
    {"filter-lang": {"language": 5}},
    {"chunk": {"tokenizer": 5}},
    {"filter-lang": {"profiles": None}},
    {"seed": False},
    {"stages": ["clean"], "chunk": {"max_tokens": True}},
    {"stages": "clean"},
    {"stages": {"clean": 1}},
]


@pytest.fixture()
def manifest_dir(tmp_path):
    write_jsonl(tmp_path / "in.jsonl", [doc_record("es-0", ES_SNIPPETS[0])])
    return tmp_path


@pytest.mark.parametrize("setting", ILL_TYPED, ids=json.dumps)
def test_ill_typed_manifest_exits_2_and_publishes_nothing(
    manifest_dir, capsys, caplog, setting
):
    record = {**_BASE, **setting}
    with pytest.raises(ManifestError):
        PipelineManifest.from_record(record, base=manifest_dir)
    path = manifest_dir / "run.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    with caplog.at_level(logging.ERROR, logger="lexprep"):
        code = main(["run", str(path)])
    assert code == 2
    assert capsys.readouterr().out == ""
    assert [r.getMessage() for r in caplog.records][-1].startswith("bad manifest: ")
    assert not (manifest_dir / "out").exists()


def test_ill_typed_manifest_exits_2_from_a_fresh_process(manifest_dir):
    path = manifest_dir / "run.json"
    path.write_text(json.dumps({**_BASE, "seed": 1.9}), encoding="utf-8")
    result = run_lexprep("run", path)
    assert result.returncode == 2
    assert b"bad manifest: seed must be int, got 1.9" in result.stderr
    assert b"Traceback" not in result.stderr


def _nested(depth):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "value", [_nested(900), "x" * 1_000_000], ids=["900-deep list", "1 MB string"]
)
def test_a_long_setting_is_shortened_in_its_message(manifest_dir, value):
    path = manifest_dir / "run.json"
    path.write_text(json.dumps({**_BASE, "seed": value}), encoding="utf-8")
    result = run_lexprep("run", path)
    assert result.returncode == 2
    line = result.stderr.decode()
    assert line.startswith("ERROR bad manifest: seed must be int, got ")
    assert line.count("\n") == 1 and len(line) < 120


def test_a_manifest_must_be_an_object():
    with pytest.raises(ManifestError, match="a manifest must be dict"):
        PipelineManifest.from_record([_BASE])


def test_well_typed_numbers_are_kept_as_given(manifest_dir):
    manifest = PipelineManifest.from_record(
        {
            **_BASE,
            "seed": 3,
            "filter-lang": {"threshold": 1},
            "chunk": {"max_tokens": 96},
            "mask": {"mask_rate": 1},
        }
    )
    assert (manifest.seed, manifest.threshold, manifest.max_tokens) == (3, 1, 96)
    assert manifest.masking.mask_rate == 1 and manifest.masking.seed == 3


class TestOwnersCheckTheirFields:
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_clean_switch_is_a_bool(self, value):
        with pytest.raises(TypeError, match="collapse_spaces must be bool"):
            CleanPolicy(collapse_spaces=value)

    @pytest.mark.parametrize("name", ["mask_rate", "mask_prob", "keep_prob"])
    def test_masking_rate_is_a_number_not_a_bool(self, name):
        with pytest.raises(TypeError, match=f"{name} must be int or float"):
            MaskingConfig(**{name: True})
        with pytest.raises(TypeError):
            MaskingConfig(**{name: "0.5"})

    def test_masking_seed_is_an_int(self):
        with pytest.raises(TypeError, match="seed must be int"):
            MaskingConfig(seed=True)

    @pytest.mark.parametrize("value", [True, False, "0.5", None])
    def test_threshold_is_a_number_not_a_bool(self, value):
        with pytest.raises(TypeError, match="threshold must be int or float"):
            check_threshold(value)

    @pytest.mark.parametrize(
        "settings",
        [
            {"seed": 1.9},
            {"seed": True},
            {"max_tokens": 96.7},
            {"language": None},
            {"clean_policy": None},
            {"masking": None},
        ],
    )
    def test_manifest_fields(self, tmp_path, settings):
        # Refused by the field's own name when the manifest is built.
        (name,) = settings
        with pytest.raises(TypeError, match=f"^{name} must be "):
            PipelineManifest(tmp_path / "in.jsonl", tmp_path, ("clean",), **settings)

    @pytest.mark.parametrize(
        "field, value", [("seq", True), ("seq", 1.0), ("token_count", False)]
    )
    def test_chunk_record_numbers_are_ints_not_bools(self, field, value):
        record = {"doc_id": "a", "seq": 0, "text": "de la ley", field: value}
        with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
            validate_chunk_record(record)


class TestBoolChunkFields:
    """`lexprep mask` skips a chunk record with a bool number, or exits 2."""

    def _chunks(self, tmp_path):
        good = {"doc_id": "a", "seq": 0, "text": "de la ley"}
        path = tmp_path / "chunks.jsonl"
        write_jsonl(
            path,
            [good, {**good, "seq": True}, {**good, "seq": 1, "token_count": False}],
        )
        return path

    def test_lenient_mask_skips_and_counts_them(self, tmp_path, capsys, caplog):
        out = tmp_path / "out.jsonl"
        assert main(["mask", str(self._chunks(tmp_path)), str(out)]) == 0
        tallies = json.loads(capsys.readouterr().out)
        assert tallies["examples"] == 1 and tallies["skipped"] == 2
        assert "skipped line 2: field 'seq' must be an integer" in caplog.text
        assert len(out.read_text("utf-8").splitlines()) == 1

    def test_strict_mask_exits_2(self, tmp_path, capsys, caplog):
        out = tmp_path / "out.jsonl"
        code = main(["--strict", "mask", str(self._chunks(tmp_path)), str(out)])
        assert code == 2
        assert "line 2: field 'seq' must be an integer" in caplog.text
        assert not out.exists()


class TestVocabularyFile:
    """A vocabulary's pieces are a list of non-empty strings."""

    BAD = [{"pieces": [1, 2]}, {"pieces": "abc"}, {"pieces": ["a", ""]}, ["a"]]

    @pytest.mark.parametrize("data", BAD, ids=json.dumps)
    def test_from_file_names_the_file(self, tmp_path, data):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        message = re.escape(f"{path}: 'pieces' must be a list")
        with pytest.raises(ValueError, match=message):
            VocabTokenizer.from_file(path)

    @pytest.mark.parametrize("command", ["stats", "chunk"])
    @pytest.mark.parametrize("data", BAD, ids=json.dumps)
    def test_stats_and_chunk_exit_2(self, tmp_path, capsys, caplog, command, data):
        docs = tmp_path / "in.jsonl"
        write_jsonl(docs, [doc_record("a", "de la ley")])
        vocab = tmp_path / "vocab.json"
        vocab.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        outputs = [str(out)] if command == "chunk" else []
        code = main([command, str(docs), *outputs, "--tokenizer", str(vocab)])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert f"{vocab}: 'pieces' must be a list of non-empty strings" in caplog.text
        assert not out.exists()
