"""End-to-end subcommand behavior and exit-code contract."""

import json
import logging
import math
import os
import random
from importlib import resources

import pytest

from lexprep import chunking, pipeline
from lexprep.chunking import chunk_from_record, validate_chunk_record
from lexprep.cli import main
from lexprep.corpus import document_to_line, read_documents
from lexprep.langid import load_profiles
from lexprep.pipeline import SUMMARY_NAME

from .conftest import doc_record, run_lexprep, run_python, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


# Deeper than `json.loads` decodes on any interpreter: it raises RecursionError.
_NESTED = "[" * 100_000


@pytest.fixture()
def corpus_path(tmp_path):
    records = [
        doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:5])
    ] + [doc_record(f"ca-{i}", text) for i, text in enumerate(CA_SNIPPETS[:5])]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, records)
    return path


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["chunk"],
            ["split-validation", "a", "b", "c"],
            ["lr-curve"],
            ["eval"],
            ["eval", "--curves", "x", "--predictions", "y"],
            ["eval", "--curves", "x", "--format", "xml"],
            # Every command is one in-process pass: no flag takes a worker count.
            ["--jobs", "2", "ingest", "a", "b"],
            ["--jobs", "1", "clean", "a", "b"],
            ["mask", "--jobs", "2", "a", "b"],
        ],
    )
    def test_exit_code_one(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        # The flag is named, not its value taken for the command.
        if "--jobs" in argv:
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "head, flag",
        [
            (["mask", "--keep-prob", "0.1"], "--keep-prob"),
            (["mask", "--keep-prob=0.1"], "--keep-prob=0.1"),
            (["stats", "--bogus"], "--bogus"),
        ],
        ids=["flag-and-value", "flag-equals-value", "lone-flag"],
    )
    def test_an_unknown_flag_after_the_command_is_named_alone(
        self, tmp_path, capsys, head, flag
    ):
        # argparse reads the flag's value as the input path and leaves a
        # path over; the error names the flag as given, and no path.
        paths = [str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")]
        argv = head + paths[: 1 if head[0] == "stats" else 2]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        assert captured.err.endswith(f"lexprep: error: unrecognized arguments: {flag}\n")
        assert str(tmp_path) not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_numbers_and_joined_values_still_parse(self, tmp_path, capsys, caplog):
        with caplog.at_level(logging.ERROR, logger="lexprep"):
            code = main(["filter-lang", "a.jsonl", "b.jsonl", "--threshold", "-0.5"])
        assert code == 2
        assert "threshold must lie in [0, 1], got -0.5" in caplog.text
        out = tmp_path / "lr.csv"
        assert main(["lr-curve", "--total-steps=10", f"--output={out}"]) == 0
        assert out.read_text("utf-8").startswith("step,lr\n")


class TestDataErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "stats", str(tmp_path / "absent.jsonl")
        )
        assert code == 2

    def test_bad_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        manifest.write_text("{not json", encoding="utf-8")
        code, _ = run_cli(capsys, "run", str(manifest))
        assert code == 2

    def test_manifest_that_is_not_utf8_is_named(self, tmp_path, capsys, caplog):
        manifest = tmp_path / "run.json"
        manifest.write_bytes(b'{"input_path": "\xff"}')
        code, _ = run_cli(capsys, "run", str(manifest))
        assert code == 2
        assert f"{manifest} is not valid JSON: 'utf-8' codec" in caplog.text

    def test_nested_manifest_is_named(self, tmp_path, capsys, caplog):
        manifest = tmp_path / "run.json"
        manifest.write_text(_NESTED, encoding="utf-8")
        code, out = run_cli(capsys, "run", str(manifest))
        assert code == 2
        assert out == ""
        assert f"{manifest} is not valid JSON: " in caplog.text

    @pytest.mark.parametrize("command", ["ingest", "filter-lang", "clean", "chunk"])
    def test_nested_line_is_a_malformed_line(self, tmp_path, capsys, caplog, command):
        path = tmp_path / "in.jsonl"
        good = json.dumps(doc_record("a", ES_SNIPPETS[0]))
        path.write_text(f"{good}\n{_NESTED}\n", encoding="utf-8")
        out_path = tmp_path / "out.jsonl"
        assert run_cli(capsys, command, str(path), str(out_path))[0] == 0
        assert "skipped line 2: " in caplog.text
        assert out_path.exists()
        out_path.unlink()
        caplog.clear()
        code, _ = run_cli(capsys, "--strict", command, str(path), str(out_path))
        assert code == 2
        assert "line 2: " in caplog.text
        assert "skipped" not in caplog.text
        assert not out_path.exists()

    def test_bad_curve_rows(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("model,epoch,f1\na,one,0.5\n", encoding="utf-8")
        code, _ = run_cli(capsys, "eval", "--curves", str(curves))
        assert code == 2

    def test_strict_ingest_aborts_on_malformed(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(
            json.dumps(doc_record("a", "hola")) + "\nnot json\n", encoding="utf-8"
        )
        code, _ = run_cli(
            capsys, "--strict", "ingest", str(path), str(tmp_path / "out.jsonl")
        )
        assert code == 2

    def test_strict_ingest_leaves_no_output_after_a_late_malformed_line(
        self, tmp_path, capsys
    ):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record(f"d-{i}", "hola") for i in range(1000)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        out_path = tmp_path / "out.jsonl"
        code, _ = run_cli(capsys, "--strict", "ingest", str(path), str(out_path))
        assert code == 2
        assert not out_path.exists()
        assert list(tmp_path.glob(".*.tmp")) == []


class TestEveryReaderWarns:
    """A lenient read logs each line it skips, once, whatever the command."""

    @pytest.fixture()
    def one_bad_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        lines = [json.dumps(doc_record(name, ES_SNIPPETS[0])) for name in "abc"]
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def _warnings(self, caplog, capsys, *argv):
        with caplog.at_level(logging.WARNING, logger="lexprep"):
            code, _ = run_cli(capsys, *map(str, argv))
        assert code == 0
        return [record.getMessage().split(":")[0] for record in caplog.records]

    def test_stats(self, one_bad_line, caplog, capsys):
        assert self._warnings(caplog, capsys, "stats", one_bad_line) == [
            "skipped line 2"
        ]

    def test_split_validation(self, one_bad_line, tmp_path, caplog, capsys):
        argv = ["split-validation", one_bad_line, tmp_path / "t", tmp_path / "v"]
        assert self._warnings(caplog, capsys, *argv, "--count", "1") == [
            "skipped line 2"
        ]

    def test_zero_stage_run(self, one_bad_line, tmp_path, caplog, capsys):
        manifest = tmp_path / "run.json"
        record = {"input_path": str(one_bad_line), "output_dir": "out", "stages": []}
        manifest.write_text(json.dumps(record), encoding="utf-8")
        assert self._warnings(caplog, capsys, "run", manifest) == ["skipped line 2"]


class TestIngest:
    def test_counts_and_output(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        path.write_text(
            json.dumps(doc_record("a", "hola")) + "\n"
            "not json\n"
            + json.dumps(doc_record("b", "adiós")) + "\n",
            encoding="utf-8",
        )
        out_path = tmp_path / "out.jsonl"
        code, out = run_cli(capsys, "ingest", str(path), str(out_path))
        assert code == 0
        assert last_json(out) == {"written": 2, "skipped": 1}
        docs = read_documents(out_path)
        assert [doc.id for doc in docs] == ["a", "b"]


class TestStats:
    def test_json_totals(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "hola"), doc_record("b", "señor")])
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        stats = last_json(out)
        assert stats["document_count"] == 2
        assert stats["total_bytes"] == len("hola".encode()) + len("señor".encode())
        assert stats["total_tokens"] is None

    def test_tokenizer_adds_token_totals(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "de la ley")])
        vocab_path = tmp_path / "vocab.json"
        from lexprep.tokenizers import VocabTokenizer

        VocabTokenizer().save(vocab_path)
        code, out = run_cli(capsys, "stats", str(path), "--tokenizer", str(vocab_path))
        assert code == 0
        assert last_json(out)["total_tokens"] == len(
            VocabTokenizer().tokenize("de la ley")
        )


class TestBuildProfiles:
    def test_profiles_written_and_loadable(self, tmp_path, capsys):
        seed_dir = tmp_path / "seed"
        seed_dir.mkdir()
        (seed_dir / "es.txt").write_text(" ".join(ES_SNIPPETS), encoding="utf-8")
        (seed_dir / "ca.txt").write_text(" ".join(CA_SNIPPETS), encoding="utf-8")
        out_path = tmp_path / "profiles.jsonl"
        code, out = run_cli(capsys, "build-profiles", str(seed_dir), str(out_path))
        assert code == 0
        assert last_json(out)["languages"] == ["ca", "es"]
        profiles = load_profiles(out_path)
        assert [p.language for p in profiles] == ["ca", "es"]


@pytest.fixture()
def built_profiles(tmp_path, capsys):
    """Profiles built by `build-profiles` from the bundled seed texts."""
    path = tmp_path / "cfg" / "profiles.jsonl"
    path.parent.mkdir()
    seed = resources.files("lexprep").joinpath("data/seed")
    with resources.as_file(seed) as seed_dir:
        assert run_cli(capsys, "build-profiles", str(seed_dir), str(path))[0] == 0
    return path


@pytest.fixture()
def loaded_profiles(monkeypatch):
    """The paths the stage pass loads profiles from."""
    paths = []

    def recording(path):
        paths.append(path)
        return load_profiles(path)

    monkeypatch.setattr(pipeline, "load_profiles", recording)
    return paths


_ONE_PROFILE = {"language": "es", "ngram_ranks": ["a", "b"]}
# A profile line without a language, one that is not JSON, and one whose
# grams are not a list.
_BAD_PROFILE_LINES = [
    '{"ngram_ranks": ["a"]}',
    'not json',
    '{"language": "xx", "ngram_ranks": "abc"}',
]


class TestFilterLang:
    def test_profiles_flag_loads_the_file(
        self, corpus_path, tmp_path, capsys, built_profiles, loaded_profiles
    ):
        outputs = []
        for flags in ([], ["--profiles", str(built_profiles)]):
            out = tmp_path / "kept.jsonl"
            argv = ["filter-lang", str(corpus_path), str(out), *flags]
            code, stdout = run_cli(capsys, *argv)
            assert code == 0
            rejected = tmp_path / "kept.jsonl.rejected.jsonl"
            outputs.append((stdout, out.read_bytes(), rejected.read_bytes()))
        assert loaded_profiles == [built_profiles]
        assert outputs[0] == outputs[1]

    def test_default_gate(self, corpus_path, tmp_path, capsys):
        out_path = tmp_path / "kept.jsonl"
        code, out = run_cli(capsys, "filter-lang", str(corpus_path), str(out_path))
        assert code == 0
        assert last_json(out) == {"in": 10, "kept": 5, "rejected": 5}
        kept = read_documents(out_path)
        assert all(doc.id.startswith("es-") for doc in kept)
        rejected_path = tmp_path / "kept.jsonl.rejected.jsonl"
        rejected = [
            json.loads(line)
            for line in rejected_path.read_text("utf-8").splitlines()
        ]
        assert len(rejected) == 5
        assert all(r["verdict_language"] == "ca" for r in rejected)

    def test_rejected_path_and_language_flags(self, corpus_path, tmp_path, capsys):
        out_path = tmp_path / "kept.jsonl"
        audit_path = tmp_path / "audit.jsonl"
        code, out = run_cli(
            capsys,
            "filter-lang",
            str(corpus_path),
            str(out_path),
            "--language",
            "ca",
            "--rejected",
            str(audit_path),
        )
        assert code == 0
        assert last_json(out)["kept"] == 5
        assert all(doc.id.startswith("ca-") for doc in read_documents(out_path))
        assert audit_path.exists()

    def test_threshold_one_rejects_all(self, corpus_path, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "filter-lang",
            str(corpus_path),
            str(tmp_path / "kept.jsonl"),
            "--threshold",
            "1.0",
        )
        assert code == 0
        assert last_json(out)["kept"] == 0

    @pytest.mark.parametrize("existing", [False, True])
    def test_output_given_as_rejected_path_is_refused(
        self, corpus_path, tmp_path, capsys, caplog, existing
    ):
        out_path = tmp_path / "kept.jsonl"
        if existing:
            out_path.write_text("earlier output\n", encoding="utf-8")
        same = tmp_path / "." / "kept.jsonl"
        argv = [str(corpus_path), str(out_path), "--rejected", str(same)]
        code, out = run_cli(capsys, "filter-lang", *argv)
        assert code == 2
        assert out == ""
        assert "kept.jsonl: the same output file is given twice" in caplog.text
        names = ["corpus.jsonl", "kept.jsonl"] if existing else ["corpus.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        if existing:
            assert out_path.read_text(encoding="utf-8") == "earlier output\n"

    @pytest.mark.parametrize("threshold", ["1.5", "-3", "nan"])
    def test_threshold_outside_unit_interval_is_a_data_error(
        self, corpus_path, tmp_path, capsys, caplog, threshold
    ):
        out_path = tmp_path / "kept.jsonl"
        code, out = run_cli(
            capsys,
            "filter-lang",
            str(corpus_path),
            str(out_path),
            "--threshold",
            threshold,
        )
        assert code == 2
        assert out == ""
        assert "threshold must lie in [0, 1]" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    @pytest.mark.parametrize("language", ["xx", "ES"])
    def test_language_without_a_profile_is_a_data_error(
        self, corpus_path, tmp_path, capsys, caplog, language
    ):
        argv = [str(corpus_path), str(tmp_path / "kept.jsonl"), "--language", language]
        code, out = run_cli(capsys, "filter-lang", *argv)
        assert code == 2
        assert out == ""
        assert f"no profile for language {language!r}" in caplog.text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_one_profile_is_a_data_error_on_empty_input(
        self, tmp_path, capsys, caplog
    ):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        write_jsonl(tmp_path / "one.jsonl", [_ONE_PROFILE])
        argv = [tmp_path / "empty.jsonl", tmp_path / "kept.jsonl"]
        argv += ["--profiles", tmp_path / "one.jsonl"]
        code, out = run_cli(capsys, "filter-lang", *map(str, argv))
        assert code == 2
        assert out == ""
        assert "two or more profiles, got 1" in caplog.text
        names = ["empty.jsonl", "one.jsonl"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    @pytest.mark.parametrize("languages", [["es", "es"], ["es", "es", "ca"]])
    def test_kept_language_listed_twice_is_a_data_error(
        self, corpus_path, tmp_path, capsys, caplog, languages
    ):
        # The gate would weigh Spanish against itself and keep nothing.
        profiles = tmp_path / "twice.jsonl"
        write_jsonl(profiles, [{**_ONE_PROFILE, "language": c} for c in languages])
        out_path = tmp_path / "kept.jsonl"
        argv = [corpus_path, out_path, "--profiles", profiles]
        code, out = run_cli(capsys, "filter-lang", *map(str, argv))
        assert code == 2
        assert out == ""
        assert "the profiles list language 'es' twice" in caplog.text
        assert not out_path.exists()

    @pytest.mark.parametrize("languages", [["ca", "ca", "es"], ["es", "ca", "ca"]])
    def test_other_language_listed_twice_is_a_data_error(
        self, corpus_path, tmp_path, capsys, caplog, languages
    ):
        # A document Catalan wins would be rejected with confidence 0.
        profiles = tmp_path / "twice.jsonl"
        write_jsonl(profiles, [{**_ONE_PROFILE, "language": c} for c in languages])
        out_path = tmp_path / "kept.jsonl"
        argv = [corpus_path, out_path, "--profiles", profiles]
        code, out = run_cli(capsys, "filter-lang", *map(str, argv))
        assert code == 2
        assert out == ""
        assert "the profiles list language 'ca' twice" in caplog.text
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "line", _BAD_PROFILE_LINES, ids=["no-language", "not-json", "ranks-not-a-list"]
    )
    def test_bad_profiles_line_is_reported_by_number(
        self, corpus_path, tmp_path, line
    ):
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text(f"{json.dumps(_ONE_PROFILE)}\n{line}\n", encoding="utf-8")
        out_path = tmp_path / "kept.jsonl"
        result = run_lexprep(
            "filter-lang", corpus_path, out_path, "--profiles", profiles
        )
        assert result.returncode == 2
        assert b"line 2: " in result.stderr
        assert not out_path.exists()

    def test_bad_profiles_line_names_the_file(
        self, corpus_path, tmp_path, capsys, caplog
    ):
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text("[1]\n", encoding="utf-8")
        out_path = tmp_path / "kept.jsonl"
        argv = [str(corpus_path), str(out_path), "--profiles", str(profiles)]
        code, _ = run_cli(capsys, "filter-lang", *argv)
        assert code == 2
        assert f"{profiles}: line 1: record must be a JSON object" in caplog.text

    def test_empty_profiles_file_is_a_data_error(
        self, corpus_path, tmp_path, capsys, caplog
    ):
        profiles = tmp_path / "profiles.jsonl"
        profiles.write_text("", encoding="utf-8")
        out_path = tmp_path / "kept.jsonl"
        argv = [str(corpus_path), str(out_path), "--profiles", str(profiles)]
        code, _ = run_cli(capsys, "filter-lang", *argv)
        assert code == 2
        assert f"no profiles found in {profiles}" in caplog.text
        assert not out_path.exists()


class TestClean:
    def test_default_policy(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "a  b\t c")])
        out_path = tmp_path / "out.jsonl"
        code, out = run_cli(capsys, "clean", str(path), str(out_path))
        assert code == 0
        assert last_json(out) == {"documents": 1}
        (doc,) = read_documents(out_path)
        assert doc.text == "a b c"

    def test_output_written_through_to_a_device(self, tmp_path, capsys):
        # The rejection path is os.devnull too, so the device is given twice.
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "a  b")])
        code, out = run_cli(capsys, "clean", str(path), os.devnull)
        assert code == 0
        assert last_json(out) == {"documents": 1}

    def test_keep_space_runs(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "a  b")])
        out_path = tmp_path / "out.jsonl"
        code, _ = run_cli(
            capsys, "clean", str(path), str(out_path), "--keep-space-runs"
        )
        assert code == 0
        (doc,) = read_documents(out_path)
        assert doc.text == "a  b"


class TestChunk:
    def test_records_parse_and_respect_budget(self, tmp_path, capsys, tokenizer):
        path = tmp_path / "in.jsonl"
        write_jsonl(
            path,
            [doc_record(f"d{i}", text) for i, text in enumerate(ES_SNIPPETS[:3])],
        )
        out_path = tmp_path / "chunks.jsonl"
        code, out = run_cli(
            capsys, "chunk", str(path), str(out_path), "--max-tokens", "32"
        )
        assert code == 0
        tallies = last_json(out)
        assert tallies["documents"] == 3
        chunks = [
            chunk_from_record(json.loads(line), tokenizer)
            for line in out_path.read_text("utf-8").splitlines()
        ]
        assert len(chunks) == tallies["chunks"]
        assert all(chunk.token_count <= 32 for chunk in chunks)
        assert tallies["tokens_total"] == sum(c.token_count for c in chunks)

    def test_tokenizer_that_is_not_json_is_named(self, tmp_path, capsys, caplog):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "la ley")])
        vocab = tmp_path / "bad.json"
        vocab.write_text('{"pieces": [', encoding="utf-8")
        argv = [str(path), str(tmp_path / "out.jsonl"), "--tokenizer", str(vocab)]
        code, out = run_cli(capsys, "chunk", *argv)
        assert code == 2
        assert out == ""
        assert f"{vocab} is not valid JSON" in caplog.text

    def test_tokenizer_that_is_not_utf8_is_named(self, tmp_path, capsys, caplog):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "la ley")])
        vocab = tmp_path / "latin1.json"
        vocab.write_bytes('{"pieces": ["año"]}'.encode("latin-1"))
        argv = [str(path), str(tmp_path / "out.jsonl"), "--tokenizer", str(vocab)]
        code, out = run_cli(capsys, "chunk", *argv)
        assert code == 2
        assert out == ""
        assert f"{vocab} is not valid JSON: 'utf-8' codec" in caplog.text

    def test_nested_tokenizer_is_named(self, tmp_path, capsys, caplog):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "la ley")])
        vocab = tmp_path / "nested.json"
        vocab.write_text(_NESTED, encoding="utf-8")
        argv = [str(path), str(tmp_path / "out.jsonl"), "--tokenizer", str(vocab)]
        code, out = run_cli(capsys, "chunk", *argv)
        assert code == 2
        assert out == ""
        assert f"{vocab} is not valid JSON: " in caplog.text

    @pytest.mark.parametrize("max_tokens", ["0", "-3"])
    def test_budget_without_room_is_a_data_error_on_empty_input(
        self, tmp_path, capsys, caplog, max_tokens
    ):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        argv = [tmp_path / "empty.jsonl", tmp_path / "chunks.jsonl"]
        argv += ["--max-tokens", max_tokens]
        code, out = run_cli(capsys, "chunk", *map(str, argv))
        assert code == 2
        assert out == ""
        assert f"max_tokens={max_tokens} leaves no room" in caplog.text
        assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]


class TestMask:
    def _chunks_file(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        write_jsonl(
            docs,
            [doc_record(f"d{i}", text) for i, text in enumerate(ES_SNIPPETS[:5])],
        )
        chunks = tmp_path / "chunks.jsonl"
        code, _ = run_cli(capsys, "chunk", str(docs), str(chunks))
        assert code == 0
        return chunks

    def test_examples_align_with_chunks(self, tmp_path, capsys):
        chunks = self._chunks_file(tmp_path, capsys)
        out_path = tmp_path / "examples.jsonl"
        code, out = run_cli(capsys, "mask", str(chunks), str(out_path))
        assert code == 0
        tallies = last_json(out)
        examples = [
            json.loads(line) for line in out_path.read_text("utf-8").splitlines()
        ]
        assert len(examples) == tallies["examples"]
        assert tallies["masked_positions"] > 0
        for example in examples:
            assert len(example["input_ids"]) == len(example["labels"])

    def test_each_record_is_validated_once(self, tmp_path, capsys, monkeypatch):
        chunks = self._chunks_file(tmp_path, capsys)
        with open(chunks, "a", encoding="utf-8") as handle:
            handle.write('{"doc_id": "x", "seq": "0", "text": "Hola."}\n')
        records = len(chunks.read_text("utf-8").splitlines())
        checked = []

        def counting(record):
            checked.append(record)
            return validate_chunk_record(record)

        monkeypatch.setattr(pipeline, "validate_chunk_record", counting)
        monkeypatch.setattr(chunking, "validate_chunk_record", counting)
        out_path = tmp_path / "examples.jsonl"
        code, out = run_cli(capsys, "mask", str(chunks), str(out_path))
        assert code == 0
        tallies = last_json(out)
        assert (tallies["examples"], tallies["skipped"]) == (records - 1, 1)
        assert len(checked) == records

    def test_seed_changes_output(self, tmp_path, capsys):
        chunks = self._chunks_file(tmp_path, capsys)
        base = tmp_path / "seed0.jsonl"
        other = tmp_path / "seed1.jsonl"
        assert run_cli(capsys, "mask", str(chunks), str(base))[0] == 0
        assert run_cli(capsys, "--seed", "1", "mask", str(chunks), str(other))[0] == 0
        assert base.read_bytes() != other.read_bytes()


class TestSplitValidation:
    def test_partition(self, corpus_path, tmp_path, capsys):
        train_path = tmp_path / "train.jsonl"
        valid_path = tmp_path / "valid.jsonl"
        code, out = run_cli(
            capsys,
            "split-validation",
            str(corpus_path),
            str(train_path),
            str(valid_path),
            "--count",
            "3",
        )
        assert code == 0
        assert last_json(out) == {"train": 7, "validation": 3}
        train_ids = {doc.id for doc in read_documents(train_path)}
        valid_ids = {doc.id for doc in read_documents(valid_path)}
        assert not train_ids & valid_ids
        assert len(train_ids | valid_ids) == 10


    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_matches_single_pass_selection(self, tmp_path, capsys, seed):
        lines = [
            json.dumps(doc_record(f"d-{i}", f"Texto número {i}."), ensure_ascii=False)
            for i in range(40)
        ]
        lines.insert(17, '{"id": "broken", "text": "sin cierre')
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        train_path, valid_path = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
        code, out = run_cli(
            capsys,
            "--seed",
            str(seed),
            "split-validation",
            str(path),
            str(train_path),
            str(valid_path),
            "--count",
            "6",
        )
        assert code == 0
        train, validation = _reference_split(read_documents(path), 6, seed)
        assert last_json(out) == {"train": 34, "validation": 6}
        for written, docs in ((train_path, train), (valid_path, validation)):
            expected = "".join(document_to_line(doc) + "\n" for doc in docs)
            assert written.read_text(encoding="utf-8") == expected

    def test_too_few_documents_is_a_data_error(self, corpus_path, tmp_path, capsys):
        code, _ = run_cli(
            capsys,
            "split-validation",
            str(corpus_path),
            str(tmp_path / "train.jsonl"),
            str(tmp_path / "valid.jsonl"),
            "--count",
            "11",
        )
        assert code == 2
        assert not (tmp_path / "train.jsonl").exists()

    def test_negative_count_names_the_count(self, corpus_path, tmp_path):
        train, valid = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
        result = run_lexprep("split-validation", corpus_path, train, valid, "--count", "-1")
        assert result.returncode == 2
        assert result.stderr == (
            b"ERROR the validation count must be non-negative, got -1\n"
        )
        assert not train.exists() and not valid.exists()

    def test_piped_input_is_refused_before_any_output(self, corpus_path, tmp_path):
        # The command reads its input twice; a pipe would be empty the
        # second time, so both outputs would be written short.
        train, valid = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
        argv = ["split-validation", "/dev/stdin", train, valid, "--count", "3"]
        result = run_lexprep(*argv, stdin=corpus_path.read_bytes())
        assert result.returncode == 2
        assert b"not a regular file" in result.stderr
        assert result.stdout == b""
        assert not train.exists() and not valid.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is missing")
    def test_a_fifo_is_refused_without_opening_it(self, tmp_path, capsys, caplog):
        # Opening a FIFO with no writer would block; the check only stats it.
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)
        train, valid = tmp_path / "train.jsonl", tmp_path / "valid.jsonl"
        argv = ["split-validation", str(fifo), str(train), str(valid), "--count", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{fifo} is not a regular file; it is read twice" in caplog.text
        assert not train.exists() and not valid.exists()


def _reference_split(docs, n, seed):
    """The single-pass split that held every document: Algorithm R inline."""
    rng = random.Random(seed)
    reservoir, everything = [], []
    for i, doc in enumerate(docs):
        everything.append(doc)
        if i < n:
            reservoir.append(i)
        else:
            j = rng.randint(0, i)
            if j < n:
                reservoir[j] = i
    chosen = set(reservoir)
    train = [doc for i, doc in enumerate(everything) if i not in chosen]
    validation = [doc for i, doc in enumerate(everything) if i in chosen]
    return train, validation


class TestLrCurve:
    def test_stdout_csv(self, capsys):
        code, out = run_cli(
            capsys, "lr-curve", "--total-steps", "100", "--resolution", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,lr"
        assert lines[1] == "0,0"
        assert lines[3] == "100,0"
        step, lr = lines[2].split(",")
        assert float(step) == 50.0
        expected = 1e-4 * 0.5 * (1 + math.cos(math.pi * (50 - 8) / (100 - 8)))
        assert float(lr) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("peak", ["nan", "inf"])
    def test_non_finite_peak_is_refused(self, capsys, peak):
        code, out = run_cli(
            capsys, "lr-curve", "--total-steps", "4", "--resolution", "3",
            "--peak-lr", peak,
        )
        assert (code, out) == (2, "")

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "lr-curve", "--total-steps", "50", "--resolution", "11"
        )
        assert code == 0
        path = tmp_path / "curve.csv"
        code, silent = run_cli(
            capsys,
            "lr-curve",
            "--total-steps",
            "50",
            "--resolution",
            "11",
            "--output",
            str(path),
        )
        assert code == 0
        assert silent == ""
        assert path.read_text("utf-8") == out


class TestDefaultsStatedOnce:
    """A setting flag left out takes the default of the type that owns it."""

    # Every setting flag of each command, given at its documented default.
    EXPLICIT = {
        "filter-lang": ["--language", "es", "--threshold", "0.95"],
        "chunk": ["--max-tokens", "512"],
        "mask": [
            *("--mask-rate", "0.15", "--mask-prob", "0.8"),
            *("--random-prob", "0.1"),
        ],
        "lr-curve": [
            *("--resolution", "101", "--peak-lr", "1e-4", "--warmup-frac", "0.08"),
        ],
    }

    @pytest.fixture()
    def inputs(self, tmp_path, capsys):
        docs = tmp_path / "docs.jsonl"
        records = [doc_record(f"es-{i}", t) for i, t in enumerate(ES_SNIPPETS[:5])]
        records += [doc_record(f"ca-{i}", t) for i, t in enumerate(CA_SNIPPETS[:3])]
        # Spanish wins this one with a confidence below the default threshold.
        records.append(doc_record("mixed", ES_SNIPPETS[0] + " " + CA_SNIPPETS[0]))
        write_jsonl(docs, records)
        chunks = tmp_path / "chunks.jsonl"
        assert run_cli(capsys, "chunk", str(docs), str(chunks))[0] == 0
        return {"filter-lang": docs, "chunk": docs, "mask": chunks}

    @staticmethod
    def _run(capsys, tmp_path, inputs, command, flags):
        """Exit code, stdout and the bytes of every file the command wrote."""
        out = tmp_path / "run" / "out"
        out.parent.mkdir(exist_ok=True)
        if command == "lr-curve":
            argv = [command, "--total-steps", "100", "--output", str(out)]
        else:
            argv = [command, str(inputs[command]), str(out)]
        code, stdout = run_cli(capsys, *argv, *flags)
        files = {p.name: p.read_bytes() for p in out.parent.iterdir()}
        for path in out.parent.iterdir():
            path.unlink()
        return code, stdout, files

    @pytest.mark.parametrize("command", sorted(EXPLICIT))
    def test_no_setting_flag_writes_what_the_defaults_write(
        self, capsys, tmp_path, inputs, command
    ):
        bare = self._run(capsys, tmp_path, inputs, command, [])
        assert bare[0] == 0 and bare[2]
        explicit = self._run(capsys, tmp_path, inputs, command, self.EXPLICIT[command])
        assert bare == explicit

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("filter-lang", ["--threshold", "0"]),
            ("mask", ["--random-prob", "0"]),
            ("lr-curve", ["--warmup-frac", "0"]),
        ],
    )
    def test_a_zero_is_applied(self, capsys, tmp_path, inputs, command, flags):
        bare = self._run(capsys, tmp_path, inputs, command, [])
        zero = self._run(capsys, tmp_path, inputs, command, flags)
        assert zero[0] == 0
        assert zero != bare
        if command == "filter-lang":
            assert (last_json(bare[1])["kept"], last_json(zero[1])["kept"]) == (5, 6)

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("chunk", ["--max-tokens", "0"]),
            ("mask", ["--mask-rate", "0"]),
            ("lr-curve", ["--resolution", "0"]),
            ("lr-curve", ["--peak-lr", "0"]),
        ],
    )
    def test_an_invalid_zero_is_refused(
        self, capsys, tmp_path, inputs, command, flags
    ):
        assert self._run(capsys, tmp_path, inputs, command, flags) == (2, "", {})


class TestEval:
    def _curves_file(self, tmp_path):
        path = tmp_path / "curves.csv"
        path.write_text(
            "model,epoch,f1\n"
            "model-a,0,0.6\n"
            "model-a,10,0.9\n"
            "model-b,0,0.5\n"
            "model-b,10,0.7\n",
            encoding="utf-8",
        )
        return path

    def test_table_output(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "eval", "--curves", str(self._curves_file(tmp_path))
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dataset: benchmark"
        assert "0.9000*" in out

    def test_csv_output_with_sort(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--curves",
            str(self._curves_file(tmp_path)),
            "--dataset",
            "demo",
            "--format",
            "csv",
            "--sort-by",
            "max_f1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("dataset,model,")
        assert lines[1].split(",")[:2] == ["demo", "model-a"]

    def test_predictions_micro(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        records = [
            {"example_id": "1", "gold": ["a"], "predicted": ["a"]},
            {"example_id": "2", "gold": ["a", "b"], "predicted": ["a"]},
            {"example_id": "3", "gold": ["b"], "predicted": ["a", "b"]},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        code, out = run_cli(capsys, "eval", "--predictions", str(path))
        assert code == 0
        assert last_json(out) == {"f1": 0.75, "averaging": "micro", "examples": 3}

    def test_predictions_macro_with_labels(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"example_id": "1", "gold": ["a"], "predicted": ["a"]}) + "\n",
            encoding="utf-8",
        )
        code, out = run_cli(
            capsys,
            "eval",
            "--predictions",
            str(path),
            "--averaging",
            "macro",
            "--labels",
            "a,b",
        )
        assert code == 0
        assert last_json(out)["f1"] == 0.5

    @pytest.mark.parametrize("epoch", ["nan", "inf"])
    def test_non_finite_epoch_is_data_error(self, tmp_path, capsys, epoch):
        path = tmp_path / "curves.csv"
        path.write_text(f"model,epoch,f1\na,0,0.5\na,{epoch},0.5\n", "utf-8")
        code, out = run_cli(capsys, "eval", "--curves", str(path))
        assert (code, out) == (2, "")

    def test_example_id_of_another_type_is_data_error(self, tmp_path, capsys, caplog):
        path = tmp_path / "preds.jsonl"
        records = [
            {"example_id": "1", "gold": ["a"], "predicted": ["a"]},
            {"example_id": None, "gold": ["a"], "predicted": ["a"]},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        code, out = run_cli(capsys, "eval", "--predictions", str(path))
        assert (code, out) == (2, "")
        message = "line 2: field 'example_id' must be a string or an integer"
        assert message in caplog.text

    def test_unknown_label_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"example_id": "1", "gold": ["z"], "predicted": ["z"]}) + "\n",
            encoding="utf-8",
        )
        code, _ = run_cli(
            capsys, "eval", "--predictions", str(path), "--labels", "a,b"
        )
        assert code == 2


class TestEvalModeFlags:
    """Each `eval` flag belongs to one mode; the other mode refuses it."""

    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("predictions", ["--dataset", "x"]),
            ("predictions", ["--sort-by", "auc"]),
            ("predictions", ["--format", "csv"]),
            ("predictions", ["--format", "table"]),  # refused at its default too
            ("curves", ["--averaging", "macro"]),
            ("curves", ["--labels", "a"]),
        ],
    )
    def test_the_other_modes_flag_is_a_usage_error(self, tmp_path, capsys, mode, flags):
        source = tmp_path / "source"
        source.write_text("", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", f"--{mode}", str(source), *flags])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        assert f"{flags[0]} does not apply to eval --{mode}" in captured.err


class TestLabelNames:
    def _predictions(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"example_id": "1", "gold": ["a"], "predicted": ["a"]}) + "\n",
            encoding="utf-8",
        )
        return path

    @pytest.mark.parametrize("labels", ["a,", "a,,b", ",a", ""])
    def test_an_empty_name_is_a_usage_error(self, tmp_path, capsys, labels):
        argv = ["eval", "--predictions", str(self._predictions(tmp_path))]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--averaging", "macro", "--labels", labels])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        assert "argument --labels: empty label name" in captured.err

    @pytest.mark.parametrize("labels, f1", [("a", 1.0), ("a,b", 0.5), ("b,a,b", 0.5)])
    def test_named_labels_score_as_before(self, tmp_path, capsys, labels, f1):
        argv = ["eval", "--predictions", str(self._predictions(tmp_path))]
        code, out = run_cli(capsys, *argv, "--averaging", "macro", "--labels", labels)
        assert code == 0
        assert out == json.dumps({"f1": f1, "averaging": "macro", "examples": 1}) + "\n"


class TestRun:
    def test_zero_stage_manifest(self, corpus_path, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "input_path": str(corpus_path),
                    "output_dir": str(tmp_path / "out"),
                    "stages": [],
                }
            ),
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "run", str(manifest_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["final_output"] == "00-input.jsonl"
        assert summary["documents_in"] == 10
        assert (tmp_path / "out" / "00-input.jsonl").read_bytes() == (
            corpus_path.read_bytes()
        )

    def test_manifest_profiles_resolve_against_its_directory(
        self, corpus_path, tmp_path, capsys, built_profiles, loaded_profiles
    ):
        files = []
        for settings in ({}, {"profiles": "profiles.jsonl"}):
            record = {
                "input_path": str(corpus_path),
                "output_dir": str(tmp_path / "out"),
                "stages": ["filter-lang"],
                "filter-lang": settings,
            }
            manifest = built_profiles.parent / "run.json"
            manifest.write_text(json.dumps(record), encoding="utf-8")
            assert run_cli(capsys, "run", str(manifest))[0] == 0
            files.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
        assert loaded_profiles == [built_profiles]
        assert files[0] == files[1]

    @pytest.mark.parametrize(
        "settings", [{"language": "xx"}, {"profiles": "one.jsonl"}]
    )
    def test_gate_set_up_error_publishes_nothing_on_empty_input(
        self, tmp_path, capsys, settings
    ):
        (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
        write_jsonl(tmp_path / "one.jsonl", [_ONE_PROFILE])
        record = {
            "input_path": "empty.jsonl",
            "output_dir": "out",
            "stages": ["filter-lang", "clean"],
            "filter-lang": settings,
        }
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(record), encoding="utf-8")
        code, out = run_cli(capsys, "run", str(manifest))
        assert code == 2
        assert out == ""
        out_dir = tmp_path / "out"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_budget_without_room_fails_though_no_document_is_chunked(
        self, corpus_path, tmp_path, capsys, caplog
    ):
        # The gate rejects every document, so none reaches the chunk stage.
        record = {
            "input_path": str(corpus_path),
            "output_dir": "out",
            "stages": ["filter-lang", "chunk"],
            "filter-lang": {"threshold": 1},
            "chunk": {"max_tokens": -3},
        }
        manifest = tmp_path / "run.json"
        manifest.write_text(json.dumps(record), encoding="utf-8")
        code, out = run_cli(capsys, "run", str(manifest))
        assert code == 2
        assert out == ""
        assert "max_tokens=-3 leaves no room" in caplog.text
        out_dir = tmp_path / "out"
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_full_manifest(self, corpus_path, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "input_path": "corpus.jsonl",
                    "output_dir": "out",
                    "stages": ["filter-lang", "clean", "chunk", "mask"],
                }
            ),
            encoding="utf-8",
        )
        code, out = run_cli(capsys, "run", str(manifest_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["final_output"] == "04-mask.jsonl"
        gate = summary["stages"][0]
        assert gate["in"] == gate["out"] + gate["rejected"] == 10

    def _nested_run(self, corpus_path, tmp_path, capsys, *flags):
        lines = corpus_path.read_text("utf-8").splitlines()
        nested = tmp_path / "nested.jsonl"
        nested.write_text("\n".join([lines[0], _NESTED, *lines[1:]]) + "\n", "utf-8")
        runs = {}
        for name, source in (("plain", corpus_path), ("nested", nested)):
            record = {
                "input_path": str(source),
                "output_dir": name,
                "stages": list(pipeline.STAGE_NAMES),
            }
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps(record), encoding="utf-8")
            runs[name] = run_cli(capsys, *flags, "run", str(manifest))
        return runs

    def test_nested_line_is_skipped_by_a_lenient_run(
        self, corpus_path, tmp_path, capsys, caplog
    ):
        runs = self._nested_run(corpus_path, tmp_path, capsys)
        assert [code for code, _ in runs.values()] == [0, 0]
        summary = json.loads(runs["nested"][1])
        assert summary["stages"][0]["malformed"] == 1
        assert "skipped line 2: " in caplog.text

        def stage_files(name):
            files = (tmp_path / name).iterdir()
            return {p.name: p.read_bytes() for p in files if p.name != SUMMARY_NAME}

        assert len(stage_files("nested")) == 8
        assert stage_files("nested") == stage_files("plain")

    def test_nested_line_stops_a_strict_run(
        self, corpus_path, tmp_path, capsys, caplog
    ):
        runs = self._nested_run(corpus_path, tmp_path, capsys, "--strict")
        assert runs["nested"] == (2, "")
        assert "line 2: " in caplog.text
        assert list((tmp_path / "nested").iterdir()) == []


class TestSeedIsNotARunFlag:
    """A run's seed is the manifest's "seed"; `--seed` serves `mask` and `split-validation`."""

    def _manifest(self, tmp_path, corpus_path, **extra):
        record = {
            "input_path": str(corpus_path),
            "output_dir": str(tmp_path / "out"),
            "stages": list(pipeline.STAGE_NAMES),
            **extra,
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "flags", [["--seed", "3"], ["--seed=0"], ["--strict", "--seed", "3"]]
    )
    def test_seed_before_run_is_a_usage_error(self, corpus_path, tmp_path, capsys, flags):
        manifest = self._manifest(tmp_path, corpus_path)
        with pytest.raises(SystemExit) as excinfo:
            main([*flags, "run", str(manifest)])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        message = "--seed does not apply to run: a run's seed is the manifest's \"seed\""
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    def test_run_masks_with_the_manifest_seed(self, corpus_path, tmp_path, capsys):
        manifest = self._manifest(tmp_path, corpus_path, seed=3)
        code, out = run_cli(capsys, "run", str(manifest))
        assert code == 0
        assert json.loads(out)["final_output"] == "04-mask.jsonl"
        # The mask command given the same seed writes the same examples.
        out_dir = tmp_path / "out"
        again = tmp_path / "again.jsonl"
        argv = ["--seed", "3", "mask", str(out_dir / "03-chunk.jsonl"), str(again)]
        assert run_cli(capsys, *argv)[0] == 0
        assert again.read_bytes() == (out_dir / "04-mask.jsonl").read_bytes()


class TestSeedOnlyWhereDrawn:
    """`--seed` seeds `mask` and `split-validation`; other commands refuse it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "{corpus}"],
            ["lr-curve", "--total-steps", "10"],
            ["clean", "{corpus}", "{out}"],
            ["ingest", "{corpus}", "{out}"],
            ["filter-lang", "{corpus}", "{out}"],
            ["chunk", "{corpus}", "{out}"],
            ["build-profiles", "{tmp}", "{out}"],
            ["eval", "--curves", "{corpus}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_seed_before_a_command_that_draws_nothing(
        self, corpus_path, tmp_path, capsys, argv
    ):
        out = tmp_path / "out.jsonl"
        paths = {"corpus": corpus_path, "out": out, "tmp": tmp_path}
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(["--seed", "5", *argv])
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        message = f"--seed does not apply to {argv[0]}: only mask and split-validation"
        assert message in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def test_seed_with_no_command_is_a_missing_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--seed", "3"])
        assert excinfo.value.code == 1
        assert "the following arguments are required: command" in capsys.readouterr().err


# A lone surrogate escape: valid JSON, but the text cannot be written as UTF-8.
_SURROGATE_LINE = '{"id": "a", "text": "\\ud800"}\n'


class TestUnencodableText:
    def _input(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(
            _SURROGATE_LINE + json.dumps(doc_record("b", ES_SNIPPETS[0])) + "\n",
            encoding="utf-8",
        )
        return path

    def test_lenient_ingest_skips_the_record(self, tmp_path, capsys):
        out_path = tmp_path / "out.jsonl"
        code, out = run_cli(capsys, "ingest", str(self._input(tmp_path)), str(out_path))
        assert code == 0
        assert last_json(out) == {"written": 1, "skipped": 1}
        assert [doc.id for doc in read_documents(out_path)] == ["b"]

    def test_strict_ingest_aborts(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys,
            "--strict",
            "ingest",
            str(self._input(tmp_path)),
            str(tmp_path / "out.jsonl"),
        )
        assert code == 2

    @pytest.mark.parametrize("strict", [False, True])
    def test_run_counts_the_record_or_aborts(self, tmp_path, capsys, strict):
        self._input(tmp_path)
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "input_path": "in.jsonl",
                    "output_dir": "out",
                    "stages": ["filter-lang", "clean", "chunk", "mask"],
                }
            ),
            encoding="utf-8",
        )
        argv = ["--strict"] if strict else []
        code, out = run_cli(capsys, *argv, "run", str(manifest_path))
        if strict:
            assert code == 2
            return
        assert code == 0
        summary = json.loads(out)
        assert summary["documents_in"] == 1
        assert summary["stages"][0]["malformed"] == 1
        assert summary["stages"][0]["in"] == 1
        assert summary["stages"][-1]["out"] >= 1


class TestMaskLenient:
    _BAD_LINES = [
        "not json",
        "[1, 2]",
        json.dumps({"doc_id": "x", "seq": 0}),
        json.dumps({"doc_id": "x", "seq": "0", "text": "de la ley"}),
        json.dumps({"doc_id": "x", "seq": 0, "text": "ley", "token_count": "1"}),
    ]

    def _chunks(self, tmp_path, capsys):
        chunks = TestMask()._chunks_file(tmp_path, capsys)
        good = chunks.read_text("utf-8").splitlines()
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            "\n".join([good[0], *self._BAD_LINES, *good[1:]]) + "\n", encoding="utf-8"
        )
        return chunks, mixed

    def test_bad_lines_are_skipped_and_counted(self, tmp_path, capsys):
        chunks, mixed = self._chunks(tmp_path, capsys)
        clean_out = tmp_path / "clean.jsonl"
        mixed_out = tmp_path / "mixed-out.jsonl"
        assert run_cli(capsys, "mask", str(chunks), str(clean_out))[0] == 0
        code, out = run_cli(capsys, "mask", str(mixed), str(mixed_out))
        assert code == 0
        tallies = last_json(out)
        assert tallies["skipped"] == len(self._BAD_LINES)
        assert tallies["examples"] == len(chunks.read_text("utf-8").splitlines())
        assert mixed_out.read_bytes() == clean_out.read_bytes()

    def test_strict_aborts(self, tmp_path, capsys):
        _, mixed = self._chunks(tmp_path, capsys)
        code, _ = run_cli(
            capsys, "--strict", "mask", str(mixed), str(tmp_path / "out.jsonl")
        )
        assert code == 2

    # Records of the right field types that `mask` still cannot take.
    _UNMASKABLE_LINES = [
        '{"doc_id": "b\\ud800", "seq": 0, "text": "Hola mundo."}',
        json.dumps({"doc_id": "e", "seq": 0, "text": ""}),
        json.dumps({"doc_id": "w", "seq": 0, "text": " \t "}),
    ]

    def _with_line(self, tmp_path, capsys, line):
        chunks = TestMask()._chunks_file(tmp_path, capsys)
        good = chunks.read_text("utf-8").splitlines()
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([good[0], line, *good[1:]]) + "\n", encoding="utf-8")
        return chunks, mixed

    @pytest.mark.parametrize("line", _UNMASKABLE_LINES)
    def test_unmaskable_record_is_a_skipped_line(self, tmp_path, capsys, caplog, line):
        chunks, mixed = self._with_line(tmp_path, capsys, line)
        clean_out = tmp_path / "clean.jsonl"
        mixed_out = tmp_path / "mixed-out.jsonl"
        assert run_cli(capsys, "mask", str(chunks), str(clean_out))[0] == 0
        code, out = run_cli(capsys, "mask", str(mixed), str(mixed_out))
        assert code == 0
        assert last_json(out)["skipped"] == 1
        assert "skipped line 2: field " in caplog.text
        assert mixed_out.read_bytes() == clean_out.read_bytes()

    @pytest.mark.parametrize("line", _UNMASKABLE_LINES)
    def test_unmaskable_record_stops_a_strict_mask(
        self, tmp_path, capsys, caplog, line
    ):
        _, mixed = self._with_line(tmp_path, capsys, line)
        out_path = tmp_path / "out.jsonl"
        code, _ = run_cli(capsys, "--strict", "mask", str(mixed), str(out_path))
        assert code == 2
        assert "line 2: field " in caplog.text
        assert not out_path.exists()
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_token_count_mismatch_still_fails(self, tmp_path, capsys):
        chunks, _ = self._chunks(tmp_path, capsys)
        record = json.loads(chunks.read_text("utf-8").splitlines()[0])
        record["token_count"] += 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code, _ = run_cli(capsys, "mask", str(bad), str(tmp_path / "out.jsonl"))
        assert code == 2


def test_importing_the_cli_loads_no_process_pool():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lexprep

    code = (
        "import sys, lexprep.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} "
        "& set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lexprep.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_a_run_loads_no_openssl_and_no_scoring_modules(tmp_path):
    # A fresh process, as `lexprep run` is: the test process has them all.
    write_jsonl(
        tmp_path / "in.jsonl",
        [doc_record(f"d{i}", text) for i, text in enumerate(ES_SNIPPETS[:3])],
    )
    manifest = {
        "input_path": "in.jsonl",
        "output_dir": "out",
        "stages": ["filter-lang", "clean", "chunk", "mask"],
    }
    (tmp_path / "run.json").write_text(json.dumps(manifest), encoding="utf-8")
    unwanted = ["_hashlib", "csv", "hashlib", "lexprep.metrics", "lexprep.schedule"]
    code = (
        "import sys; from lexprep.cli import main; "
        f"code = main(['run', {str(tmp_path / 'run.json')!r}]); "
        f"print(code, sorted(set({unwanted!r}) & set(sys.modules)), file=sys.stderr)"
    )
    result = run_python("-c", code)
    assert result.stderr.decode().splitlines()[-1] == "0 []"
    examples = (tmp_path / "out" / "04-mask.jsonl").read_text("utf-8").splitlines()
    assert examples, "no chunk was masked, so no seed was hashed"


class TestStageCommandsShareTheRunPass:
    """filter-lang, clean, chunk and mask are one-stage runs of `lexprep run`."""

    _DOC_COMMANDS = ["filter-lang", "clean", "chunk"]

    @pytest.mark.parametrize("command", _DOC_COMMANDS)
    def test_lenient_run_warns_once_per_skipped_line(
        self, tmp_path, capsys, caplog, command
    ):
        path = tmp_path / "in.jsonl"
        lines = [json.dumps(doc_record("a", ES_SNIPPETS[0])), "not json", "[1]"]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="lexprep"):
            code, out = run_cli(capsys, command, str(path), str(tmp_path / "out.jsonl"))
        assert code == 0
        messages = [record.getMessage() for record in caplog.records]
        assert [message.split(":")[0] for message in messages] == [
            "skipped line 2",
            "skipped line 3",
        ]
        assert "malformed" not in last_json(out)

    @pytest.mark.parametrize("command", _DOC_COMMANDS)
    def test_strict_run_rejects_a_duplicate_id(
        self, tmp_path, capsys, caplog, command
    ):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", ES_SNIPPETS[0]), doc_record("a", "Otro.")])
        out_path = tmp_path / "out.jsonl"
        code, _ = run_cli(capsys, "--strict", command, str(path), str(out_path))
        assert code == 2
        assert "duplicate document id 'a' at line 2" in caplog.text

    def test_a_long_duplicate_id_is_shortened(self, tmp_path):
        path = tmp_path / "in.jsonl"
        long_id = "x" * 100_000
        write_jsonl(path, [doc_record(long_id, "Uno."), doc_record(long_id, "Dos.")])
        result = run_lexprep("--strict", "ingest", path, tmp_path / "out.jsonl")
        assert result.returncode == 2
        (line,) = result.stderr.decode().splitlines()
        assert len(line) <= 512
        assert line.startswith("ERROR duplicate document id 'xxx")
        assert line.endswith(" at line 2")
        assert not (tmp_path / "out.jsonl").exists()

    def test_failed_mask_publishes_nothing(self, tmp_path, capsys, caplog):
        chunks = TestMask()._chunks_file(tmp_path, capsys)
        lines = chunks.read_text("utf-8").splitlines()
        assert len(lines) >= 3
        record = json.loads(lines[2])
        record["token_count"] += 1
        lines[2] = json.dumps(record, ensure_ascii=False)
        chunks.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "examples.jsonl"
        code, _ = run_cli(capsys, "mask", str(chunks), str(out_path))
        assert code == 2
        assert "stage 'mask' failed: chunk d" in caplog.text
        assert not out_path.exists()
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_chunk_counts_empty_documents_without_a_rejection_file(
        self, tmp_path, capsys
    ):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("full", ES_SNIPPETS[0]), doc_record("e", "  ")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out = run_cli(capsys, "chunk", str(path), str(out_dir / "chunks.jsonl"))
        assert code == 0
        tallies = last_json(out)
        assert (tallies["documents"], tallies["empty_documents"]) == (2, 1)
        assert [p.name for p in out_dir.iterdir()] == ["chunks.jsonl"]

    def test_symlinked_output_is_written_through_the_link(self, tmp_path, capsys):
        path = tmp_path / "in.jsonl"
        write_jsonl(path, [doc_record("a", "Hola   mundo.")])
        target = tmp_path / "target.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        code, _ = run_cli(capsys, "clean", str(path), str(link))
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text("utf-8"))["text"] == "Hola mundo."
        assert list(tmp_path.glob(".*.tmp")) == []
