"""End-to-end subcommand behavior and exit-code contract."""

import json
import logging
import math
import random

import pytest

from lexprep.chunking import chunk_from_record
from lexprep.cli import main
from lexprep.corpus import document_to_line, read_documents
from lexprep.langid import load_profiles

from .conftest import doc_record, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


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
            ["--jobs", "two", "ingest", "a", "b"],
            ["--jobs", "0", "ingest", "a", "b"],
            ["--jobs", "-3", "ingest", "a", "b"],
        ],
    )
    def test_exit_code_one(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1


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


class TestFilterLang:
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

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        chunks = self._chunks_file(tmp_path, capsys)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        assert run_cli(capsys, "mask", str(chunks), str(serial))[0] == 0
        assert (
            run_cli(capsys, "--jobs", "2", "mask", str(chunks), str(parallel))[0] == 0
        )
        assert serial.read_bytes() == parallel.read_bytes()

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_lines_are_skipped_and_counted(self, tmp_path, capsys, jobs):
        chunks, mixed = self._chunks(tmp_path, capsys)
        clean_out = tmp_path / "clean.jsonl"
        mixed_out = tmp_path / "mixed-out.jsonl"
        assert run_cli(capsys, "mask", str(chunks), str(clean_out))[0] == 0
        code, out = run_cli(capsys, "--jobs", jobs, "mask", str(mixed), str(mixed_out))
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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_mask_publishes_nothing(self, tmp_path, capsys, caplog, jobs):
        chunks = TestMask()._chunks_file(tmp_path, capsys)
        lines = chunks.read_text("utf-8").splitlines()
        assert len(lines) >= 3
        record = json.loads(lines[2])
        record["token_count"] += 1
        lines[2] = json.dumps(record, ensure_ascii=False)
        chunks.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_path = tmp_path / "examples.jsonl"
        code, _ = run_cli(capsys, "--jobs", jobs, "mask", str(chunks), str(out_path))
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

    def test_stage_commands_match_across_jobs(self, corpus_path, tmp_path):
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs-{jobs}"
            out.mkdir()
            gated, cleaned = out / "gated.jsonl", out / "clean.jsonl"
            chunks, examples = out / "chunks.jsonl", out / "examples.jsonl"
            commands = [
                ["filter-lang", corpus_path, gated],
                ["clean", corpus_path, cleaned],
                ["chunk", cleaned, chunks, "--max-tokens", "48"],
                ["mask", chunks, examples],
            ]
            for argv in commands:
                assert main(["--jobs", jobs, *map(str, argv)]) == 0

        def files(root):
            return {path.name: path.read_bytes() for path in sorted(root.iterdir())}

        serial = files(tmp_path / "jobs-1")
        assert "gated.jsonl.rejected.jsonl" in serial
        assert files(tmp_path / "jobs-2") == serial
