"""Manifest validation and end-to-end pipeline runs."""

import builtins
import json
import logging
import os
import random
import re
import reprlib
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexprep import chunking, pipeline
from lexprep.cleaning import CleanPolicy
from lexprep.cli import main
from lexprep.corpus import compute_stats, read_documents
from lexprep.errors import ManifestError, StageFailure
from lexprep.masking import IGNORE_LABEL, MaskingConfig, MlmExample
from lexprep.pipeline import (
    STAGE_NAMES,
    SUMMARY_NAME,
    PipelineManifest,
    run_pipeline,
    run_stages,
    validate_stages,
)
from lexprep.tokenizers import VocabTokenizer

from .conftest import doc_record, run_lexprep, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


# A name that a message shows only in part.
_LONG = "x" * 100_000


def bilingual_input(path):
    """Five Spanish and five Catalan documents, the gate fixture."""
    records = [
        doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:5])
    ] + [doc_record(f"ca-{i}", text) for i, text in enumerate(CA_SNIPPETS[:5])]
    write_jsonl(path, records)
    return path


def manifest_for(tmp_path, stages, **extra):
    record = {
        "input_path": str(tmp_path / "input.jsonl"),
        "output_dir": str(tmp_path / "out"),
        "stages": list(stages),
        **extra,
    }
    return PipelineManifest.from_record(record)


class TestValidateStages:
    @pytest.mark.parametrize(
        "stages",
        [
            (),
            ("clean",),
            ("filter-lang", "clean"),
            ("clean", "chunk"),
            ("filter-lang", "clean", "chunk", "mask"),
            ("chunk", "mask"),
        ],
    )
    def test_legal_orders(self, stages):
        validate_stages(stages)

    @pytest.mark.parametrize(
        "stages",
        [
            ("polish",),
            ("clean", "clean"),
            ("chunk", "clean"),
            ("chunk", "filter-lang"),
            ("mask",),
            ("mask", "chunk"),
        ],
    )
    def test_illegal_orders(self, stages):
        with pytest.raises(ManifestError):
            validate_stages(stages)

    @pytest.mark.parametrize(
        "stages, rule",
        [
            (("polish",), "unknown stage 'polish'"),
            (("clean", "clean"), "stage 'clean' is listed twice"),
            (("chunk", "filter-lang"), "document stage 'filter-lang' comes after"),
            (("mask",), "'mask' needs 'chunk' right before it"),
            (("mask", "chunk"), "'mask' needs 'chunk' right before it"),
            (("clean", "mask", "chunk"), "'mask' needs 'chunk' right before it"),
            # A long name is shortened in the message.
            pytest.param((_LONG,), "unknown stage 'xxx", id="long unknown"),
            pytest.param(
                ("clean", "clean", _LONG), "'clean' is listed twice", id="long twice"
            ),
        ],
    )
    def test_message_names_the_broken_rule(self, stages, rule):
        with pytest.raises(ManifestError, match=rule) as excinfo:
            validate_stages(stages)
        assert len(str(excinfo.value)) < 200

    def test_stage_names_are_fixed(self):
        assert STAGE_NAMES == ("filter-lang", "clean", "chunk", "mask")


class TestManifest:
    def test_minimal_record(self, tmp_path):
        manifest = manifest_for(tmp_path, ["clean"])
        assert manifest.stages == ("clean",)
        assert manifest.seed == 0
        assert manifest.threshold == 0.95
        assert manifest.max_tokens == 512

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ManifestError, match="unknown manifest keys"):
            manifest_for(tmp_path, ["clean"], shuffle=True)
        with pytest.raises(ManifestError, match="unknown manifest keys") as excinfo:
            manifest_for(tmp_path, ["clean"], **{_LONG: True})
        assert len(str(excinfo.value)) < 200

    def test_unknown_stage_setting(self, tmp_path):
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["filter-lang"], **{"filter-lang": {"mode": "x"}})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["clean"], clean={"polish": True})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["chunk"], chunk={"budget": 8})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["chunk", "mask"], mask={"rate": 0.5})

    @pytest.mark.parametrize(
        "section, key",
        [
            ("filter-lang", "mode"),
            ("clean", "polish"),
            ("chunk", "budget"),
            ("mask", "rate"),
            # The top level gives the seed; masking takes it from there.
            ("mask", "seed"),
            # A long key is shortened, as `reprlib.repr` shows it.
            pytest.param("clean", _LONG, id="clean-long"),
        ],
    )
    def test_unknown_stage_setting_named_in_manifest_words(
        self, tmp_path, caplog, section, key
    ):
        message = f"unknown {section} setting {reprlib.repr(key)}"
        assert len(message) < 200
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            manifest_for(tmp_path, ["clean", "chunk", "mask"], **{section: {key: 1}})
        path = tmp_path / "run.json"
        record = {
            "input_path": "input.jsonl",
            "output_dir": "out",
            "stages": ["clean", "chunk", "mask"],
            section: {key: 1},
        }
        path.write_text(json.dumps(record), encoding="utf-8")
        with caplog.at_level(logging.ERROR, logger="lexprep"):
            assert main(["run", str(path)]) == 2
        assert [r.getMessage() for r in caplog.records][-1] == message
        assert not (tmp_path / "out").exists()

    def test_every_clean_and_mask_field_but_the_seed_is_a_setting(self, tmp_path):
        clean = {
            "collapse_spaces": False,
            "collapse_newlines": False,
            "strip_control": False,
            "trim_ends": False,
        }
        mask = {"mask_rate": 0.2, "mask_prob": 0.5, "random_prob": 0.25}
        manifest = manifest_for(
            tmp_path, ["clean", "chunk", "mask"], seed=7, clean=clean, mask=mask
        )
        assert manifest.clean_policy == CleanPolicy(**clean)
        assert manifest.masking == MaskingConfig(**mask, seed=7)

    def test_masking_takes_the_manifest_seed(self):
        manifest = PipelineManifest(
            Path("in"),
            Path("out"),
            stages=("chunk", "mask"),
            seed=1,
            masking=MaskingConfig(mask_rate=0.2, seed=7),
        )
        assert manifest.masking == MaskingConfig(mask_rate=0.2, seed=1)
        with pytest.raises(TypeError, match="^seed must be int, got True$"):
            PipelineManifest(Path("in"), Path("out"), stages=(), seed=True)

    def test_bad_setting_value(self, tmp_path):
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["filter-lang"], **{"filter-lang": {"threshold": "high"}})
        with pytest.raises(ManifestError, match="threshold must lie in"):
            manifest_for(tmp_path, ["filter-lang"], **{"filter-lang": {"threshold": 7}})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["chunk", "mask"], mask={"mask_rate": 2.0})

    def test_missing_required_key(self):
        with pytest.raises(ManifestError, match="missing required key"):
            PipelineManifest.from_record({"stages": []})

    def test_stage_order_checked_on_construction(self, tmp_path):
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["mask"])

    def test_settings_forwarded(self, tmp_path):
        manifest = manifest_for(
            tmp_path,
            ["filter-lang", "clean", "chunk", "mask"],
            seed=7,
            **{
                "filter-lang": {"language": "ca", "threshold": 0.5},
                "clean": {"collapse_spaces": False},
                "chunk": {"max_tokens": 128},
                "mask": {"mask_rate": 0.2},
            },
        )
        assert manifest.language == "ca"
        assert manifest.threshold == 0.5
        assert manifest.clean_policy.collapse_spaces is False
        assert manifest.max_tokens == 128
        assert manifest.masking.mask_rate == 0.2
        assert manifest.masking.seed == 7

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        nested = tmp_path / "configs"
        nested.mkdir()
        manifest_path = nested / "run.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "input_path": "../input.jsonl",
                    "output_dir": "out",
                    "stages": ["clean"],
                }
            ),
            encoding="utf-8",
        )
        manifest = PipelineManifest.from_file(manifest_path)
        assert manifest.input_path == nested / "../input.jsonl"
        assert manifest.output_dir == nested / "out"

    def test_absolute_paths_left_alone(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        manifest_path.write_text(
            json.dumps(
                {
                    "input_path": str(tmp_path / "input.jsonl"),
                    "output_dir": str(tmp_path / "out"),
                    "stages": [],
                }
            ),
            encoding="utf-8",
        )
        manifest = PipelineManifest.from_file(manifest_path)
        assert manifest.input_path == tmp_path / "input.jsonl"

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError):
            PipelineManifest.from_file(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ManifestError):
            PipelineManifest.from_file(path)


class TestRunPipeline:
    def test_zero_stages_copies_input(self, tmp_path):
        input_path = bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(tmp_path, [])
        summary = run_pipeline(manifest)
        copied = tmp_path / "out" / "00-input.jsonl"
        assert copied.read_bytes() == input_path.read_bytes()
        assert summary["stages"] == []
        assert summary["final_output"] == "00-input.jsonl"
        assert summary["stats_before"] == summary["stats_after"]
        assert summary["documents_in"] == 10

    def test_full_run_tallies_and_budget(self, tmp_path):
        bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(tmp_path, ["filter-lang", "clean", "chunk", "mask"])
        summary = run_pipeline(manifest)

        by_name = {stage["name"]: stage for stage in summary["stages"]}
        gate = by_name["filter-lang"]
        assert gate["in"] == 10
        assert gate["out"] == 5
        assert gate["rejected"] == 5
        assert gate["in"] == gate["out"] + gate["rejected"]

        clean = by_name["clean"]
        assert clean["in"] == clean["out"] == 5
        assert clean["rejected"] == 0

        chunk = by_name["chunk"]
        assert chunk["in"] == 5
        assert chunk["rejected"] == 0
        assert chunk["out"] >= 5

        mask = by_name["mask"]
        assert mask["in"] == mask["out"] == chunk["out"]
        assert mask["masked_positions"] > 0

        out_dir = tmp_path / "out"
        with open(out_dir / "03-chunk.jsonl", encoding="utf-8") as handle:
            chunk_records = [json.loads(line) for line in handle]
        assert len(chunk_records) == chunk["out"]
        assert all(r["token_count"] <= manifest.max_tokens for r in chunk_records)
        assert chunk["tokens_total"] == sum(r["token_count"] for r in chunk_records)

        with open(out_dir / "01-filter-lang.rejected.jsonl", encoding="utf-8") as handle:
            rejected_records = [json.loads(line) for line in handle]
        assert {r["verdict_language"] for r in rejected_records} == {"ca"}
        assert all(r["verdict_confidence"] > 0 for r in rejected_records)

        with open(out_dir / "04-mask.jsonl", encoding="utf-8") as handle:
            examples = [json.loads(line) for line in handle]
        assert len(examples) == mask["out"]
        for example in examples:
            assert len(example["input_ids"]) == len(example["labels"])

    def test_rerun_is_byte_identical(self, tmp_path):
        bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(tmp_path, ["filter-lang", "clean", "chunk", "mask"])
        run_pipeline(manifest)
        out_dir = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert SUMMARY_NAME in first
        run_pipeline(manifest)
        second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert first == second

    def test_stats_follow_document_stages(self, tmp_path):
        bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(tmp_path, ["filter-lang"])
        summary = run_pipeline(manifest)
        assert summary["stats_before"]["document_count"] == 10
        assert summary["stats_after"]["document_count"] == 5
        assert (
            summary["stats_after"]["total_bytes"]
            < summary["stats_before"]["total_bytes"]
        )

    def test_stage_failure_names_the_stage(self, tmp_path):
        bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(
            tmp_path,
            ["clean", "chunk"],
            chunk={"tokenizer": str(tmp_path / "missing-vocab.json")},
        )
        with pytest.raises(StageFailure) as excinfo:
            run_pipeline(manifest)
        assert excinfo.value.stage == "chunk"

    def test_missing_input_raises(self, tmp_path):
        manifest = manifest_for(tmp_path, ["clean"])
        with pytest.raises(OSError):
            run_pipeline(manifest)

    def test_summary_written_to_disk(self, tmp_path):
        bilingual_input(tmp_path / "input.jsonl")
        manifest = manifest_for(tmp_path, ["clean"])
        returned = run_pipeline(manifest)
        on_disk = json.loads((tmp_path / "out" / SUMMARY_NAME).read_text("utf-8"))
        assert on_disk == returned
        assert set(on_disk) == {
            "input_path",
            "seed",
            "documents_in",
            "stages",
            "stats_before",
            "stats_after",
            "final_output",
        }

    def test_empty_document_rejected_at_chunk(self, tmp_path):
        write_jsonl(
            tmp_path / "input.jsonl",
            [doc_record("full", ES_SNIPPETS[0]), doc_record("hollow", "   ")],
        )
        manifest = manifest_for(tmp_path, ["chunk"])
        summary = run_pipeline(manifest)
        chunk = summary["stages"][0]
        assert chunk["in"] == 2
        assert chunk["rejected"] == 1
        rejected_path = tmp_path / "out" / "01-chunk.rejected.jsonl"
        (rejected_record,) = [
            json.loads(line)
            for line in rejected_path.read_text("utf-8").splitlines()
        ]
        assert rejected_record["id"] == "hollow"
        assert rejected_record["reject_reason"] == "no sentences to pack"

    def test_lenient_run_counts_malformed_lines(self, tmp_path, caplog):
        records = [doc_record(name, text) for name, text in zip("ab", ES_SNIPPETS)]
        lines = [json.dumps(records[0]), "not json", json.dumps(records[1])]
        (tmp_path / "input.jsonl").write_text("\n".join(lines) + "\n", "utf-8")
        manifest = manifest_for(tmp_path, ["clean", "chunk"])
        with caplog.at_level(logging.WARNING, logger="lexprep"):
            summary = run_pipeline(manifest)
        clean, chunk = summary["stages"]
        assert clean["malformed"] == 1
        assert clean["in"] == 2
        assert "malformed" not in chunk
        (warning,) = caplog.records
        assert warning.getMessage().startswith("skipped line 2: ")

    def test_failure_mid_pass_publishes_nothing(self, tmp_path, monkeypatch):
        bilingual_input(tmp_path / "input.jsonl")
        original = pipeline.clean_text
        calls = []

        def failing_clean(text, policy):
            calls.append(text)
            if len(calls) == 3:
                raise RuntimeError("cleaner broke")
            return original(text, policy)

        monkeypatch.setattr(pipeline, "clean_text", failing_clean)
        manifest = manifest_for(tmp_path, ["filter-lang", "clean", "chunk", "mask"])
        with pytest.raises(StageFailure) as excinfo:
            run_pipeline(manifest)
        assert excinfo.value.stage == "clean"
        assert len(calls) == 3
        assert list((tmp_path / "out").iterdir()) == []


class TestOneRead:
    """A run reads its input once, as the pass draws it, so a pipe works."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        paths = []
        original = pipeline.read_documents

        def recording(path, *args, **kwargs):
            paths.append(Path(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "read_documents", recording)
        return paths

    def test_staged_run_reads_the_input_once(self, tmp_path, opened):
        bilingual_input(tmp_path / "input.jsonl")
        summary = run_pipeline(manifest_for(tmp_path, STAGE_NAMES))
        assert opened == [tmp_path / "input.jsonl"]
        assert summary["documents_in"] == 10
        assert summary["stats_before"]["document_count"] == 10
        assert summary["stats_after"]["document_count"] == 5

    def test_zero_stage_run_counts_its_copy(self, tmp_path, opened, monkeypatch):
        bilingual_input(tmp_path / "input.jsonl")
        reads = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if "r" in mode:
                reads.append(file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        summary = run_pipeline(manifest_for(tmp_path, []))
        monkeypatch.undo()
        # Counted as it is copied: the input is opened once, the copy never.
        assert reads == [tmp_path / "input.jsonl"]
        assert opened == []
        assert summary["documents_in"] == 10

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_zero_stage_copy_is_the_input_byte_for_byte(
        self, tmp_path, caplog, newline
    ):
        lines = [
            json.dumps(doc_record(f"d-{i}", text), ensure_ascii=False)
            for i, text in enumerate(ES_SNIPPETS[:3])
        ]
        lines[1:1] = ["not json", "  "]
        source = tmp_path / "input.jsonl"
        source.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        with caplog.at_level(logging.WARNING, logger="lexprep"):
            summary = run_pipeline(manifest_for(tmp_path, []))
        assert (tmp_path / "out" / "00-input.jsonl").read_bytes() == source.read_bytes()
        expected = compute_stats(read_documents(source)).to_record()
        assert summary["stats_before"] == summary["stats_after"] == expected
        assert summary["documents_in"] == 3
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "skipped line 2"
        ]

    def test_strict_zero_stage_failure_publishes_nothing(self, tmp_path, capsys):
        source = tmp_path / "input.jsonl"
        write_jsonl(source, [doc_record(f"d-{i}", "Hola.") for i in range(5)])
        with open(source, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        manifest = tmp_path / "run.json"
        record = {"input_path": "input.jsonl", "output_dir": "out", "stages": []}
        manifest.write_text(json.dumps(record), encoding="utf-8")
        assert main(["--strict", "run", str(manifest)]) == 2
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("stages", [STAGE_NAMES, ("chunk", "mask"), ()])
    def test_piped_input_writes_what_the_file_input_writes(self, tmp_path, stages):
        source = bilingual_input(tmp_path / "input.jsonl")
        with open(source, "a", encoding="utf-8") as handle:
            handle.write("\nnot json\n")
        runs = {}
        for name, input_path in (("file", source), ("pipe", "/dev/stdin")):
            record = {
                "input_path": str(input_path),
                "output_dir": str(tmp_path / name),
                "stages": list(stages),
            }
            manifest = tmp_path / f"{name}.json"
            manifest.write_text(json.dumps(record), encoding="utf-8")
            result = run_lexprep("run", manifest, stdin=source.read_bytes())
            assert result.returncode == 0, result.stderr
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            summary = json.loads(files.pop(SUMMARY_NAME))
            assert summary.pop("input_path") == str(input_path)
            runs[name] = files, summary
        assert runs["pipe"] == runs["file"]
        assert runs["file"][1]["documents_in"] == 10


def test_the_pass_writes_each_record_before_it_reads_the_next(tmp_path, monkeypatch):
    """One record is in flight: the reader never runs ahead of the writer."""
    records = [doc_record(f"d-{i}", f"Texto  número {i}.") for i in range(200)]
    write_jsonl(tmp_path / "input.jsonl", records)
    drawn, lags = [], []
    read, to_line = pipeline.read_documents, pipeline.document_to_line

    def counted_read(*args, **kwargs):
        for doc in read(*args, **kwargs):
            drawn.append(doc.id)
            yield doc

    def counted_line(doc):
        # Records read and not yet written, this one included.
        lags.append(len(drawn) - len(lags))
        return to_line(doc)

    monkeypatch.setattr(pipeline, "read_documents", counted_read)
    monkeypatch.setattr(pipeline, "document_to_line", counted_line)
    manifest = PipelineManifest(tmp_path / "input.jsonl", tmp_path, stages=())
    output = tmp_path / "clean.jsonl"
    run_stages(manifest, [("clean", (output, Path(os.devnull)))])
    assert lags == [1] * len(records)
    assert len(output.read_bytes().splitlines()) == len(records)


def _unpunctuated_line(chars: int) -> str:
    """Words of the Spanish seed text, drawn at random onto one line, no punctuation."""
    seed = resources.files("lexprep").joinpath("data/seed/es.txt")
    words = re.findall(r"[^\W\d_]+", seed.read_text(encoding="utf-8"))
    rng = random.Random(chars)
    # Seed words average more than 2 letters: 3 per word, space included.
    return " ".join(rng.choices(words, k=chars // 3))[:chars].strip()


def test_concurrent_runs_into_one_directory_publish_whole_files(tmp_path):
    pytest.importorskip("fcntl")
    records = [
        doc_record(f"es-{i}", " ".join(ES_SNIPPETS[i % 4 : i % 4 + 3]))
        for i in range(40)
    ]
    write_jsonl(tmp_path / "in.jsonl", records)

    def manifest(out: str, seed: int) -> str:
        path = tmp_path / f"{out}-{seed}.json"
        data = {
            "input_path": str(tmp_path / "in.jsonl"),
            "output_dir": str(tmp_path / out),
            "stages": list(STAGE_NAMES),
            "seed": seed,
        }
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    # Every file that one run of either seed writes alone.
    whole = set()
    for seed in (1, 2):
        assert run_lexprep("run", manifest(f"alone-{seed}", seed)).returncode == 0
        whole |= {(p.name, p.read_bytes()) for p in (tmp_path / f"alone-{seed}").iterdir()}
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
    for attempt in range(3):
        out = f"shared-{attempt}"
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "lexprep.cli", "run", manifest(out, seed)],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for seed in (1, 2)
        ]
        results = [(run.communicate(timeout=120)[1], run.returncode) for run in runs]
        assert 0 in [code for _, code in results]
        for stderr, code in results:
            assert code == 0 and stderr == b"" or (
                code == 2 and b"another run is writing this file" in stderr
            )
        # Each file is one run's whole output, and no temp file is left.
        for path in (tmp_path / out).iterdir():
            assert (path.name, path.read_bytes()) in whole


class TestOneChunkAtATime:
    """The chunk stage cuts each chunk as mask draws it, so one is held."""

    def test_each_chunk_is_masked_and_written_before_the_next_is_cut(
        self, tmp_path, monkeypatch
    ):
        events = []
        make_chunk, to_line = chunking._make_chunk, pipeline._to_line

        def made(*args):
            events.append("cut")
            return make_chunk(*args)

        def written(record):
            if isinstance(record, MlmExample):
                events.append("example")
            return to_line(record)

        monkeypatch.setattr(chunking, "_make_chunk", made)
        monkeypatch.setattr(pipeline, "_to_line", written)
        line = _unpunctuated_line(20_000)
        write_jsonl(tmp_path / "input.jsonl", [doc_record("line", line)])
        summary = run_pipeline(manifest_for(tmp_path, STAGE_NAMES))
        chunks = summary["stages"][2]["out"]
        assert chunks > 5
        assert events == ["cut", "example"] * chunks

    def test_peak_memory_grows_by_text_copies_not_by_chunks(self, tmp_path):
        # A document's text is copied a few times as it is read, cleaned,
        # split and written, so the peak grows with it by a few copies. The
        # chunks and the ids of the whole line are never held at once:
        # holding them grew the peak by about 22 copies of the added text.
        lengths = (50_000, 200_000)
        texts = {chars: _unpunctuated_line(chars) for chars in lengths}
        manifest = manifest_for(tmp_path, STAGE_NAMES)
        # A first run fills the gate's word table, which every run shares.
        longest = texts[lengths[-1]]
        write_jsonl(tmp_path / "input.jsonl", [doc_record("line", longest)])
        run_pipeline(manifest)
        peaks = {}
        for chars in lengths:
            write_jsonl(tmp_path / "input.jsonl", [doc_record("line", texts[chars])])
            tracemalloc.start()
            try:
                summary = run_pipeline(manifest)
                _, peaks[chars] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert summary["stages"][3]["out"] > chars // 2000
        short, long = lengths
        text_growth = sys.getsizeof(texts[long]) - sys.getsizeof(texts[short])
        assert peaks[long] - peaks[short] < 8 * text_growth

    @pytest.mark.parametrize("stage", ["chunk", "mask"])
    def test_failure_at_a_later_chunk_names_its_stage(
        self, tmp_path, monkeypatch, stage
    ):
        def failing(original, seq_of):
            def run(*args):
                if seq_of(args) == 2:
                    raise RuntimeError("third chunk broke")
                return original(*args)

            return run

        if stage == "chunk":
            made = failing(chunking._make_chunk, lambda args: args[1])
            monkeypatch.setattr(chunking, "_make_chunk", made)
        else:
            masked = failing(pipeline.mask_chunk, lambda args: args[0].seq)
            monkeypatch.setattr(pipeline, "mask_chunk", masked)
        text = " ".join(ES_SNIPPETS)
        write_jsonl(tmp_path / "input.jsonl", [doc_record("long", text)])
        manifest = manifest_for(tmp_path, [], chunk={"max_tokens": 16})
        out = tmp_path / "out"
        out.mkdir()
        plan = [
            (name, (out / f"{name}.jsonl", out / f"{name}.rejected.jsonl"))
            for name in ("chunk", "mask")
        ]
        with pytest.raises(StageFailure) as excinfo:
            run_stages(manifest, plan)
        assert excinfo.value.stage == stage
        assert str(excinfo.value.cause) == "third chunk broke"
        assert list(out.iterdir()) == []


# Characters JSON escapes or that are easy to get wrong: quotes, backslashes,
# control characters, the JavaScript line separators and astral characters.
_DOC_ID_CHARS = st.one_of(
    st.sampled_from(
        list('"\\/\x00\x01\x1f\x7f\x85\u2028\u2029\ud7ff\U0001f600\U00010348')
    ),
    st.characters(),
)
# The ignore label, 0, the bundled vocabulary's edge, and any int at all.
_VOCAB_SIZE = VocabTokenizer().vocab_size
_ID = st.one_of(
    st.sampled_from([IGNORE_LABEL, 0, 1, _VOCAB_SIZE - 1, _VOCAB_SIZE]),
    st.integers(0, _VOCAB_SIZE),
    st.integers(),
)


@st.composite
def _examples(draw) -> MlmExample:
    input_ids = draw(st.lists(_ID, max_size=30))
    width = len(input_ids)
    return MlmExample(
        doc_id=draw(st.text(_DOC_ID_CHARS, max_size=20)),
        seq=draw(st.one_of(st.integers(0, 3), st.integers(0, 2**70))),
        input_ids=tuple(input_ids),
        labels=tuple(draw(st.lists(_ID, min_size=width, max_size=width))),
    )


def _dumped(example: MlmExample) -> str:
    return json.dumps(example.to_record(), ensure_ascii=False)


@pytest.fixture
def id_texts():
    """The process's id→text table, emptied before and after the test."""
    pipeline._id_texts.clear()
    yield pipeline._id_texts
    pipeline._id_texts.clear()


class TestMaskLines:
    """A mask line is the JSON of `to_record`, whatever the ids and the id."""

    @given(_examples())
    @example(MlmExample(doc_id="", seq=0, input_ids=(), labels=()))
    def test_line_is_the_records_json(self, masked):
        assert pipeline._to_line(masked) == _dumped(masked)

    def test_table_stops_at_its_cap_and_lines_stay_exact(self, id_texts):
        cap = pipeline.ID_TEXT_LIMIT
        ids = range(-200, cap + 1000)
        examples = [
            MlmExample(f"d{seq}", seq, tuple(ids[seq::7]), tuple(ids[seq::7]))
            for seq in range(7)
        ]
        for _ in range(2):
            # Written again, the ids past the cap are formatted once more.
            for masked in examples:
                assert pipeline._to_line(masked) == _dumped(masked)
            assert len(id_texts) == cap

    def test_bundled_vocabulary_fits_under_the_cap(self, id_texts):
        ids = (*range(_VOCAB_SIZE), IGNORE_LABEL)
        masked = MlmExample("d", 0, ids, ids)
        assert pipeline._to_line(masked) == _dumped(masked)
        assert len(id_texts) == _VOCAB_SIZE + 1 <= pipeline.ID_TEXT_LIMIT
