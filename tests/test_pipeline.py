"""Manifest validation and end-to-end pipeline runs."""

import json
import logging

import pytest

from lexprep import pipeline
from lexprep.errors import ManifestError, StageFailure
from lexprep.pipeline import (
    STAGE_NAMES,
    SUMMARY_NAME,
    PipelineManifest,
    run_pipeline,
    validate_stages,
)

from .conftest import doc_record, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS


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

    def test_unknown_stage_setting(self, tmp_path):
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["filter-lang"], **{"filter-lang": {"mode": "x"}})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["clean"], clean={"polish": True})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["chunk"], chunk={"budget": 8})
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["chunk", "mask"], mask={"rate": 0.5})

    def test_bad_setting_value(self, tmp_path):
        with pytest.raises(ManifestError):
            manifest_for(tmp_path, ["filter-lang"], **{"filter-lang": {"threshold": "high"}})
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
