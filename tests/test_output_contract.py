"""Output contract: a fixed four-stage run writes exactly the recorded bytes.

The corpus is built deterministically from the bundled seed texts, with
the awkward cases the hot path has to get right: sentences packed across
chunk boundaries, abbreviations, a sentence longer than the budget, a word
wider than the budget, unusual Unicode (NBSP, superscript digits,
combining marks, underscores), non-Spanish and blank documents. The
digests were recorded before any of the tokenizer, chunking, masking and
language-gate fast paths existed; a change that alters one output byte
fails here.
"""

import hashlib
from importlib import resources

from lexprep.cli import main
from lexprep.pipeline import PipelineManifest, run_pipeline

from .conftest import doc_record, write_jsonl

EXPECTED_SHA256 = {
    "01-filter-lang.jsonl": "c384fdd7173ee31b89b189e339f202221ba101c6b00744c3c8bbcc5eee52b5f2",
    "01-filter-lang.rejected.jsonl": "7a47f9479952387da2d5ef9932e1efe9c80625262220b37e53a234d2ecf26a81",
    "02-clean.jsonl": "bcc278b142d1ad2f24588dc33ea6f5f6346e6f797a8a8a5a6784ea7022ccba96",
    "02-clean.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "03-chunk.jsonl": "6aacb020c5a7813bfafc224f206d039f492ec9161b2975cb253b0672fefdcb8f",
    "03-chunk.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "04-mask.jsonl": "4f30c96439032b0b3c2556ea7c8b3d98015623e1d4a8b77e53107fe9ad498a44",
    "04-mask.rejected.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def _seed_lines(language: str) -> list[str]:
    path = resources.files("lexprep").joinpath(f"data/seed/{language}.txt")
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line]


def contract_records() -> list[dict]:
    es = _seed_lines("es")
    records = []
    # Paragraph documents, with the spacing artifacts the cleaner removes.
    for i in range(0, 24, 8):
        text = "\n\n".join(es[i : i + 4]) + "\n" + "  \t".join(es[i + 4 : i + 8])
        records.append(doc_record(f"es-par-{i}", text))
    # One long line: many sentence boundaries and several chunks.
    records.append(doc_record("es-line", " ".join(es)))
    # Abbreviations and ordinals that must not end a sentence.
    records.append(
        doc_record(
            "es-abbr",
            "Según el art. 5 de la Ley, el Sr. López y la Sra. Díaz comparecen. "
            "El apdo. 2.º del núm. 3 se aplica. ¿Procede el recurso? ¡Sí! "
            + " ".join(es[:6]),
        )
    )
    # A sentence longer than the budget and a word wider than it.
    records.append(doc_record("es-long", " ".join(es[:10]).replace(".", ",") + "."))
    records.append(
        doc_record("es-word", es[0] + " " + "prescripción" * 60 + " " + es[1])
    )
    # Unusual Unicode the tokenizer and the gate must treat as before.
    records.append(
        doc_record(
            "es-unicode",
            es[2].replace(" ", " ", 3)
            + " x² y³ café mar_azul   ½ Ⅻ. "
            + es[3]
            + " "
            + es[4],
        )
    )
    # Documents the gate rejects, and ones with nothing to score.
    for language in ("ca", "pt", "en", "eu"):
        records.append(doc_record(f"{language}-0", " ".join(_seed_lines(language)[:6])))
    records.append(doc_record("punct", "... ¡¿!? — «» ()"))
    records.append(doc_record("blank", "   "))
    return records


def _run_contract_manifest(tmp_path):
    write_jsonl(tmp_path / "input.jsonl", contract_records())
    manifest = PipelineManifest.from_record(
        {
            "input_path": str(tmp_path / "input.jsonl"),
            "output_dir": str(tmp_path / "out"),
            "stages": ["filter-lang", "clean", "chunk", "mask"],
            "seed": 7,
            "chunk": {"max_tokens": 96},
        }
    )
    run_pipeline(manifest)


def test_fixed_run_writes_recorded_bytes(tmp_path):
    _run_contract_manifest(tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").glob("[0-9][0-9]-*.jsonl"))
    }
    assert digests == EXPECTED_SHA256


def test_run_matches_single_stage_commands(tmp_path):
    _run_contract_manifest(tmp_path)
    out, chain = tmp_path / "out", tmp_path / "chain"
    chain.mkdir()
    gated, cleaned = chain / "01-filter-lang.jsonl", chain / "02-clean.jsonl"
    chunks, examples = chain / "03-chunk.jsonl", chain / "04-mask.jsonl"
    rejected = chain / "01-filter-lang.rejected.jsonl"
    commands = [
        ["filter-lang", tmp_path / "input.jsonl", gated, "--rejected", rejected],
        ["clean", gated, cleaned],
        ["chunk", cleaned, chunks, "--max-tokens", "96"],
        ["--seed", "7", "mask", chunks, examples],
    ]
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0
    written = sorted(path.name for path in chain.iterdir())
    assert len(written) == 5
    for name in written:
        assert (chain / name).read_bytes() == (out / name).read_bytes(), name
