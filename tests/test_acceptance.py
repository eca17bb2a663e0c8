"""Acceptance gate: one test per release criterion.

Each test prints a single `[acceptance] criterion NN <name>: PASS/FAIL`
line (run with `pytest tests/test_acceptance.py -s` to see them) and then
asserts, so the suite both documents and enforces the release bar.
"""

import io
import json
import math
import random
import time
import unicodedata
from contextlib import redirect_stdout

from lexprep.chunking import Chunk, chunk_document, pack_chunks, split_sentences
from lexprep.cleaning import clean_text
from lexprep.cli import main
from lexprep.langid import builtin_profiles, gate
from lexprep.masking import IGNORE_LABEL, MaskingConfig, mask_chunk
from lexprep.metrics import (
    LearningCurve,
    PredictionRecord,
    build_report,
    curve_auc,
    f1_scores,
    format_report_table,
)
from lexprep.schedule import TrainConfig, effective_batch, lr_at

from .conftest import doc_record, make_doc, write_jsonl
from .lang_snippets import CA_SNIPPETS, ES_SNIPPETS, GATE_FIXTURE

# Mixed single-token and multi-token words so word-level invariants bite.
WORD_POOL = (
    "de la ley el en artículo normativa información publicación jurídico "
    "administración procedimiento responsabilidad extraordinario qwzkj"
).split()

SINGLE_TOKEN_WORDS = "de la el en es al ar os as ón".split()


def _report(number: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:02d} {name}: {status}")
    assert ok, f"criterion {number:02d} ({name}) failed"


def _close(value: float, target: float, rel: float = 1e-12) -> bool:
    return math.isclose(value, target, rel_tol=rel, abs_tol=0.0)


def test_criterion_01_masking_distribution(tokenizer):
    start = time.perf_counter()
    rng = random.Random(11)
    text = " ".join(rng.choice(SINGLE_TOKEN_WORDS) for _ in range(500))
    (base,) = pack_chunks([text], tokenizer, max_tokens=512, doc_id="dist")
    original = [token.id for token in tokenizer.tokenize(base.text)]
    mask_id = tokenizer.mask_token_id
    config = MaskingConfig()

    counts = {"mask": 0, "random": 0, "keep": 0}
    selected = 0
    for i in range(1400):
        chunk = Chunk(
            f"dist-{i}", base.seq, base.text, base.word_boundaries, base.token_ids
        )
        example = mask_chunk(chunk, tokenizer, config)
        for position, label in enumerate(example.labels):
            if label == IGNORE_LABEL:
                continue
            selected += 1
            replaced = example.input_ids[position]
            if replaced == mask_id:
                counts["mask"] += 1
            elif replaced == original[position]:
                counts["keep"] += 1
            else:
                counts["random"] += 1
    elapsed = time.perf_counter() - start

    ok = selected >= 100_000
    for branch, expected in (("mask", 0.80), ("random", 0.10), ("keep", 0.10)):
        ok = ok and abs(counts[branch] / selected - expected) <= 0.02
    ok = ok and elapsed < 30.0
    _report(1, "masking branch distribution", ok)


def test_criterion_02_whole_word_atomicity(tokenizer):
    rng = random.Random(22)
    config = MaskingConfig()
    ok = True
    for i in range(10_000):
        sentence = " ".join(
            rng.choice(WORD_POOL) for _ in range(rng.randint(4, 30))
        )
        (chunk,) = pack_chunks([sentence], tokenizer, max_tokens=512, doc_id=f"c{i}")
        example = mask_chunk(chunk, tokenizer, config)
        boundaries = set(chunk.word_boundaries)
        ranges = example.selected_word_ranges
        ok = ok and all(span in boundaries for span in ranges)
        labeled = {
            position
            for position, label in enumerate(example.labels)
            if label != IGNORE_LABEL
        }
        covered = {
            position for start, end in ranges for position in range(start, end)
        }
        ok = ok and labeled == covered
        if not ok:
            break
    _report(2, "whole-word atomicity", ok)


def test_criterion_03_chunk_budget_and_coverage(tokenizer):
    rng = random.Random(33)
    ok = True
    for i in range(10_000):
        sentences = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.01:
                length = rng.randint(450, 700)
            else:
                length = rng.randint(3, 40)
            sentences.append(
                " ".join(rng.choice(WORD_POOL) for _ in range(length))
            )
        doc = make_doc(f"doc-{i}", ". ".join(sentences) + ".")
        chunks = chunk_document(doc, tokenizer, max_tokens=512)

        ok = ok and all(chunk.token_count <= 512 for chunk in chunks)
        produced = sorted(
            token.id for chunk in chunks for token in tokenizer.tokenize(chunk.text)
        )
        expected = sorted(
            token.id
            for sentence in split_sentences(doc.text)
            for token in tokenizer.tokenize(sentence)
        )
        ok = ok and produced == expected
        if not ok:
            break
    _report(3, "chunk budget and token conservation", ok)


def test_criterion_04_schedule_exactness():
    ok = True
    for total in (100, 1000, 123457):
        config = TrainConfig(total_steps=total)
        warmup = round(0.08 * total)
        ok = ok and config.warmup_steps == warmup
        ok = ok and lr_at(0, config) == 0.0
        ok = ok and _close(lr_at(warmup, config), 1e-4)
        ok = ok and lr_at(total, config) == 0.0
        midpoint = warmup + (total - warmup) / 2
        ok = ok and _close(lr_at(midpoint, config), 5e-5)
    _report(4, "schedule landmark exactness", ok)


def test_criterion_05_effective_batch():
    ok = effective_batch(TrainConfig(total_steps=100)) == 64
    _report(5, "effective batch size", ok)


def test_criterion_06_auc_oracle():
    def riemann(points, subdivisions=10_000):
        span = points[-1][0] - points[0][0]
        area = 0.0
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            pieces = max(1, round(subdivisions * (x1 - x0) / span))
            width = (x1 - x0) / pieces
            for i in range(pieces):
                mid = x0 + (i + 0.5) * width
                area += (y0 + (y1 - y0) * (mid - x0) / (x1 - x0)) * width
        return area

    rng = random.Random(66)
    worst = 0.0
    for _ in range(100):
        count = rng.randint(2, 10)
        epochs = sorted(rng.sample(range(200), count))
        points = [(float(epoch), rng.random()) for epoch in epochs]
        auc = curve_auc(LearningCurve("m", tuple(points)))
        worst = max(worst, abs(auc - riemann(points)))
    ok = worst <= 1e-9
    ok = ok and curve_auc(LearningCurve("m", ((0.0, 0.5), (2.0, 0.5)))) == 1.0
    _report(6, "trapezoidal AUC vs Riemann oracle", ok)


def test_criterion_07_f1_correctness():
    fixture = [
        PredictionRecord("1", frozenset({"a"}), frozenset({"a"})),
        PredictionRecord("2", frozenset({"a", "b"}), frozenset({"a"})),
        PredictionRecord("3", frozenset({"b"}), frozenset({"a", "b"})),
    ]
    ok = f1_scores(fixture, "micro") == 0.75

    rng = random.Random(77)
    labels = list("abcdef")
    records = []
    hits = 0
    for i in range(1000):
        gold = rng.choice(labels)
        predicted = rng.choice(labels)
        hits += gold == predicted
        records.append(
            PredictionRecord(str(i), frozenset({gold}), frozenset({predicted}))
        )
    ok = ok and f1_scores(records, "micro") == hits / 1000
    _report(7, "micro-F1 exactness", ok)


def test_criterion_08_language_gate():
    profiles = list(builtin_profiles())
    ok = True
    for label, snippets in GATE_FIXTURE:
        for snippet in snippets:
            kept, verdict = gate(snippet, profiles, threshold=0.95)
            ok = ok and kept == (label == "es")
            ok = ok and verdict.language == label

    snippets = [snippet for _, group in GATE_FIXTURE for snippet in group]
    kept_counts = [
        sum(gate(s, profiles, threshold=threshold)[0] for s in snippets)
        for threshold in (0.0, 0.5, 0.95, 1.0)
    ]
    ok = ok and kept_counts == sorted(kept_counts, reverse=True)
    ok = ok and kept_counts[-1] == 0
    _report(8, "language gate on frozen fixture", ok)


def test_criterion_09_cleaner_algebra():
    def keepable(text):
        return [
            ch
            for ch in text
            if not ch.isspace() and unicodedata.category(ch) != "Cc"
        ]

    alphabet = list("abcdeñéüA.,;:!?()0123456789") + [
        " ", "\t", "\n", "\r", "\x00", "\x01", "\x0b", "\x0c", "\x1f",
        "\x7f", " ",
    ]
    rng = random.Random(99)
    ok = True
    for _ in range(10_000):
        raw = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(0, 60))
        )
        cleaned = clean_text(raw)
        ok = ok and clean_text(cleaned) == cleaned
        ok = ok and keepable(cleaned) == keepable(raw)
        if not ok:
            break

    ok = ok and clean_text("a  b\t c") == "a b c"
    ok = ok and clean_text("") == ""
    ok = ok and clean_text("ley 5\n\n\nart. 2 ") == "ley 5\nart. 2"
    _report(9, "cleaner idempotence and preservation", ok)


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    records = [
        doc_record(f"es-{i}", text) for i, text in enumerate(ES_SNIPPETS[:5])
    ] + [doc_record(f"ca-{i}", text) for i, text in enumerate(CA_SNIPPETS[:5])]
    write_jsonl(tmp_path / "input.jsonl", records)
    manifest_path = tmp_path / "run.json"
    manifest_path.write_text(
        json.dumps(
            {
                "input_path": "input.jsonl",
                "output_dir": "out",
                "stages": ["filter-lang", "clean", "chunk", "mask"],
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"

    with redirect_stdout(io.StringIO()):
        first_code = main(["run", str(manifest_path)])
    first = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    with redirect_stdout(io.StringIO()):
        second_code = main(["run", str(manifest_path)])
    second = {path.name: path.read_bytes() for path in out_dir.iterdir()}

    ok = first_code == 0 and second_code == 0
    ok = ok and first == second
    ok = ok and "summary.json" in first

    summary = json.loads(first["summary.json"])
    tallies = {stage["name"]: stage for stage in summary["stages"]}
    lang = tallies["filter-lang"]
    ok = ok and lang["in"] == lang["out"] + lang["rejected"] == 10
    ok = ok and lang["rejected"] == 5
    clean = tallies["clean"]
    ok = ok and clean["in"] == clean["out"] and clean["rejected"] == 0
    chunk = tallies["chunk"]
    ok = ok and chunk["rejected"] == 0 and chunk["out"] >= chunk["in"] == 5
    mask = tallies["mask"]
    ok = ok and mask["in"] == mask["out"] == chunk["out"]

    ok = ok and time.perf_counter() - start < 60.0
    _report(10, "end-to-end determinism", ok)


def test_criterion_11_report_formatting():
    curves = [
        LearningCurve("model-a", ((0.0, 0.6842), (10.0, 0.9260))),
        LearningCurve("model-b", ((0.0, 0.67624), (10.0, 0.8935))),
        LearningCurve("model-c", ((0.0, 0.57714), (10.0, 0.9103))),
        LearningCurve("model-d", ((0.0, 0.47788), (10.0, 0.7007))),
    ]
    report = build_report(curves, "benchmark")
    lead = report.rows[0]
    ok = lead.model_name == "model-a"
    ok = ok and f"{lead.max_f1:.4f}" == "0.9260"
    ok = ok and f"{lead.auc:.4f}" == "8.0510"
    ok = ok and lead.best_max_f1 and lead.best_auc
    ok = ok and not any(
        row.best_max_f1 or row.best_auc for row in report.rows[1:]
    )
    table = format_report_table(report)
    ok = ok and "0.9260*" in table and "8.0510*" in table
    _report(11, "report value formatting and best flags", ok)
