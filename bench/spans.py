"""Per-layer metrics from the span file `trace_run.py` writes.

A span's self time is its duration minus the durations of its children.
Layers are lexprep's modules; the `pipeline` layer owns the process span,
`run_pipeline` and the stage runners, so its self time is orchestration work
(JSON encode/decode and file writes) that no other layer's span covers.
Every second of the traced process is in exactly one span's self time.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

STAGES = ("filter-lang", "clean", "chunk", "mask")
TOKENIZE_CALLERS = ("pack_chunks", "chunk_from_record", "select_words", "apply_mask")
_CALLER_SPANS = {
    "chunking.pack_chunks": "pack_chunks",
    "chunking.chunk_from_record": "chunk_from_record",
    "masking.select_words": "select_words",
    "masking.apply_mask": "apply_mask",
}

# Self-time groups that together cover the whole traced process.
LAYER_GROUPS = (
    "tokenizers",
    "chunking.split_sentences",
    "chunking",
    "langid",
    "masking",
    "cleaning",
    "corpus",
    "pipeline",
)


def _group(name: str) -> str:
    if name == "chunking.split_sentences":
        return name
    if name == "process" or name.startswith("pipeline."):
        return "pipeline"
    return name.split(".", 1)[0]


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def self_times(spans: list) -> tuple[Counter, Counter, Counter]:
    """Self seconds, inclusive seconds and call counts by span name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _parent), children in zip(spans, child_time):
        self_s[name] += end - start - children
        inclusive[name] += end - start
        calls[name] += 1
    return self_s, inclusive, calls


def layer_metrics(trace: dict, outputs: dict, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `outputs` holds the facts the output check read from the stage files
    (`chunk_tokens`, `fill_mean`, `realized_rate`); `run_s` is the traced
    run's wall time from spawn to exit, which the self times account for.
    """
    spans = trace["spans"]
    counters = Counter(trace["counters"])
    self_s, inclusive, calls = self_times(spans)

    tokenize_by_caller: Counter = Counter()
    read_outside_stats = 0.0
    for name, start, end, parent in spans:
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "tokenizers.tokenize":
            tokenize_by_caller[_CALLER_SPANS.get(parent_name, "other")] += 1
        elif name == "corpus.read" and parent_name != "corpus.stats":
            read_outside_stats += end - start

    chunk_tokens = outputs["chunk_tokens"]
    gate_docs = counters["gate_docs"]
    clean_in = counters["clean_bytes_in"]
    m = {
        "tokenizers.tokenize_s": self_s["tokenizers.tokenize"],
        "tokenizers.calls": calls["tokenizers.tokenize"],
        "tokenizers.tokens_produced": counters["tokens_produced"],
        "tokenizers.amplification": (
            counters["tokens_produced"] / chunk_tokens if chunk_tokens else 0.0
        ),
    }
    for caller in TOKENIZE_CALLERS:
        m[f"tokenizers.calls.{caller}"] = tokenize_by_caller[caller]
    m.update(
        {
            "chunking.split_sentences_s": self_s["chunking.split_sentences"],
            "chunking.pack_chunks_s": self_s["chunking.pack_chunks"],
            "chunking.chunk_from_record_s": self_s["chunking.chunk_from_record"],
            "chunking.sentences": counters["sentences"],
            "chunking.chunks": counters["chunks"],
            "chunking.fill_mean": outputs["fill_mean"],
            "chunking.empty_docs": counters["empty_docs"],
            "langid.gate_s": inclusive["langid.gate"],
            "langid.text_ngrams_s": self_s["langid.text_ngrams"],
            "langid.rank_ngrams_s": self_s["langid.rank_ngrams"],
            "langid.distance_s": self_s["langid.identify_language"],
            "langid.docs": gate_docs,
            "langid.kept_frac": counters["gate_kept"] / gate_docs if gate_docs else 0.0,
            "masking.mask_chunk_s": self_s["masking.mask_chunk"],
            "masking.select_words_s": self_s["masking.select_words"],
            "masking.apply_mask_s": self_s["masking.apply_mask"],
            "masking.examples": calls["masking.mask_chunk"],
            "masking.realized_rate": outputs["realized_rate"],
            "cleaning.clean_text_s": self_s["cleaning.clean_text"],
            "cleaning.bytes_removed_frac": (
                (clean_in - counters["clean_bytes_out"]) / clean_in if clean_in else 0.0
            ),
            "corpus.read_s": read_outside_stats,
            "corpus.write_s": self_s["corpus.write"],
            "corpus.stats_s": inclusive["corpus.stats"],
            "corpus.malformed": trace["malformed"],
        }
    )
    for stage in STAGES:
        m[f"pipeline.stage_s.{stage}"] = inclusive[f"pipeline.stage.{stage}"]
    by_group = group_self_times(self_s)
    m["pipeline.self_s"] = by_group["pipeline"]
    m["pipeline.traced_run_s"] = run_s
    m["pipeline.accounted_frac"] = sum(by_group.values()) / run_s
    return m


def group_self_times(self_s: Counter) -> dict[str, float]:
    groups: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        groups[_group(name)] += seconds
    return {group: groups.get(group, 0.0) for group in LAYER_GROUPS}


def top_layers(trace: dict) -> list[tuple[str, float]]:
    """Layer groups by self time, largest first, as shares of the process."""
    spans = trace["spans"]
    self_s, _, _ = self_times(spans)
    total = spans[0][2] - spans[0][1]
    groups = group_self_times(self_s)
    return sorted(((g, s / total) for g, s in groups.items()), key=lambda i: -i[1])
