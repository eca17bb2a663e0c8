"""Corpus preparation for masked-language-model pretraining.

The package covers the path from raw document streams to training-ready
examples: ingestion of line-delimited document records, an n-gram
language gate, whitespace/control cleaning, sentence packing into
token-budgeted chunks, whole-word masking, learning-rate schedule math,
and benchmark scoring (F1, learning-curve AUC, model reports).

Each name below is imported from its module on first use, so a process
loads only the modules it uses (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chunking": (
        "Chunk",
        "chunk_document",
        "iter_chunks",
        "pack_chunks",
        "split_sentences",
    ),
    "cleaning": ("CleanPolicy", "clean_text"),
    "corpus": (
        "CorpusStats",
        "DocKind",
        "RawDocument",
        "compute_stats",
        "ingest_stream",
        "read_documents",
        "split_validation",
        "write_documents",
    ),
    "errors": ("LexprepError",),
    "langid": (
        "LanguageProfile",
        "LanguageVerdict",
        "builtin_profiles",
        "filter_spanish",
        "gate",
        "identify_language",
    ),
    "masking": (
        "IGNORE_LABEL",
        "MaskingConfig",
        "MlmExample",
        "apply_mask",
        "mask_chunk",
        "select_words",
    ),
    "metrics": (
        "BenchmarkReport",
        "LearningCurve",
        "PredictionRecord",
        "build_report",
        "curve_auc",
        "f1_scores",
        "max_f1",
    ),
    "pipeline": ("PipelineManifest", "run_pipeline"),
    "schedule": ("TrainConfig", "effective_batch", "emit_schedule", "lr_at"),
    "tokenizers": ("Token", "TokenizerInterface", "VocabTokenizer"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
