"""Manifest-driven composition of the corpus stages.

A manifest file names the input, the output directory, and an ordered
subset of stages (filter-lang, clean, chunk, mask) with their settings,
so a full preparation run is a single auditable artifact. A run is one
streaming pass: each document read from the input goes through the
stages in order, in memory, and every stage writes its output and
rejection lines (one numbered file each) as it produces them. The files
are written under temporary names and renamed into place together once
the pass has finished, so a run that fails publishes no stage file.
Re-running a manifest over the same input writes byte-identical files.
Each stage subcommand of the CLI is the same pass over one stage, with
the paths it is given (`run_stages`).
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

from .chunking import (
    DEFAULT_MAX_TOKENS,
    Chunk,
    chunk_document,
    chunk_from_record,
    read_chunk_records,
)
from .cleaning import CleanPolicy, clean_text
from .corpus import (
    CorpusStats,
    RawDocument,
    compute_stats,
    document_to_line,
    read_documents,
)
from .errors import MalformedRecord, ManifestError, StageFailure
from .langid import (
    DEFAULT_THRESHOLD,
    LanguageProfile,
    builtin_profiles,
    gate,
    load_profiles,
)
from .masking import IGNORE_LABEL, MaskingConfig, MlmExample, mask_chunk
from .tokenizers import VocabTokenizer

STAGE_NAMES = ("filter-lang", "clean", "chunk", "mask")
_DOC_STAGES = ("filter-lang", "clean")

SUMMARY_NAME = "summary.json"

LOG = logging.getLogger("lexprep")


def validate_stages(stages: tuple[str, ...]) -> None:
    """Check stage names, uniqueness, and ordering dependencies.

    Document-level stages must precede chunk (their input is documents);
    mask consumes chunks, so it requires chunk and must follow it.
    """
    for name in stages:
        if name not in STAGE_NAMES:
            raise ManifestError(
                f"unknown stage {name!r}; expected a subset of {STAGE_NAMES}"
            )
    if len(set(stages)) != len(stages):
        raise ManifestError(f"stages listed twice in {stages}")
    if "chunk" in stages:
        chunk_at = stages.index("chunk")
        for name in _DOC_STAGES:
            if name in stages and stages.index(name) > chunk_at:
                raise ManifestError(f"stage {name!r} must come before 'chunk'")
    if "mask" in stages:
        if "chunk" not in stages:
            raise ManifestError("stage 'mask' requires 'chunk' before it")
        if stages.index("mask") < stages.index("chunk"):
            raise ManifestError("stage 'mask' must come after 'chunk'")


@dataclass(frozen=True)
class PipelineManifest:
    """Everything that determines a run: input, stages, settings, seed."""

    input_path: Path
    output_dir: Path
    stages: tuple[str, ...]
    seed: int = 0
    language: str = "es"
    threshold: float = DEFAULT_THRESHOLD
    profiles_path: Path | None = None
    clean_policy: CleanPolicy = field(default=CleanPolicy())
    max_tokens: int = DEFAULT_MAX_TOKENS
    tokenizer_path: Path | None = None
    masking: MaskingConfig = field(default=MaskingConfig())

    def __post_init__(self):
        validate_stages(self.stages)

    @classmethod
    def from_record(cls, record: dict, base: Path | None = None) -> "PipelineManifest":
        """Build a manifest from its JSON record.

        Relative paths resolve against `base` (the manifest's directory),
        so a manifest stays valid wherever it is invoked from. Unknown
        keys are rejected: a typo must not silently change a run.
        """

        def resolve(value: str | None) -> Path | None:
            if value is None:
                return None
            path = Path(value)
            if base is not None and not path.is_absolute():
                path = base / path
            return path

        known = {"input_path", "output_dir", "stages", "seed", *STAGE_NAMES}
        unknown = set(record) - known
        if unknown:
            raise ManifestError(f"unknown manifest keys: {sorted(unknown)}")
        try:
            input_path = resolve(record["input_path"])
            output_dir = resolve(record["output_dir"])
            stages = tuple(record["stages"])
        except KeyError as exc:
            raise ManifestError(f"manifest is missing required key {exc}") from exc
        seed = int(record.get("seed", 0))

        lang_cfg = dict(record.get("filter-lang", {}))
        clean_cfg = dict(record.get("clean", {}))
        chunk_cfg = dict(record.get("chunk", {}))
        mask_cfg = dict(record.get("mask", {}))
        try:
            manifest = cls(
                input_path=input_path,
                output_dir=output_dir,
                stages=stages,
                seed=seed,
                language=lang_cfg.pop("language", "es"),
                threshold=float(lang_cfg.pop("threshold", DEFAULT_THRESHOLD)),
                profiles_path=resolve(lang_cfg.pop("profiles", None)),
                clean_policy=CleanPolicy(**clean_cfg),
                max_tokens=int(chunk_cfg.pop("max_tokens", DEFAULT_MAX_TOKENS)),
                tokenizer_path=resolve(chunk_cfg.pop("tokenizer", None)),
                masking=MaskingConfig(seed=seed, **mask_cfg),
            )
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"bad manifest settings: {exc}") from exc
        if lang_cfg:
            raise ManifestError(f"unknown filter-lang settings: {sorted(lang_cfg)}")
        if chunk_cfg:
            raise ManifestError(f"unknown chunk settings: {sorted(chunk_cfg)}")
        return manifest

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineManifest":
        path = Path(path)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ManifestError(f"{path} must hold a JSON object")
        return cls.from_record(record, base=path.parent)


def _profiles(manifest: PipelineManifest) -> list[LanguageProfile]:
    if manifest.profiles_path is not None:
        return load_profiles(manifest.profiles_path)
    return list(builtin_profiles())


def _load_tokenizer(manifest: PipelineManifest) -> VocabTokenizer:
    if manifest.tokenizer_path is not None:
        return VocabTokenizer.from_file(manifest.tokenizer_path)
    return VocabTokenizer()


def _masker(manifest: PipelineManifest) -> tuple[VocabTokenizer, MaskingConfig]:
    return _load_tokenizer(manifest), replace(manifest.masking, seed=manifest.seed)


# A stage maps one record to the records it passes on and, when it drops
# the record, the rejection record that says why.
_StageResult = tuple[list, dict | None]


def _filter_lang(
    manifest: PipelineManifest, profiles: list[LanguageProfile], doc: RawDocument
) -> _StageResult:
    ok, verdict = gate(
        doc.text, profiles, language=manifest.language, threshold=manifest.threshold
    )
    if ok:
        return [doc], None
    record = doc.to_record()
    record["verdict_language"] = verdict.language
    record["verdict_confidence"] = round(verdict.confidence, 6)
    return [], record


def _clean(
    manifest: PipelineManifest, policy: CleanPolicy, doc: RawDocument
) -> _StageResult:
    return [doc.replace_text(clean_text(doc.text, policy))], None


def _chunk(
    manifest: PipelineManifest, tokenizer: VocabTokenizer, doc: RawDocument
) -> _StageResult:
    chunks = chunk_document(doc, tokenizer, max_tokens=manifest.max_tokens)
    if chunks:
        return chunks, None
    record = doc.to_record()
    record["reject_reason"] = "no sentences to pack"
    return [], record


def _mask(
    manifest: PipelineManifest,
    masker: tuple[VocabTokenizer, MaskingConfig],
    chunk: Chunk | dict,
) -> _StageResult:
    # A chunk from the chunk stage in memory carries its token ids, so it is
    # neither decoded nor tokenized again; a record read from a chunk file is.
    tokenizer, config = masker
    if isinstance(chunk, dict):
        chunk = chunk_from_record(chunk, tokenizer)
    return [mask_chunk(chunk, tokenizer, config)], None


def _masked_positions(example: MlmExample) -> int:
    return sum(1 for label in example.labels if label != IGNORE_LABEL)


# Per stage: what it builds once per run from the manifest, and the
# callable that maps one record, given the manifest and that set-up.
_STAGE_SETUP = {
    "filter-lang": _profiles,
    "clean": attrgetter("clean_policy"),
    "chunk": _load_tokenizer,
    "mask": _masker,
}
_STAGE_RUNNERS = {
    "filter-lang": _filter_lang,
    "clean": _clean,
    "chunk": _chunk,
    "mask": _mask,
}
# Stage tallies beyond in/out/rejected: name and per-output amount.
_OUTPUT_TALLIES = {
    "chunk": ("tokens_total", attrgetter("token_count")),
    "mask": ("masked_positions", _masked_positions),
}


def _temp_path(path: Path) -> Path:
    # A symlink, device or pipe is written through, not replaced by a rename.
    if path.is_symlink() or path.exists() and not path.is_file():
        return path
    return path.with_name(f".{path.name}.tmp")


def _to_line(record) -> str:
    if isinstance(record, RawDocument):
        return document_to_line(record)
    return json.dumps(record.to_record(), ensure_ascii=False)


class _StagePass:
    """One stage during a run: its runner, set-up, files and tallies.

    Calling it runs the stage on one record. `paths` holds the output and
    the rejection file (os.devnull to only count rejections); `_temp_path`
    says where each is written until `publish`.
    """

    def __init__(self, manifest: PipelineManifest, name: str, paths=()):
        self.manifest = manifest
        self.name = name
        # Looked up when the run starts, so a runner replaced in the map
        # (to trace or test it) is the one that runs.
        self.runner = _STAGE_RUNNERS[name]
        try:
            self.setup = _STAGE_SETUP[name](manifest)
        except Exception as exc:
            raise StageFailure(name, exc) from exc
        self.finals = paths
        self.temps = tuple(map(_temp_path, paths))
        self.tallies = {"in": 0, "out": 0, "rejected": 0}
        self.extra = _OUTPUT_TALLIES.get(name)
        if self.extra is not None:
            self.tallies[self.extra[0]] = 0
        # Set on the last document stage of a run, to count what it keeps.
        self.stats: CorpusStats | None = None

    def __call__(self, record) -> _StageResult:
        try:
            return self.runner(self.manifest, self.setup, record)
        except Exception as exc:
            raise StageFailure(self.name, exc) from exc

    def open(self, stack: ExitStack) -> None:
        self.out_handle, self.rej_handle = (
            stack.enter_context(open(path, "w", encoding="utf-8"))
            for path in self.temps
        )

    def write(self, result: _StageResult) -> list:
        """Write and count one record's result; return its outputs."""
        outputs, rejection = result
        self.tallies["in"] += 1
        for output in outputs:
            self.out_handle.write(_to_line(output) + "\n")
        self.tallies["out"] += len(outputs)
        if self.extra is not None:
            key, amount = self.extra
            self.tallies[key] += sum(map(amount, outputs))
        if self.stats is not None:
            for doc in outputs:
                self.stats.add(doc)
        if rejection is not None:
            self.rej_handle.write(json.dumps(rejection, ensure_ascii=False) + "\n")
            self.tallies["rejected"] += 1
        return outputs

    def feed(self, records: list) -> list:
        """Run the stage on each record, write its lines, return its outputs."""
        passed = []
        for record in records:
            passed += self.write(self(record))
        return passed

    def discard(self) -> None:
        for temp, final in zip(self.temps, self.finals):
            if temp != final:
                temp.unlink(missing_ok=True)

    def publish(self) -> None:
        for temp, final in zip(self.temps, self.finals):
            if temp != final:
                os.replace(temp, final)


# Set only in a `jobs > 1` worker process, by its initializer: the first stage.
_worker_stage: _StagePass | None = None


def _start_worker(manifest: PipelineManifest, name: str) -> None:
    global _worker_stage
    _worker_stage = _StagePass(manifest, name)


def _run_in_worker(record) -> _StageResult:
    return _worker_stage(record)


def run_stages(
    manifest: PipelineManifest,
    plan: list[tuple[str, tuple[Path, ...]]],
    strict: bool = False,
    jobs: int = 1,
) -> tuple[list[dict], CorpusStats | None]:
    """The single pass: every input record through every stage, then publish.

    `plan` lists each stage with its paths (see `_StagePass`); the manifest
    gives the input and the settings. Returns the stage reports and the
    stats of what the last document stage kept (None without one).
    """
    stages = [_StagePass(manifest, name, paths) for name, paths in plan]
    doc_stages = [stage for stage in stages if stage.name in _DOC_STAGES]
    stats = None
    if doc_stages:
        stats = doc_stages[-1].stats = CorpusStats()
    first = stages[0]
    malformed: list[MalformedRecord] = []
    try:
        with ExitStack() as stack:
            for stage in stages:
                stage.open(stack)
            read = read_chunk_records if first.name == "mask" else read_documents
            records = read(manifest.input_path, strict=strict, error_sink=malformed)
            results = map(first, records)
            if jobs > 1:
                # Imported here so that a serial run never loads the pool.
                # Each record is mapped alone (masking seeds its RNG per
                # chunk), so the workers' results equal the serial ones.
                from concurrent.futures import ProcessPoolExecutor

                pool = ProcessPoolExecutor(
                    jobs, initializer=_start_worker, initargs=(manifest, first.name)
                )
                results = stack.enter_context(pool).map(
                    _run_in_worker, records, chunksize=64
                )
            for result in results:
                batch = first.write(result)
                for stage in stages[1:]:
                    batch = stage.feed(batch)
                # Keep peak memory at one record's: drop its outputs first.
                del result, batch
    except BaseException:
        for stage in stages:
            stage.discard()
        raise
    for stage in stages:
        stage.publish()
    for err in malformed:
        LOG.warning("skipped line %d: %s", err.line_number, err.reason)
    reports = [
        {"name": stage.name, "output": stage.finals[0].name, **stage.tallies}
        for stage in stages
    ]
    reports[0]["malformed"] = len(malformed)
    return reports, stats


def run_pipeline(manifest: PipelineManifest, strict: bool = False) -> dict:
    """Execute the manifest and return (and persist) the run summary.

    Every stage writes `NN-<name>.jsonl` plus `NN-<name>.rejected.jsonl`
    in the output directory; the summary records in/out/rejected per
    stage, the malformed input lines the first stage skipped, and corpus
    stats before and after the document-level stages. A failed run
    publishes no stage file. With zero stages the input is copied through
    unchanged.
    """
    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    stats_before = compute_stats(read_documents(manifest.input_path, strict=strict))

    if manifest.stages:
        plan = []
        for index, name in enumerate(manifest.stages, start=1):
            stem = f"{index:02d}-{name}"
            names = (f"{stem}.jsonl", f"{stem}.rejected.jsonl")
            plan.append((name, tuple(manifest.output_dir / n for n in names)))
        stage_reports, stats_after = run_stages(manifest, plan, strict)
        stats_after = stats_after or stats_before
        final_output = stage_reports[-1]["output"]
    else:
        final_output = "00-input.jsonl"
        shutil.copyfile(manifest.input_path, manifest.output_dir / final_output)
        stage_reports, stats_after = [], stats_before

    summary = {
        "input_path": str(manifest.input_path),
        "seed": manifest.seed,
        "documents_in": stats_before.document_count,
        "stages": stage_reports,
        "stats_before": stats_before.to_record(),
        "stats_after": stats_after.to_record(),
        "final_output": final_output,
    }
    summary_path = manifest.output_dir / SUMMARY_NAME
    summary_path.write_text(
        json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return summary
