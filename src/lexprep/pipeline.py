"""Manifest-driven composition of the corpus stages.

A manifest file names the input, the output directory, and an ordered
subset of stages (filter-lang, clean, chunk, mask) with their settings,
so a full preparation run is a single auditable artifact. A run is one
streaming pass in one process, which reads the input once (it may be a
pipe) and pushes each record into the first stage. A stage writes each
output to its numbered file and pushes it into the next stage before it
draws another, or writes a rejection line when it passes nothing on. The
chunk stage cuts a document's chunks one at a time, so a run holds one
chunk of a document, not all of them. All of a run's files are written as
one `corpus.published` group, so a run that fails publishes no stage file.
Re-running a manifest over the same input writes byte-identical files.
Each stage subcommand of the CLI is the same pass over one stage, with
the paths it is given (`run_stages`).
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Iterable
from operator import attrgetter
from pathlib import Path

from . import chunking
from .chunking import (
    DEFAULT_MAX_TOKENS,
    Chunk,
    chunk_budget,
    chunk_from_record,
    iter_chunks,
    validate_chunk_record,
)
from .cleaning import CleanPolicy, clean_text
from .corpus import (
    CorpusStats,
    RawDocument,
    compute_stats,
    document_to_line,
    ingest_stream,
    published,
    read_documents,
    read_lines,
    read_records,
    warn_skipped,
)
from .errors import MalformedRecord, ManifestError, StageFailure, check_type
from .langid import (
    DEFAULT_THRESHOLD,
    LanguageProfile,
    builtin_profiles,
    check_gate,
    check_threshold,
    gate,
    load_profiles,
)
from .masking import IGNORE_LABEL, MaskingConfig, MlmExample, mask_chunk
from .tokenizers import VocabTokenizer
from .values import FrozenValue

STAGE_NAMES = ("filter-lang", "clean", "chunk", "mask")
_DOC_STAGES = ("filter-lang", "clean")

SUMMARY_NAME = "summary.json"


def validate_stages(stages: tuple[str, ...]) -> None:
    """Check the order rule: known stages, each listed once, in order.

    Document stages come first (their input is documents), then optionally
    chunk, then optionally mask, which consumes chunks and so needs chunk
    right before it.
    """
    for at, name in enumerate(stages):
        if name not in STAGE_NAMES:
            known = f"expected a subset of {STAGE_NAMES}"
            raise ManifestError(f"unknown stage {reprlib.repr(name)}; {known}")
        if name in stages[:at]:
            listed = reprlib.repr(stages)
            raise ManifestError(f"stage {name!r} is listed twice in {listed}")
        if name in _DOC_STAGES and "chunk" in stages[:at]:
            raise ManifestError(f"document stage {name!r} comes after 'chunk'")
        if name == "mask" and stages[at - 1 : at] != ("chunk",):
            raise ManifestError("stage 'mask' needs 'chunk' right before it")


_REQUIRED = ("input_path", "output_dir", "stages")
# The field that each `filter-lang` and `chunk` setting of a manifest sets.
_SECTION_FIELDS = {
    "filter-lang": {
        "language": "language",
        "threshold": "threshold",
        "profiles": "profiles_path",
    },
    "chunk": {"max_tokens": "max_tokens", "tokenizer": "tokenizer_path"},
}
# The settings each section may give: `clean` and `mask` give their type's
# fields, less the seed, which a manifest gives once, at the top level.
_SECTION_KEYS = {
    **_SECTION_FIELDS,
    "clean": set(CleanPolicy.__slots__),
    "mask": set(MaskingConfig.__slots__) - {"seed"},
}
_PATH_FIELDS = {"input_path", "output_dir", "profiles_path", "tokenizer_path"}


class PipelineManifest(FrozenValue):
    """Everything that determines a run: input, stages, settings, seed."""

    __slots__ = (
        "input_path", "output_dir", "stages", "seed", "language", "threshold",
        "profiles_path", "clean_policy", "max_tokens", "tokenizer_path", "masking",
    )

    def __init__(
        self,
        input_path: Path,
        output_dir: Path,
        stages: tuple[str, ...],
        seed: int = 0,
        language: str = "es",
        threshold: float = DEFAULT_THRESHOLD,
        profiles_path: Path | None = None,
        clean_policy: CleanPolicy = CleanPolicy(),
        max_tokens: int = DEFAULT_MAX_TOKENS,
        tokenizer_path: Path | None = None,
        masking: MaskingConfig = MaskingConfig(),
    ):
        validate_stages(stages)
        for name, value, kind in (
            ("seed", seed, int),
            ("max_tokens", max_tokens, int),
            ("language", language, str),
            ("clean_policy", clean_policy, CleanPolicy),
            ("masking", masking, MaskingConfig),
        ):
            check_type(name, value, kind)
        check_threshold(threshold)
        # A run masks with the manifest's seed.
        rates = (masking.mask_rate, masking.mask_prob, masking.random_prob)
        masking = MaskingConfig(*rates, seed)
        self._set_fields(
            input_path, output_dir, stages, seed, language, threshold,
            profiles_path, clean_policy, max_tokens, tokenizer_path, masking,
        )

    @classmethod
    def from_record(cls, record: object, base: Path | None = None) -> "PipelineManifest":
        """Build a manifest from its JSON record.

        Relative paths resolve against `base` (the manifest's directory),
        so a manifest stays valid wherever it is invoked from. Unknown
        keys and ill-typed values are rejected: a typo must not change a run.
        """
        try:
            check_type("a manifest", record, dict)
            if unknown := set(record) - {*_REQUIRED, "seed", *STAGE_NAMES}:
                shown = reprlib.repr(sorted(unknown))
                raise ManifestError(f"unknown manifest keys: {shown}")
            # The top-level settings: the required ones, and the seed if given.
            given = {key: record[key] for key in {*_REQUIRED, *record} - {*STAGE_NAMES}}
            check_type("stages", given["stages"], list)
            given["stages"] = tuple(given["stages"])
            sections = {name: record.get(name, {}) for name in STAGE_NAMES}
            for name, settings in sections.items():
                check_type(f"the {name} settings", settings, dict)
                for key in settings:
                    if key not in _SECTION_KEYS[name]:
                        shown = reprlib.repr(key)
                        raise ManifestError(f"unknown {name} setting {shown}")
            for name, fields_by_key in _SECTION_FIELDS.items():
                for key, value in sections[name].items():
                    given[fields_by_key[key]] = value
            for key in _PATH_FIELDS & given.keys():
                check_type(key, given[key], str)
                given[key] = (base or Path()) / given[key]
            policy = CleanPolicy(**sections["clean"])
            masking = MaskingConfig(**sections["mask"])
            return cls(**given, clean_policy=policy, masking=masking)
        except KeyError as exc:
            raise ManifestError(f"manifest is missing required key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"bad manifest: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineManifest":
        path = Path(path)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ManifestError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_record(record, base=path.parent)


def _profiles(manifest: PipelineManifest) -> list[LanguageProfile]:
    """The gate's profiles, checked against the manifest's settings."""
    if manifest.profiles_path is not None:
        profiles = load_profiles(manifest.profiles_path)
    else:
        profiles = list(builtin_profiles())
    check_gate(profiles, manifest.language, manifest.threshold)
    return profiles


def _load_tokenizer(manifest: PipelineManifest) -> VocabTokenizer:
    if manifest.tokenizer_path is not None:
        return VocabTokenizer.from_file(manifest.tokenizer_path)
    return VocabTokenizer()


def _chunker(manifest: PipelineManifest) -> VocabTokenizer:
    tokenizer = _load_tokenizer(manifest)
    chunk_budget(tokenizer, manifest.max_tokens)
    return tokenizer


# A stage maps one record to the records it passes on, which may be lazy
# (the chunk stage cuts each chunk as it is drawn), and the rejection record,
# written iff none is passed on; None for a stage that drops no record.
_StageResult = tuple[Iterable, dict | None]


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
    # Split through the module, so that a `split_sentences` replaced there
    # (to trace it) is the one that runs.
    sentences = chunking.split_sentences(doc.text)
    record = doc.to_record()
    record["reject_reason"] = "no sentences to pack"
    return iter_chunks(sentences, tokenizer, manifest.max_tokens, doc.id), record


def _mask(
    manifest: PipelineManifest, tokenizer: VocabTokenizer, chunk: Chunk | dict
) -> _StageResult:
    # A chunk from the chunk stage in memory carries its token ids, so it is
    # neither decoded nor tokenized again; a record read from a chunk file is.
    if isinstance(chunk, dict):
        chunk = chunk_from_record(chunk, tokenizer)
    return [mask_chunk(chunk, tokenizer, manifest.masking)], None


def _masked_positions(example: MlmExample) -> int:
    return len(example.labels) - example.labels.count(IGNORE_LABEL)


# Per stage: what it builds once per run from the manifest, and the
# callable that maps one record, given the manifest and that set-up.
_STAGE_SETUP = {
    "filter-lang": _profiles,
    "clean": attrgetter("clean_policy"),
    "chunk": _chunker,
    "mask": _load_tokenizer,
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


# The JSON text of the ids on mask lines, kept for at most ID_TEXT_LIMIT
# ids (the bundled vocabulary and IGNORE_LABEL fill 355 entries); an id
# past the cap is formatted each time it is written. A module constant,
# not an option: the table changes no byte of a line.
ID_TEXT_LIMIT = 32768


class _IdTexts(dict):
    def __missing__(self, id_: int) -> str:
        text = str(id_)
        if len(self) < ID_TEXT_LIMIT:
            self[id_] = text
        return text


_id_texts = _IdTexts()
_id_text = _id_texts.__getitem__


def _to_line(record) -> str:
    if isinstance(record, RawDocument):
        return document_to_line(record)
    if isinstance(record, MlmExample):
        # `json.dumps(record.to_record(), ensure_ascii=False)`, byte for byte,
        # with each int id's text (`int.__repr__`) taken from the table.
        return (
            f'{{"doc_id": {json.dumps(record.doc_id, ensure_ascii=False)}, '
            f'"seq": {record.seq}, '
            f'"input_ids": [{", ".join(map(_id_text, record.input_ids))}], '
            f'"labels": [{", ".join(map(_id_text, record.labels))}]}}'
        )
    return json.dumps(record.to_record(), ensure_ascii=False)


class _StagePass:
    """One stage during a run: its runner, set-up, files and tallies.

    `push` runs the stage on one record. `paths` holds the output and the
    rejection file (os.devnull to only count rejections); `run_stages`
    opens them and sets `out_handle` and `rej_handle`, links the pass to
    the `next` one, and gives the last document pass the `stats` to add
    its outputs to.
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
        self.paths = paths
        self.next: _StagePass | None = None
        self.stats: CorpusStats | None = None
        self.tallies = {"in": 0, "out": 0, "rejected": 0}
        self.extra = _OUTPUT_TALLIES.get(name)
        if self.extra is not None:
            self.tallies[self.extra[0]] = 0

    def push(self, record) -> None:
        """Run the stage on one record; write, count and pass on each output.

        Each output is drawn, written and pushed through every later pass
        before the next one is drawn, so a stage whose outputs are lazy
        holds one at a time. A failure to run the stage or to draw an
        output names this stage; a later stage's failure passes through.
        """
        try:
            outputs, rejection = self.runner(self.manifest, self.setup, record)
            outputs = iter(outputs)
        except Exception as exc:
            raise StageFailure(self.name, exc) from exc
        tallies, stats, after = self.tallies, self.stats, self.next
        tallies["in"] += 1
        key, amount = self.extra or (None, None)
        write, passed = self.out_handle.write, 0
        while True:
            try:
                output = next(outputs, None)  # no stage passes on None
            except Exception as exc:
                raise StageFailure(self.name, exc) from exc
            if output is None:
                break
            # Two writes: joining the newline on would copy the line.
            write(_to_line(output))
            write("\n")
            passed += 1
            if key is not None:
                tallies[key] += amount(output)
            if stats is not None:
                stats.add(output)
            if after is not None:
                after.push(output)
        tallies["out"] += passed
        if not passed and rejection is not None:
            self.rej_handle.write(json.dumps(rejection, ensure_ascii=False) + "\n")
            tallies["rejected"] += 1


def run_stages(
    manifest: PipelineManifest,
    plan: list[tuple[str, tuple[Path, ...]]],
    strict: bool = False,
) -> tuple[list[dict], CorpusStats, CorpusStats]:
    """The single pass: every input record pushed through every stage, then publish.

    `plan` lists each stage with its paths (see `_StagePass`); the manifest
    gives the input and the settings. Returns the stage reports and the stats
    of the documents read and of what the last document stage kept.
    """
    stages = [_StagePass(manifest, name, paths) for name, paths in plan]
    # Stats after the last document stage, or of the documents read if none.
    stats_before = stats_after = CorpusStats()
    for stage in reversed(stages):
        if stage.name in _DOC_STAGES:
            stage.stats = stats_after = CorpusStats()
            break
    malformed: list[MalformedRecord] = []
    paths = [path for stage in stages for path in stage.paths]
    with published(*paths) as handles:
        handles = iter(handles)
        for stage, after in zip(stages, [*stages[1:], None]):
            stage.out_handle, stage.rej_handle = next(handles), next(handles)
            stage.next = after
        path, first = manifest.input_path, stages[0]
        if first.name == "mask":
            for record in read_records(path, validate_chunk_record, strict, malformed):
                first.push(record)
        else:
            for doc in read_documents(path, strict, malformed):
                stats_before.add(doc)
                first.push(doc)
    warn_skipped(malformed)
    reports = [
        {"name": stage.name, "output": stage.paths[0].name, **stage.tallies}
        for stage in stages
    ]
    reports[0]["malformed"] = len(malformed)
    return reports, stats_before, stats_after


def run_pipeline(manifest: PipelineManifest, strict: bool = False) -> dict:
    """Execute the manifest and return (and persist) the run summary.

    Every stage writes `NN-<name>.jsonl` plus `NN-<name>.rejected.jsonl`
    in the output directory; the summary records in/out/rejected per
    stage, the malformed input lines the first stage skipped, and corpus
    stats before and after the document-level stages. A failed run
    publishes no stage file. With zero stages the input is copied through
    unchanged, and the stats are counted as it is copied.
    """
    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    if manifest.stages:
        plan = []
        for index, name in enumerate(manifest.stages, start=1):
            stem = f"{index:02d}-{name}"
            names = (f"{stem}.jsonl", f"{stem}.rejected.jsonl")
            plan.append((name, tuple(manifest.output_dir / n for n in names)))
        stage_reports, stats_before, stats_after = run_stages(manifest, plan, strict)
        final_output = stage_reports[-1]["output"]
    else:
        final_output = "00-input.jsonl"
        malformed: list[MalformedRecord] = []
        # Each line is copied as it is read, line end and all, and counted; so
        # the input is read once and a failed count publishes no copy. (A line
        # read is never empty, so `write` returns a true length.)
        with published(manifest.output_dir / final_output) as (copy,):
            source = read_lines(manifest.input_path)
            lines = (copy.write(line) and line for line in source)
            stats_before = compute_stats(ingest_stream(lines, strict, malformed))
        warn_skipped(malformed)
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
    text = json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2)
    with published(manifest.output_dir / SUMMARY_NAME) as (handle,):
        handle.write(text + "\n")
    return summary
