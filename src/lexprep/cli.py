"""Command-line interface: one subcommand per stage plus utilities.

Exit codes: 0 on success, 1 on usage errors (bad flags or arguments),
2 on data errors (malformed input, missing files, contract violations).
Machine-readable results go to stdout; progress and warnings to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .chunking import DEFAULT_MAX_TOKENS, chunk_document, chunk_from_record
from .cleaning import CleanPolicy, clean_text
from .corpus import (
    compute_stats,
    document_to_line,
    parse_records,
    read_documents,
    validation_indices,
)
from .errors import LexprepError, MalformedRecord
from .langid import (
    DEFAULT_THRESHOLD,
    build_profiles_from_dir,
    builtin_profiles,
    gate,
    load_profiles,
    save_profiles,
)
from .masking import (
    DEFAULT_KEEP_PROB,
    DEFAULT_MASK_PROB,
    DEFAULT_MASK_RATE,
    DEFAULT_RANDOM_PROB,
    IGNORE_LABEL,
    MaskingConfig,
    mask_chunk,
)
from .metrics import (
    build_report,
    f1_scores,
    format_report_table,
    load_curves_csv,
    load_predictions_jsonl,
    write_report_csv,
)
from .pipeline import PipelineManifest, run_pipeline
from .schedule import (
    DEFAULT_LR_PEAK,
    DEFAULT_WARMUP_FRAC,
    TrainConfig,
    emit_schedule,
)
from .tokenizers import VocabTokenizer

LOG = logging.getLogger("lexprep")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_tokenizer(path: str | None) -> VocabTokenizer:
    return VocabTokenizer.from_file(path) if path else VocabTokenizer()


def _load_lang_profiles(path: str | None):
    return load_profiles(path) if path else list(builtin_profiles())


def _emit(record: dict) -> None:
    print(json.dumps(record, ensure_ascii=False))


def _cmd_ingest(args) -> int:
    errors: list[MalformedRecord] = []
    count = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for doc in read_documents(args.input, strict=args.strict, error_sink=errors):
            out.write(document_to_line(doc) + "\n")
            count += 1
    for err in errors:
        LOG.warning("skipped line %d: %s", err.line_number, err.reason)
    _emit({"written": count, "skipped": len(errors)})
    return 0


def _cmd_stats(args) -> int:
    tokenizer = _load_tokenizer(args.tokenizer) if args.tokenizer else None
    stats = compute_stats(
        read_documents(args.input, strict=args.strict), tokenizer=tokenizer
    )
    _emit(stats.to_record())
    return 0


def _cmd_build_profiles(args) -> int:
    profiles = build_profiles_from_dir(args.seed_dir)
    save_profiles(profiles, args.output)
    _emit({"languages": [p.language for p in profiles], "output": args.output})
    return 0


def _cmd_filter_lang(args) -> int:
    profiles = _load_lang_profiles(args.profiles)
    rejected_path = args.rejected or args.output + ".rejected.jsonl"
    kept = rejected = 0
    with open(args.output, "w", encoding="utf-8") as out, open(
        rejected_path, "w", encoding="utf-8"
    ) as rej:
        for doc in read_documents(args.input, strict=args.strict):
            ok, verdict = gate(
                doc.text, profiles, language=args.language, threshold=args.threshold
            )
            if ok:
                out.write(document_to_line(doc) + "\n")
                kept += 1
            else:
                record = doc.to_record()
                record["verdict_language"] = verdict.language
                record["verdict_confidence"] = round(verdict.confidence, 6)
                rej.write(json.dumps(record, ensure_ascii=False) + "\n")
                rejected += 1
    _emit({"in": kept + rejected, "kept": kept, "rejected": rejected})
    return 0


def _cmd_clean(args) -> int:
    policy = CleanPolicy(
        collapse_spaces=not args.keep_space_runs,
        collapse_newlines=not args.keep_newline_runs,
        strip_control=not args.keep_control,
        trim_ends=not args.keep_ends,
    )
    count = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for doc in read_documents(args.input, strict=args.strict):
            cleaned = doc.replace_text(clean_text(doc.text, policy))
            out.write(document_to_line(cleaned) + "\n")
            count += 1
    _emit({"documents": count})
    return 0


def _cmd_chunk(args) -> int:
    tokenizer = _load_tokenizer(args.tokenizer)
    docs = chunks = empty = tokens_total = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for doc in read_documents(args.input, strict=args.strict):
            docs += 1
            produced = chunk_document(doc, tokenizer, max_tokens=args.max_tokens)
            if not produced:
                empty += 1
                continue
            for chunk in produced:
                out.write(json.dumps(chunk.to_record(), ensure_ascii=False) + "\n")
                chunks += 1
                tokens_total += chunk.token_count
    _emit(
        {
            "documents": docs,
            "chunks": chunks,
            "empty_documents": empty,
            "tokens_total": tokens_total,
        }
    )
    return 0


_MASK_WORKER: dict = {}


def _init_mask_worker(tokenizer_path: str | None, config: MaskingConfig) -> None:
    _MASK_WORKER["tokenizer"] = _load_tokenizer(tokenizer_path)
    _MASK_WORKER["config"] = config


def _mask_one_record(record: dict) -> tuple[str, int]:
    tokenizer = _MASK_WORKER["tokenizer"]
    config = _MASK_WORKER["config"]
    chunk = chunk_from_record(record, tokenizer)
    example = mask_chunk(chunk, tokenizer, config)
    selected = sum(1 for label in example.labels if label != IGNORE_LABEL)
    return json.dumps(example.to_record(), ensure_ascii=False), selected


def _chunk_record(record: object) -> dict:
    """The record itself if it has the fields of a chunk record."""
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    for name, kind in (("doc_id", str), ("seq", int), ("text", str)):
        if not isinstance(record.get(name), kind):
            raise ValueError(f"field {name!r} must be a {kind.__name__}")
    token_count = record.get("token_count")
    if token_count is not None and not isinstance(token_count, int):
        raise ValueError("field 'token_count' must be an int")
    return record


def _cmd_mask(args) -> int:
    config = MaskingConfig(
        mask_rate=args.mask_rate,
        mask_prob=args.mask_prob,
        random_prob=args.random_prob,
        keep_prob=args.keep_prob,
        seed=args.seed,
    )
    errors: list[MalformedRecord] = []
    examples = masked_positions = 0
    with open(args.input, encoding="utf-8") as lines, open(
        args.output, "w", encoding="utf-8"
    ) as out:
        records = (
            record
            for _, record in parse_records(lines, _chunk_record, args.strict, errors)
        )
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Per-chunk RNG derivation makes parallel output identical to
            # serial, so workers can mask independently in input order.
            with ProcessPoolExecutor(
                max_workers=args.jobs,
                initializer=_init_mask_worker,
                initargs=(args.tokenizer, config),
            ) as pool:
                results = pool.map(_mask_one_record, records, chunksize=64)
                for line, selected in results:
                    out.write(line + "\n")
                    examples += 1
                    masked_positions += selected
        else:
            _init_mask_worker(args.tokenizer, config)
            for record in records:
                line, selected = _mask_one_record(record)
                out.write(line + "\n")
                examples += 1
                masked_positions += selected
    for err in errors:
        LOG.warning("skipped line %d: %s", err.line_number, err.reason)
    _emit(
        {
            "examples": examples,
            "masked_positions": masked_positions,
            "skipped": len(errors),
        }
    )
    return 0


def _cmd_split_validation(args) -> int:
    # Two passes over the file, so only the sampled positions stay in
    # memory: the first draws them, the second routes each document.
    chosen = validation_indices(
        read_documents(args.input, strict=args.strict), args.count, args.seed
    )
    written = 0
    with open(args.train_output, "w", encoding="utf-8") as train, open(
        args.valid_output, "w", encoding="utf-8"
    ) as valid:
        for i, doc in enumerate(read_documents(args.input, strict=args.strict)):
            (valid if i in chosen else train).write(document_to_line(doc) + "\n")
            written += 1
    _emit({"train": written - len(chosen), "validation": len(chosen)})
    return 0


def _cmd_lr_curve(args) -> int:
    config = TrainConfig(
        total_steps=args.total_steps,
        lr_peak=args.peak_lr,
        warmup_frac=args.warmup_frac,
    )
    lines = ["step,lr"]
    lines += [f"{step:g},{lr:.12g}" for step, lr in emit_schedule(config, args.resolution)]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_eval(args) -> int:
    if args.curves:
        with open(args.curves, encoding="utf-8") as handle:
            curves = load_curves_csv(handle)
        report = build_report(curves, args.dataset)
        if args.format == "csv":
            sys.stdout.write(write_report_csv(report, sort_by=args.sort_by))
        else:
            print(format_report_table(report, sort_by=args.sort_by))
        return 0
    with open(args.predictions, encoding="utf-8") as handle:
        records = load_predictions_jsonl(handle)
    labels = frozenset(args.labels.split(",")) if args.labels else None
    score = f1_scores(records, averaging=args.averaging, labels=labels)
    _emit({"f1": score, "averaging": args.averaging, "examples": len(records)})
    return 0


def _cmd_run(args) -> int:
    manifest = PipelineManifest.from_file(args.manifest)
    summary = run_pipeline(manifest, strict=args.strict)
    print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexprep",
        description=(
            "Prepare document corpora for masked-language-model training: "
            "language gating, cleaning, chunking, whole-word masking, "
            "schedule math, and benchmark scoring."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first malformed record instead of skipping it",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes for mask"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate and normalize a document corpus")
    p.add_argument("input", help="JSONL documents")
    p.add_argument("output", help="normalized JSONL output")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="corpus totals as JSON on stdout")
    p.add_argument("input")
    p.add_argument("--tokenizer", help="vocabulary file; adds token totals")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("build-profiles", help="build language profiles from seed texts")
    p.add_argument("seed_dir", help="directory of <lang>.txt seed files")
    p.add_argument("output", help="profiles JSONL output")
    p.set_defaults(func=_cmd_build_profiles)

    p = sub.add_parser("filter-lang", help="keep documents passing the language gate")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--language", default="es", help="language code to keep")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--profiles", help="profiles JSONL (default: bundled)")
    p.add_argument("--rejected", help="audit stream path (default: OUTPUT.rejected.jsonl)")
    p.set_defaults(func=_cmd_filter_lang)

    p = sub.add_parser("clean", help="normalize whitespace and strip control characters")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--keep-space-runs", action="store_true")
    p.add_argument("--keep-newline-runs", action="store_true")
    p.add_argument("--keep-control", action="store_true")
    p.add_argument("--keep-ends", action="store_true")
    p.set_defaults(func=_cmd_clean)

    p = sub.add_parser("chunk", help="pack sentences into token-budgeted chunks")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS)
    p.add_argument("--tokenizer", help="vocabulary file (default: bundled)")
    p.set_defaults(func=_cmd_chunk)

    p = sub.add_parser("mask", help="whole-word masking over chunks")
    p.add_argument("input", help="chunks JSONL")
    p.add_argument("output", help="examples JSONL")
    p.add_argument("--mask-rate", type=float, default=DEFAULT_MASK_RATE)
    p.add_argument("--mask-prob", type=float, default=DEFAULT_MASK_PROB)
    p.add_argument("--random-prob", type=float, default=DEFAULT_RANDOM_PROB)
    p.add_argument("--keep-prob", type=float, default=DEFAULT_KEEP_PROB)
    p.add_argument("--tokenizer", help="vocabulary file (default: bundled)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("split-validation", help="reserve a uniform validation sample")
    p.add_argument("input")
    p.add_argument("train_output")
    p.add_argument("valid_output")
    p.add_argument("--count", type=int, required=True, help="validation size")
    p.set_defaults(func=_cmd_split_validation)

    p = sub.add_parser("lr-curve", help="emit the LR schedule as CSV (step, lr)")
    p.add_argument("--total-steps", type=int, required=True)
    p.add_argument("--resolution", type=int, default=101, help="number of samples")
    p.add_argument("--peak-lr", type=float, default=DEFAULT_LR_PEAK)
    p.add_argument("--warmup-frac", type=float, default=DEFAULT_WARMUP_FRAC)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_lr_curve)

    p = sub.add_parser("eval", help="score curves or predictions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--curves", help="CSV of model,epoch,f1")
    source.add_argument("--predictions", help="JSONL of prediction records")
    p.add_argument("--dataset", default="benchmark", help="name shown in the report")
    p.add_argument("--sort-by", choices=["max_f1", "auc", "model_name"])
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.add_argument("--averaging", choices=["micro", "macro"], default="micro")
    p.add_argument("--labels", help="comma-separated label universe")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="execute a pipeline manifest end to end")
    p.add_argument("manifest", help="manifest JSON file")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LexprepError, OSError, ValueError, KeyError) as exc:
        LOG.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
