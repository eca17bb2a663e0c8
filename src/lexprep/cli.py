"""Command-line interface: one subcommand per stage plus utilities.

Exit codes: 0 on success, 1 on usage errors (bad flags or arguments),
2 on data errors (malformed input, missing files, contract violations).
Machine-readable results go to stdout; progress and warnings to stderr.
Each command returns its result text, and `main` alone writes it, once the
command's files are published.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from . import corpus
from .cleaning import CleanPolicy
from .corpus import (
    compute_stats,
    document_to_line,
    logger,
    published,
    read_documents,
    read_lines,
    read_records,
    validation_indices,
    warn_skipped,
    write_documents,
)
from .errors import LexprepError, MalformedRecord
from .langid import build_profiles_from_dir, save_profiles
from .masking import MaskingConfig
from .pipeline import PipelineManifest, run_pipeline, run_stages
from .tokenizers import VocabTokenizer


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _given(**settings) -> dict:
    """The settings whose flag was given; the rest keep their owner's default."""
    return {name: value for name, value in settings.items() if value is not None}


def _cmd_ingest(args) -> str:
    errors: list[MalformedRecord] = []
    docs = read_documents(args.input, strict=args.strict, error_sink=errors)
    count = write_documents(args.output, docs)
    warn_skipped(errors)
    return json.dumps({"written": count, "skipped": len(errors)}, ensure_ascii=False) + "\n"


def _cmd_stats(args) -> str:
    tokenizer = VocabTokenizer.from_file(args.tokenizer) if args.tokenizer else None
    errors: list[MalformedRecord] = []
    docs = read_documents(args.input, strict=args.strict, error_sink=errors)
    stats = compute_stats(docs, tokenizer=tokenizer)
    warn_skipped(errors)
    return json.dumps(stats.to_record(), ensure_ascii=False) + "\n"


def _cmd_build_profiles(args) -> str:
    profiles = build_profiles_from_dir(args.seed_dir)
    save_profiles(profiles, args.output)
    record = {"languages": [p.language for p in profiles], "output": args.output}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _run_stage(args, name: str, summary: dict, rejected=os.devnull, **settings) -> str:
    """Run one stage from args.input to args.output; its summary is the result.

    `summary` maps each key of the summary line to the report tally it shows.
    """
    output = Path(args.output)
    # The manifest carries the settings; its stage list stays empty, since
    # a lone mask stage is no valid manifest.
    manifest = PipelineManifest(
        Path(args.input), output.parent, stages=(), seed=args.seed, **_given(**settings)
    )
    paths = (output, Path(rejected))
    (report,), _, _ = run_stages(manifest, [(name, paths)], args.strict)
    record = {key: report[tally] for key, tally in summary.items()}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _cmd_filter_lang(args) -> str:
    return _run_stage(
        args,
        "filter-lang",
        {"in": "in", "kept": "out", "rejected": "rejected"},
        rejected=args.rejected or args.output + ".rejected.jsonl",
        language=args.language,
        threshold=args.threshold,
        profiles_path=args.profiles,
    )


def _cmd_clean(args) -> str:
    policy = CleanPolicy(
        collapse_spaces=not args.keep_space_runs,
        collapse_newlines=not args.keep_newline_runs,
        strip_control=not args.keep_control,
        trim_ends=not args.keep_ends,
    )
    return _run_stage(args, "clean", {"documents": "out"}, clean_policy=policy)


def _cmd_chunk(args) -> str:
    # An empty document is counted, not written to a rejection file.
    summary = {
        "documents": "in",
        "chunks": "out",
        "empty_documents": "rejected",
        "tokens_total": "tokens_total",
    }
    return _run_stage(
        args,
        "chunk",
        summary,
        max_tokens=args.max_tokens,
        tokenizer_path=args.tokenizer,
    )


def _cmd_mask(args) -> str:
    config = MaskingConfig(
        **_given(
            mask_rate=args.mask_rate,
            mask_prob=args.mask_prob,
            random_prob=args.random_prob,
        )
    )
    summary = {
        "examples": "out",
        "masked_positions": "masked_positions",
        "skipped": "malformed",
    }
    return _run_stage(
        args, "mask", summary, tokenizer_path=args.tokenizer, masking=config
    )


def _cmd_split_validation(args) -> str:
    # Two passes over the file, so only the sampled positions stay in
    # memory: the first draws them, the second routes each document (and
    # warns of each skipped line). A pipe cannot be read twice, so the input
    # must be a regular file.
    if not stat.S_ISREG(os.stat(args.input).st_mode):
        raise ValueError(f"{args.input} is not a regular file; it is read twice")
    chosen = validation_indices(
        read_documents(args.input, strict=args.strict), args.count, args.seed
    )
    errors: list[MalformedRecord] = []
    docs = read_documents(args.input, strict=args.strict, error_sink=errors)
    written = 0
    with published(args.train_output, args.valid_output) as (train, valid):
        for i, doc in enumerate(docs):
            (valid if i in chosen else train).write(document_to_line(doc) + "\n")
            written += 1
    warn_skipped(errors)
    record = {"train": written - len(chosen), "validation": len(chosen)}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _cmd_lr_curve(args) -> str:
    # Imported here so that no other command loads it.
    from .schedule import TrainConfig, emit_schedule

    config = TrainConfig(
        args.total_steps, **_given(lr_peak=args.peak_lr, warmup_frac=args.warmup_frac)
    )
    schedule = emit_schedule(config, **_given(resolution=args.resolution))
    lines = ["step,lr"] + [f"{step:g},{lr:.12g}" for step, lr in schedule]
    text = "\n".join(lines) + "\n"
    if args.output:
        with published(args.output) as (out,):
            out.write(text)
        return ""
    return text


def _cmd_eval(args) -> str:
    # Imported here so that no other command loads scoring (or `csv`).
    from .metrics import (
        DEFAULT_AVERAGING,
        PredictionRecord,
        build_report,
        f1_scores,
        format_report_table,
        load_curves_csv,
        write_report_csv,
    )

    if args.curves is not None:
        dataset = "benchmark" if args.dataset is None else args.dataset
        report = build_report(load_curves_csv(read_lines(args.curves)), dataset)
        if args.format == "csv":
            return write_report_csv(report, sort_by=args.sort_by)
        return format_report_table(report, sort_by=args.sort_by) + "\n"
    parse = PredictionRecord.from_record
    records = list(read_records(args.predictions, parse, strict=True))
    averaging = args.averaging or DEFAULT_AVERAGING
    score = f1_scores(records, averaging=averaging, labels=args.labels)
    record = {"f1": score, "averaging": averaging, "examples": len(records)}
    return json.dumps(record, ensure_ascii=False) + "\n"


def _cmd_run(args) -> str:
    manifest = PipelineManifest.from_file(args.manifest)
    summary = run_pipeline(manifest, strict=args.strict)
    return json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def _label_names(text: str) -> frozenset[str]:
    """The `--labels` universe; an empty name (`a,`, `a,,b` or ``) is refused."""
    names = text.split(",")
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty label name in {text!r}")
    return frozenset(names)


def _global_options() -> _Parser:
    """The options given before the command."""
    options = _Parser(prog="lexprep", add_help=False)
    options.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    options.add_argument(
        "--strict",
        action="store_true",
        help="abort on the first malformed record instead of skipping it",
    )
    return options


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexprep",
        description=(
            "Prepare document corpora for masked-language-model training: "
            "language gating, cleaning, chunking, whole-word masking, "
            "schedule math, and benchmark scoring."
        ),
        parents=[_global_options()],
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
    p.add_argument("--language", help="language code to keep")
    p.add_argument("--threshold", type=float)
    p.add_argument("--profiles", type=Path, help="profiles JSONL (default: bundled)")
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
    p.add_argument("--max-tokens", type=int)
    p.add_argument("--tokenizer", type=Path, help="vocabulary file (default: bundled)")
    p.set_defaults(func=_cmd_chunk)

    p = sub.add_parser("mask", help="whole-word masking over chunks")
    p.add_argument("input", help="chunks JSONL")
    p.add_argument("output", help="examples JSONL")
    p.add_argument("--mask-rate", type=float)
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--random-prob", type=float)
    p.add_argument("--tokenizer", type=Path, help="vocabulary file (default: bundled)")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("split-validation", help="reserve a uniform validation sample")
    p.add_argument("input")
    p.add_argument("train_output")
    p.add_argument("valid_output")
    p.add_argument("--count", type=int, required=True, help="validation size")
    p.set_defaults(func=_cmd_split_validation)

    p = sub.add_parser("lr-curve", help="emit the LR schedule as CSV (step, lr)")
    p.add_argument("--total-steps", type=int, required=True)
    p.add_argument("--resolution", type=int, help="number of samples")
    p.add_argument("--peak-lr", type=float)
    p.add_argument("--warmup-frac", type=float)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_lr_curve)

    p = sub.add_parser("eval", help="score curves or predictions")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--curves", help="CSV of model,epoch,f1")
    source.add_argument("--predictions", help="JSONL of prediction records")
    p.add_argument("--dataset", help="name shown in the report")
    p.add_argument("--sort-by", choices=["max_f1", "auc", "model_name"])
    p.add_argument("--format", choices=["table", "csv"])
    p.add_argument("--averaging", choices=["micro", "macro"])
    p.add_argument("--labels", type=_label_names, help="comma-separated label universe")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="execute a pipeline manifest end to end")
    p.add_argument("manifest", help="manifest JSON file")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    corpus.log_to_stderr = True
    parser = build_parser()
    # argparse would take the value of an unknown flag before the command for
    # the command ("--jobs 2 run" reads as command "2"): name the flag instead.
    head = _global_options()
    head.add_argument("-h", "--help", action="store_true")
    head.add_argument("command", nargs=argparse.REMAINDER)
    head.set_defaults(seed=None)
    head.error = parser.error
    given, unknown = head.parse_known_args(argv)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    if given.seed is not None and given.command[:1] == ["run"]:
        parser.error("--seed does not apply to run: a run's seed is the manifest's \"seed\"")
    args = parser.parse_args(argv)
    if given.seed is not None and args.command not in ("mask", "split-validation"):
        draws = "only mask and split-validation draw at random"
        parser.error(f"--seed does not apply to {args.command}: {draws}")
    if args.command == "eval":
        # Each mode refuses the flags of the other.
        mode, others = ("curves", ("averaging", "labels"))
        if args.curves is None:
            mode, others = ("predictions", ("dataset", "sort_by", "format"))
        for name in others:
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                parser.error(f"{flag} does not apply to eval --{mode}")
    try:
        print(args.func(args), end="")
        return 0
    except (LexprepError, OSError, ValueError, KeyError) as exc:
        logger().error("%s", exc)
        return 2


def entry() -> None:
    """The process entry: `main`, then exit without the interpreter's teardown.

    Every output is closed and renamed before `main` returns, and each log
    line is flushed as it is written, so only stdout and stderr are left to
    flush. A stdout that cannot take the flush (its reader is gone) gives
    one `ERROR` line and exit 2, as a failed write in `main` does. A usage
    error or an unexpected exception leaves through the normal exit.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        logger().error("%s", exc)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
