"""Run the lexprep CLI with spans recorded around each layer's public functions.

    python3 bench/trace_run.py SPANS.json run MANIFEST.json

Everything after SPANS.json is passed to `lexprep.cli.main` unchanged. The
wrappers are installed from outside by rebinding module attributes (for
example `lexprep.pipeline.gate` and `VocabTokenizer.tokenize`); nothing
under src/ is edited. Spans are kept in memory and written to SPANS.json
when the run ends, as `[name, start, end, parent_index]` with index 0 the
whole process. `spans.layer_metrics` turns the file into per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


class Tracer:
    """Spans and counters of one process, in memory until `dump`."""

    def __init__(self, start: float):
        self.spans: list[list] = [["process", start, 0.0, -1]]
        self.stack = [0]
        self.counters: Counter = Counter()
        self.malformed_by_file: dict[str, int] = {}
        self.missing: list[str] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """A function that records a span around each call of `fn`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Like `wrap`, but one span per item, around the generator's own work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    record = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(record)
                    yield item
            finally:
                inner.close()

        return traced

    def rebind(self, owner, attribute: str, make) -> None:
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        setattr(owner, attribute, make(original))

    def dump(self, path: str, end: float) -> None:
        self.spans[0][2] = end
        record = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "malformed": sum(self.malformed_by_file.values()),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Rebind the public functions of each layer to traced wrappers."""
    import lexprep.chunking as chunking
    import lexprep.cli as cli
    import lexprep.corpus as corpus
    import lexprep.langid as langid
    import lexprep.masking as masking
    import lexprep.pipeline as pipeline
    from lexprep.tokenizers import VocabTokenizer

    counters = tracer.counters

    def count_tokens(_args, tokens):
        counters["tokens_produced"] += len(tokens)

    def count_gate(_args, result):
        counters["gate_docs"] += 1
        counters["gate_kept"] += bool(result[0])

    def count_clean(args, cleaned):
        counters["clean_bytes_in"] += len(args[0].encode("utf-8"))
        counters["clean_bytes_out"] += len(cleaned.encode("utf-8"))

    def count_sentences(_args, sentences):
        counters["sentences"] += len(sentences)

    def count_chunks(_args, chunks):
        counters["chunks"] += len(chunks)
        counters["empty_docs"] += not chunks

    def ingest_stream(original):
        # Lenient runs pass no error sink, so malformed lines leave no trace
        # in the program; a private sink counts them without changing output.
        @functools.wraps(original)
        def traced(lines, strict=False, error_sink=None):
            sink = [] if error_sink is None else error_sink
            before = len(sink)
            try:
                yield from original(lines, strict=strict, error_sink=sink)
            finally:
                # The stats pass and the first stage read the same input
                # file; count its malformed lines once.
                key = str(getattr(lines, "name", id(lines)))
                seen = tracer.malformed_by_file.get(key, 0)
                tracer.malformed_by_file[key] = max(seen, len(sink) - before)

        return traced

    w = tracer.wrap
    tracer.rebind(cli, "run_pipeline", lambda f: w("pipeline.run", f))
    runners = getattr(pipeline, "_STAGE_RUNNERS", {})
    if not runners:
        tracer.missing.append("lexprep.pipeline._STAGE_RUNNERS")
    for stage in list(runners):
        runners[stage] = w(f"pipeline.stage.{stage}", runners[stage])

    tracer.rebind(pipeline, "read_documents", lambda f: tracer.wrap_generator("corpus.read", f))
    tracer.rebind(pipeline, "compute_stats", lambda f: w("corpus.stats", f))
    tracer.rebind(pipeline, "document_to_line", lambda f: w("corpus.write", f))
    tracer.rebind(corpus, "ingest_stream", ingest_stream)

    tracer.rebind(pipeline, "gate", lambda f: w("langid.gate", f, count_gate))
    tracer.rebind(langid, "identify_language", lambda f: w("langid.identify_language", f))
    tracer.rebind(langid, "text_ngrams", lambda f: w("langid.text_ngrams", f))
    tracer.rebind(langid, "rank_ngrams", lambda f: w("langid.rank_ngrams", f))

    tracer.rebind(pipeline, "clean_text", lambda f: w("cleaning.clean_text", f, count_clean))

    tracer.rebind(chunking, "split_sentences", lambda f: w("chunking.split_sentences", f, count_sentences))
    tracer.rebind(chunking, "pack_chunks", lambda f: w("chunking.pack_chunks", f, count_chunks))
    tracer.rebind(pipeline, "chunk_from_record", lambda f: w("chunking.chunk_from_record", f))

    tracer.rebind(pipeline, "mask_chunk", lambda f: w("masking.mask_chunk", f))
    tracer.rebind(masking, "select_words", lambda f: w("masking.select_words", f))
    tracer.rebind(masking, "apply_mask", lambda f: w("masking.apply_mask", f))

    tracer.rebind(VocabTokenizer, "tokenize", lambda f: w("tokenizers.tokenize", f, count_tokens))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: trace_run.py SPANS.json LEXPREP-ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer(_T0)
    install(tracer)
    from lexprep.cli import main as lexprep_main

    try:
        return lexprep_main(argv[1:])
    finally:
        tracer.dump(argv[0], time.perf_counter())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
