"""lexprep benchmark: seeded corpora, end-to-end `lexprep run` metrics, per-layer trace.

One measurement (the form BENCHMARK.json runs):

    python3 bench/run.py --workload es_resampled --seed 1 --seconds 40 --trace 0

generates the workload's corpus from the seed, then runs the unmodified
`lexprep run` on it in one fresh process per run, one run at a time,
until --seconds have passed. Every run's outputs are checked and their
digests compared with the first run's. The last stdout line is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(which alternates traced and untraced runs).

Result sets and comparison:

    python3 bench/run.py --workload all --seed 1-10 --seconds 40 --trace 0 --record A.jsonl
    python3 bench/run.py --compare A.jsonl [B.jsonl]

`--record` appends one JSON record per measurement. `--compare` prints,
per workload and metric, each side's median, quartiles and the delta of
the medians, and whether the two sides wrote byte-identical stage files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import corpora  # noqa: E402
import spans  # noqa: E402

RUN_TIMEOUT_S = 60
MIN_RUNS = 3

# A fresh interpreter pays this before it can process a document.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import lexprep
from lexprep.langid import builtin_profiles
from lexprep.tokenizers import VocabTokenizer
builtin_profiles()
VocabTokenizer()
print(time.perf_counter() - t0)
"""


def metric_units(kind: str) -> dict[str, str]:
    """Units of the `end_to_end` or `per_layer` metrics BENCHMARK.json names."""
    return {m["name"]: m["unit"] for m in compare.metric_specs(kind)}


@dataclass
class Run:
    """One `lexprep run` process and what it left behind."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    # Scales wall_s to the reference host speed (calibrate.py); untraced runs.
    speed_scale: float = 1.0
    outputs: dict | None = None
    trace: dict | None = None
    error: str | None = None


def child_env(work: Path) -> dict[str, str]:
    """Environment of measured processes: the checkout's sources, cached bytecode.

    Bytecode goes to the work directory, so an untimed first process
    compiles it and measured ones load it, as an installed package would,
    whatever PYTHONDONTWRITEBYTECODE says outside.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


class Launcher:
    """The small process (launcher.py) that spawns and times each run."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def run(self, argv: list[str], cwd: Path, stdout: Path) -> dict:
        """Run argv to completion; return wall_s, code, cpu_s and maxrss_kb."""
        request = {
            "argv": argv,
            "cwd": str(cwd),
            "env": child_env(cwd),
            "stdout": str(stdout),
            "stderr": str(cwd / "stderr.txt"),
            "timeout": RUN_TIMEOUT_S,
        }
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        reply = self.process.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return json.loads(reply)


def run_lexprep(launcher: Launcher, work: Path, manifest: dict, traced: bool) -> Run:
    out_dir = work / manifest["output_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    spans_path = work / "spans.json"
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "trace_run.py"), str(spans_path)]
    else:
        argv = [sys.executable, "-m", "lexprep.cli"]
    argv += ["run", "manifest.json"]
    done = launcher.run(argv, work, Path(os.devnull))
    run = Run(done["wall_s"], done["cpu_s"], done["maxrss_kb"] / 1024)
    if done["code"] != 0:
        stderr = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        run.error = f"exit {done['code']}: {stderr.strip()[-500:]}"
        return run
    try:
        run.outputs = checks.check_run(work, manifest)
    except checks.CheckFailed as exc:
        run.error = f"output check: {exc}"
        return run
    if traced:
        try:
            run.trace = spans.load(spans_path)
        except (OSError, ValueError) as exc:
            run.error = f"span file: {exc}"
    return run


def setup_seconds(launcher: Launcher, work: Path) -> float:
    path = work / "setup.txt"
    done = launcher.run([sys.executable, "-c", SETUP_CODE], work, path)
    if done["code"] != 0:
        raise RuntimeError("set-up process failed: " + (work / "stderr.txt").read_text())
    return float(path.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the corpus, run lexprep for `seconds`, check and summarize."""
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        with Launcher() as launcher:
            corpus = corpora.write_corpus(workload, seed, work)
            manifest = corpora.manifest(seed)
            # Compile every module's bytecode once, untimed.
            launcher.run([sys.executable, "-c", "import lexprep.cli"], work, Path(os.devnull))
            setup: list[float] = []
            plain: list[Run] = []
            traced: list[Run] = []
            reference = None
            failures = []
            deadline = time.perf_counter() + seconds
            last = 0.0
            calibration = calibrate.calibrate()
            # Start a run only if one like the last still ends before the deadline.
            while time.perf_counter() + last < deadline or len(plain) < MIN_RUNS:
                started = time.perf_counter()
                batch = [run_lexprep(launcher, work, manifest, False)]
                if trace:
                    batch.append(run_lexprep(launcher, work, manifest, True))
                else:
                    # Interleaved, so the median covers the whole measurement.
                    setup_s = setup_seconds(launcher, work)
                    # The host's speed on either side of this run and set-up.
                    previous, calibration = calibration, calibrate.calibrate()
                    scale = calibrate.REFERENCE_S / ((previous + calibration) / 2)
                    batch[0].speed_scale = scale
                    setup.append(setup_s * scale)
                for run in batch:
                    if run.error is None:
                        reference = reference or run.outputs["digests"]
                        if run.outputs["digests"] != reference:
                            run.error = "stage files differ from the first run's"
                    if run.error is not None:
                        failures.append(run.error)
                        print(f"[bench] run failed: {run.error}", file=sys.stderr)
                plain.append(batch[0])
                traced.extend(batch[1:])
                last = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another measurement still uses it

    good = [run for run in plain if run.error is None]
    pairs = [(p, t) for p, t in zip(plain, traced) if p.error is None and t.error is None]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "corpus": corpus,
        "env": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "correct": not failures,
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures[:5],
        "digests": reference,
        "runs": [
            {
                "wall_s": run.wall_s,
                "speed_scale": run.speed_scale,
                "cpu_s": run.cpu_s,
                "peak_rss_mb": run.rss_mb,
            }
            for run in good
        ],
        "metrics": {},
    }
    if not good or (trace and not pairs):
        return result
    if trace:
        result["metrics"] = layer_summary(pairs)
        shares = [dict(spans.top_layers(t.trace)) for _, t in pairs]
        result["top_layers"] = sorted(
            ((g, statistics.median(s[g] for s in shares)) for g in spans.LAYER_GROUPS),
            key=lambda item: -item[1],
        )
        result["unwrapped"] = pairs[0][1].trace["missing"]
    else:
        result["metrics"] = end_to_end(good, setup, corpus)
    return result


def end_to_end(runs: list[Run], setup: list[float], corpus: dict) -> dict:
    """End-to-end metrics of one measurement: medians over its runs."""
    megabytes = corpus["bytes"] / 1e6
    outputs = runs[0].outputs
    run_s = [run.wall_s * run.speed_scale for run in runs]
    values = {
        "run_s": run_s,
        "mb_per_s": [megabytes / s for s in run_s],
        "tokens_per_s": [run.outputs["chunk_tokens"] / s for run, s in zip(runs, run_s)],
        "peak_rss_mb": [run.rss_mb for run in runs],
        "setup_s": setup,
        "lines_accounted_frac": [1.0 - outputs["lines_lost"] / outputs["lines_in"]],
    }
    return {name: _stat(values[name], unit) for name, unit in metric_units("end_to_end").items()}


def _stat(values: list[float], unit: str) -> dict:
    q1, median, q3 = compare.quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def layer_summary(pairs: list[tuple[Run, Run]]) -> dict:
    """Median of each per-layer metric over (untraced, traced) run pairs."""
    plain = [p for p, _ in pairs]
    per_run = [spans.layer_metrics(t.trace, t.outputs, t.wall_s) for _, t in pairs]
    extra = {
        "pipeline.cpu_s": [run.cpu_s for run in plain],
        # Each traced run follows an untraced one; pairing them cancels most
        # of the host's slow phases.
        "pipeline.trace_overhead_frac": [t.wall_s / p.wall_s - 1.0 for p, t in pairs],
    }
    metrics = {}
    for name, unit in metric_units("per_layer").items():
        values = extra.get(name) or [m[name] for m in per_run]
        metrics[name] = _stat(values, unit)
    return metrics


def result_line(result: dict) -> str:
    """The last stdout line: correct, attempted, failed and bare metrics."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }
    )


def describe(result: dict) -> None:
    corpus = result["corpus"]
    print(
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{corpus['docs']} docs, {corpus['bytes']} bytes, "
        f"word repeat share {corpus['word_repeat_share']:.3f}, "
        f"sha256 {corpus['sha256'][:16]}; python {result['env']['python']}, "
        f"nproc {result['env']['nproc']}; {result['attempted']} runs, "
        f"{result['failed']} failed"
    )
    for name, m in result["metrics"].items():
        print(
            f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}] n={m['n']}"
        )
    if result["runs"] and not result["trace"]:
        wall = statistics.median(run["wall_s"] for run in result["runs"])
        scale = statistics.median(run["speed_scale"] for run in result["runs"])
        print(f"  unscaled wall time median {wall:.4g} s; host speed scale median {scale:.4g}")
    if result.get("unwrapped"):
        print(f"  WARNING: not traced, names not found: {', '.join(result['unwrapped'])}")
    if "top_layers" in result:
        shares = ", ".join(f"{g} {s:.1%}" for g, s in result["top_layers"])
        print(f"  median self-time share by layer: {shares}")


def parse_seeds(text: str) -> list[int]:
    """`7`, `1,4,9` or the inclusive range `1-10`."""
    span = re.fullmatch(r"(\d+)-(\d+)", text)
    if span:
        return list(range(int(span[1]), int(span[2]) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lexprep benchmark")
    parser.add_argument("--workload", help="a workload, a comma list, or 'all'")
    parser.add_argument("--seed", default="1", help="a seed, a comma list or a range such as 1-10")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload and seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append one JSON record per measurement to this file")
    parser.add_argument("--compare", nargs="+", metavar="RECORDS", help="summarize one or compare two record files")
    args = parser.parse_args(argv)

    if args.compare:
        return compare.main(args.compare)
    if not args.workload:
        parser.error("--workload is required")
    if not (SRC / "lexprep" / "__init__.py").is_file() or not corpora.SEED_DIR.is_dir():
        print(f"bench: no lexprep sources under {SRC}", file=sys.stderr)
        return 2
    workloads = corpora.WORKLOADS if args.workload == "all" else args.workload.split(",")
    for workload in workloads:
        if workload not in corpora.WORKLOADS:
            parser.error(f"unknown workload {workload!r}; expected {corpora.WORKLOADS}")

    results = []
    for workload in workloads:
        for seed in parse_seeds(args.seed):
            result = measure(workload, seed, args.seconds, bool(args.trace))
            describe(result)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(result) + "\n")
            results.append(result)
    if len(results) == 1:
        print(result_line(results[0]))
    if not all(result["metrics"] for result in results):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
