"""Summarize one result set, or compare two, from `run.py --record` files.

    python3 bench/run.py --compare A.jsonl [B.jsonl]

For each workload and metric it prints each side's median, first and third
quartile over the recorded measurements (one per seed), the spread
(q3 - q1) / median, and with two sets the delta of the medians. It then
compares the stage-file digests of every (workload, seed) both sets ran:
the outputs must be byte-identical. Exit status 1 means they differ.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def metric_specs(kind: str) -> list[dict]:
    """The `end_to_end` or `per_layer` entries of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


def by_metric(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for record in records:
        for name, metric in record["metrics"].items():
            values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def digest_report(a: list[dict], b: list[dict]) -> bool:
    """Print digest agreement per (workload, seed); True if all agree."""
    index_b = {(r["workload"], r["seed"]): r for r in b if r.get("digests")}
    same = True
    for record in a:
        other = index_b.get((record["workload"], record["seed"]))
        if other is None or not record.get("digests"):
            continue
        if record["corpus"]["sha256"] != other["corpus"]["sha256"]:
            verdict = "corpus differs (generator changed)"
            same = False
        else:
            differing = sorted(
                name
                for name in set(record["digests"]) | set(other["digests"])
                if record["digests"].get(name) != other["digests"].get(name)
            )
            verdict = "byte-identical" if not differing else "DIFFER: " + ", ".join(differing)
            same = same and not differing
        print(f"  {record['workload']} seed {record['seed']} trace {record['trace']}: {verdict}")
    return same


def main(paths: list[str]) -> int:
    if len(paths) > 2:
        print("--compare takes one or two record files")
        return 1
    sets = [load(path) for path in paths]
    limits = {m["name"]: m["bound"] for m in metric_specs("end_to_end")}
    tables = [by_metric(records) for records in sets]
    keys = sorted(set().union(*tables), key=lambda k: (k[0], k[1]))
    header = f"{'workload':14s} {'metric':36s}"
    for path in paths:
        header += f" | {Path(path).name[:20]:>20s} median [q1, q3] spread"
    if len(paths) == 2:
        header += " | delta"
    print(header)
    for key in keys:
        line = f"{key[0]:14s} {key[1]:36s}"
        medians = []
        for table in tables:
            values = table.get(key)
            if not values:
                line += f" | {'-':>44s}"
                medians.append(None)
                continue
            q1, median, q3 = quartiles(values)
            medians.append(median)
            share = spread(values)
            flag = " !" if key[1] in limits and share > limits[key[1]] / 3 else ""
            line += f" | {median:11.6g} [{q1:.4g}, {q3:.4g}] {share:6.1%}{flag} n={len(values)}"
        if len(paths) == 2 and None not in medians and medians[0]:
            line += f" | {medians[1] / medians[0] - 1.0:+.1%}"
        print(line)
    print("'!' marks a spread above a third of the metric's bound.")
    if len(sets) == 2:
        print("stage-file digests:")
        return 0 if digest_report(sets[0], sets[1]) else 1
    return 0
