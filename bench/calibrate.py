"""A fixed pure-Python workload that gauges how fast the host runs right now.

On a shared host the speed of a core drifts by up to 2x in phases of
seconds to minutes, so a wall time alone says as much about the host as
about the program. run.py times this workload between consecutive
`lexprep run` processes and scales each run's wall time by
`REFERENCE_S / (mean of the two calibrations around it)`: the wall time
the run would have taken on a host that does this workload in
`REFERENCE_S` seconds.

The workload does the kinds of work lexprep does (regex word splitting,
character n-gram counting, ranking, greedy longest-match segmentation
against a set, JSON encode and decode) on text generated from a fixed
seed. It reads nothing from the program under test, so a change to
lexprep never changes it.

    python3 bench/calibrate.py      # prints a few calibration times
"""

from __future__ import annotations

import json
import random
import re
import time
from collections import Counter

# About the seconds one `calibrate()` takes on the 2-vCPU host the
# benchmark was tuned on. A constant, so the scaled times of two commits
# measured with the same benchmark code compare directly.
REFERENCE_S = 0.3

_WORD = re.compile(r"\w+|[^\w\s]")
_SYLLABLES = [c + v for c in "bcdfglmnprstvz" for v in "aeiouáé"]


def _text(seed: int = 3, words: int = 12_000) -> str:
    """Sentences of 12 made-up words of one to five syllables.

    The words are varied enough that the n-gram counts run to thousands
    of entries, as lexprep's do.
    """
    rng = random.Random(seed)
    out = []
    for i in range(words):
        out.append("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 5))))
        if i % 12 == 11:
            out.append(".")
    return " ".join(out)


_TEXT = _text()


def _one_pass(text: str) -> int:
    words = _WORD.findall(text)
    grams: Counter = Counter()
    for word in words:
        padded = f"_{word.lower()}_"
        for n in (1, 2, 3):
            for i in range(len(padded) - n + 1):
                grams[padded[i : i + n]] += 1
    vocab = {gram for gram, _ in sorted(grams.items(), key=lambda kv: (-kv[1], kv[0]))[:400]}
    pieces = []
    for word in words:
        i = 0
        while i < len(word):
            for j in range(min(len(word), i + 4), i, -1):
                if j == i + 1 or word[i:j].lower() in vocab:
                    pieces.append(word[i:j])
                    i = j
                    break
    encoded = json.dumps([{"piece": p, "index": k} for k, p in enumerate(pieces)])
    return len(json.loads(encoded))


def calibrate() -> float:
    """Seconds this process takes for the fixed workload, now."""
    start = time.perf_counter()
    _one_pass(_TEXT)
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(5):
        print(f"{calibrate():.4f}")
