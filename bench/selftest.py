"""Tests of the benchmark itself; run with `python3 bench/selftest.py`.

Kept out of the pytest suite on purpose (the file name does not match
`test_*.py`): they spawn one small `lexprep run` and need no fixtures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run as bench_run  # also puts bench/ on sys.path
import calibrate
import checks
import compare
import corpora
import spans


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in corpora.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(
                    corpora.corpus_lines(workload, 7), corpora.corpus_lines(workload, 7)
                )

    def test_seed_changes_corpus(self):
        for workload in corpora.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(
                    corpora.corpus_lines(workload, 1), corpora.corpus_lines(workload, 2)
                )

    def test_hostile_has_one_malformed_line(self):
        bad = 0
        for line in corpora.corpus_lines("hostile", 3):
            try:
                json.loads(line)
            except json.JSONDecodeError:
                bad += 1
        self.assertEqual(bad, 1)


class OutputCheckTest(unittest.TestCase):
    """One real run on a tiny corpus, then corrupted copies of its outputs."""

    @classmethod
    def setUpClass(cls):
        bench_run.WORK_DIR.mkdir(parents=True, exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=bench_run.WORK_DIR)
        cls.work = Path(cls.tmp.name) / "ok"
        cls.work.mkdir()
        lines = corpora.corpus_lines("es_resampled", 1)[:3] + ['{"id": "broken"']
        (cls.work / "corpus.jsonl").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        cls.manifest = corpora.manifest(1)
        (cls.work / "manifest.json").write_text(json.dumps(cls.manifest), encoding="utf-8")
        subprocess.run(
            [sys.executable, "-m", "lexprep.cli", "run", "manifest.json"],
            cwd=cls.work,
            env={**os.environ, "PYTHONPATH": str(bench_run.SRC)},
            stdout=subprocess.DEVNULL,
            check=True,
        )

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def copy(self, name: str) -> Path:
        target = Path(self.tmp.name) / name
        shutil.copytree(self.work, target)
        return target

    def test_clean_run_passes_and_counts_the_malformed_line(self):
        facts = checks.check_run(self.work, self.manifest)
        self.assertEqual(facts["lines_in"], 4)
        self.assertEqual(facts["lines_lost"], 1)
        self.assertEqual(len(facts["digests"]), 8)

    def test_truncated_stage_file_fails(self):
        work = self.copy("truncated")
        path = work / "out" / "03-chunk.jsonl"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with self.assertRaises(checks.CheckFailed):
            checks.check_run(work, self.manifest)

    def test_missing_last_line_fails(self):
        work = self.copy("short")
        path = work / "out" / "04-mask.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with self.assertRaises(checks.CheckFailed):
            checks.check_run(work, self.manifest)

    def test_chunk_over_budget_fails(self):
        work = self.copy("over")
        path = work / "out" / "03-chunk.jsonl"
        records = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
        records[0]["token_count"] = 513
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with self.assertRaises(checks.CheckFailed):
            checks.check_run(work, self.manifest)

    def test_corrupt_byte_changes_digest(self):
        work = self.copy("flipped")
        path = work / "out" / "02-clean.jsonl"
        data = bytearray(path.read_bytes())
        data[10] ^= 1
        path.write_bytes(bytes(data))
        before = checks.digests(self.work / "out")
        try:
            after = checks.check_run(work, self.manifest)["digests"]
        except checks.CheckFailed:
            return
        self.assertNotEqual(before["02-clean.jsonl"], after["02-clean.jsonl"])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        trace = [["process", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 2.0, 3.0, 1]]
        self_s, inclusive, calls = spans.self_times(trace)
        self.assertAlmostEqual(self_s["process"], 6.0)
        self.assertAlmostEqual(self_s["a"], 3.0)
        self.assertAlmostEqual(inclusive["a"], 4.0)
        self.assertAlmostEqual(sum(self_s.values()), 10.0)
        self.assertEqual(calls["b"], 1)


class CalibrationTest(unittest.TestCase):
    def test_workload_is_fixed(self):
        self.assertEqual(calibrate._text(), calibrate._TEXT)
        self.assertEqual(calibrate._one_pass(calibrate._TEXT), calibrate._one_pass(calibrate._TEXT))

    def test_timings_are_scaled_to_reference_speed(self):
        outputs = {"chunk_tokens": 1000, "lines_lost": 0, "lines_in": 4}
        run = bench_run.Run(wall_s=2.0, cpu_s=2.0, rss_mb=20.0, outputs=outputs, speed_scale=0.5)
        metrics = bench_run.end_to_end([run], [0.1], {"bytes": 2_000_000})
        self.assertAlmostEqual(metrics["run_s"]["value"], 1.0)
        self.assertAlmostEqual(metrics["mb_per_s"]["value"], 2.0)
        self.assertAlmostEqual(metrics["tokens_per_s"]["value"], 1000.0)
        self.assertAlmostEqual(metrics["peak_rss_mb"]["value"], 20.0)


class CompareTest(unittest.TestCase):
    def record(self, digest: str) -> dict:
        return {
            "workload": "es_resampled",
            "seed": 1,
            "trace": 0,
            "corpus": {"sha256": "c"},
            "digests": {"01-filter-lang.jsonl": digest},
        }

    def test_digest_report(self):
        with open(os.devnull, "w") as sink:
            stdout, sys.stdout = sys.stdout, sink
            try:
                same = compare.digest_report([self.record("x")], [self.record("x")])
                differ = compare.digest_report([self.record("x")], [self.record("y")])
            finally:
                sys.stdout = stdout
        self.assertTrue(same)
        self.assertFalse(differ)


if __name__ == "__main__":
    unittest.main()
