"""F1 scoring, learning-curve areas, and report construction."""

import csv
import io
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexprep.corpus import read_records
from lexprep.errors import (
    DuplicateModelName,
    EmptyPredictions,
    InsufficientPoints,
    MalformedRecord,
    UnknownLabel,
)
from lexprep.metrics import (
    BenchmarkReport,
    LearningCurve,
    PredictionRecord,
    build_report,
    curve_auc,
    f1_scores,
    format_report_table,
    load_curves_csv,
    max_f1,
    write_report_csv,
)


def record(example_id, gold, predicted):
    return PredictionRecord(
        example_id=example_id, gold=frozenset(gold), predicted=frozenset(predicted)
    )


def curve(name, *points):
    return LearningCurve(model_name=name, points=tuple(points))


# Midpoint Riemann sum over the piecewise-linear interpolant, with the
# subdivisions split across segments so none straddles a knot. Midpoint
# sampling integrates each linear piece exactly, leaving only rounding.
def riemann_auc(points, subdivisions=10_000):
    span = points[-1][0] - points[0][0]
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        pieces = max(1, round(subdivisions * (x1 - x0) / span))
        width = (x1 - x0) / pieces
        for i in range(pieces):
            mid = x0 + (i + 0.5) * width
            area += (y0 + (y1 - y0) * (mid - x0) / (x1 - x0)) * width
    return area


class TestF1:
    def test_perfect_predictions(self):
        records = [record(str(i), {"a", "b"}, {"a", "b"}) for i in range(3)]
        assert f1_scores(records, "micro") == 1.0
        assert f1_scores(records, "macro") == 1.0

    def test_disjoint_predictions(self):
        records = [record(str(i), {"a"}, {"b"}) for i in range(3)]
        assert f1_scores(records, "micro") == 0.0
        assert f1_scores(records, "macro") == 0.0

    def test_hand_tallied_fixture(self):
        records = [
            record("1", {"a"}, {"a"}),
            record("2", {"a", "b"}, {"a"}),
            record("3", {"b"}, {"a", "b"}),
        ]
        assert f1_scores(records, "micro") == 0.75

    def test_macro_counts_unused_labels_as_zero(self):
        records = [record("1", {"a"}, {"a"})]
        # label b never appears: per-label F1 (a=1, b=0) averages to 0.5
        assert f1_scores(records, "macro", labels=frozenset("ab")) == 0.5

    def test_micro_equals_accuracy_on_singletons(self):
        rng = random.Random(4)
        labels = list("abcd")
        records = []
        hits = 0
        for i in range(500):
            gold = rng.choice(labels)
            predicted = rng.choice(labels)
            hits += gold == predicted
            records.append(record(str(i), {gold}, {predicted}))
        assert f1_scores(records, "micro") == hits / 500

    def test_empty_records_raise(self):
        with pytest.raises(EmptyPredictions):
            f1_scores([], "micro")

    def test_unknown_label_raises(self):
        records = [record("1", {"a"}, {"z"})]
        with pytest.raises(UnknownLabel):
            f1_scores(records, "micro", labels=frozenset("ab"))

    def test_unknown_averaging_rejected(self):
        with pytest.raises(ValueError):
            f1_scores([record("1", {"a"}, {"a"})], averaging="weighted")

    def test_result_in_unit_interval(self):
        rng = random.Random(9)
        labels = "abcde"
        records = [
            record(
                str(i),
                set(rng.sample(labels, rng.randint(0, 3))),
                set(rng.sample(labels, rng.randint(0, 3))),
            )
            for i in range(100)
        ]
        for averaging in ("micro", "macro"):
            assert 0.0 <= f1_scores(records, averaging) <= 1.0


class TestCurves:
    def test_max_f1_constant(self):
        assert max_f1(curve("m", (0, 0.5), (1, 0.5))) == 0.5

    def test_max_f1_direct(self):
        assert max_f1(curve("m", (1, 0.4), (2, 0.8), (3, 0.7))) == 0.8

    def test_auc_rectangle(self):
        assert curve_auc(curve("m", (0, 0.5), (2, 0.5))) == 1.0

    def test_auc_trapezoid(self):
        assert curve_auc(curve("m", (1, 0.4), (2, 0.8))) == pytest.approx(0.6)

    def test_auc_triangle(self):
        assert curve_auc(curve("m", (0, 0.0), (1, 1.0), (2, 0.0))) == 1.0

    def test_auc_single_point_raises(self):
        with pytest.raises(InsufficientPoints):
            curve_auc(curve("m", (1, 0.5)))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            curve("m")
        with pytest.raises(ValueError):
            curve("", (0, 0.5))
        with pytest.raises(ValueError):
            curve("m", (1, 0.5), (1, 0.6))
        with pytest.raises(ValueError):
            curve("m", (2, 0.5), (1, 0.6))
        with pytest.raises(ValueError):
            curve("m", (-1, 0.5))
        with pytest.raises(ValueError):
            curve("m", (0, 1.5))

    @pytest.mark.parametrize("epoch", [math.nan, math.inf, -math.inf])
    def test_non_finite_epoch_rejected(self, epoch):
        with pytest.raises(ValueError, match="finite"):
            curve("m", (0, 0.5), (epoch, 0.6))
        with pytest.raises(ValueError, match="finite"):
            load_curves_csv(io.StringIO(f"model,epoch,f1\na,0,0.5\na,{epoch},0.6"))

    def test_fractional_epochs_allowed(self):
        c = curve("m", (0.1, 0.2), (0.5, 0.4), (1.0, 0.6))
        assert curve_auc(c) > 0

    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=6),
        st.floats(0.1, 0.9),
        st.floats(0, 100),
    )
    def test_auc_linearity_and_shift(self, f1s, scale, shift):
        epochs = list(range(len(f1s)))
        base = curve("m", *zip(epochs, f1s))
        scaled = curve("m", *zip(epochs, [f * scale for f in f1s]))
        assert curve_auc(scaled) == pytest.approx(scale * curve_auc(base), abs=1e-12)
        shifted = curve("m", *zip([e + shift for e in epochs], f1s))
        assert curve_auc(shifted) == pytest.approx(curve_auc(base), abs=1e-9)

    @given(st.lists(st.floats(0, 1), min_size=3, max_size=8))
    def test_auc_additivity(self, f1s):
        epochs = list(range(len(f1s)))
        points = list(zip(epochs, f1s))
        cut = len(points) // 2
        whole = curve_auc(curve("m", *points))
        left = curve_auc(curve("m", *points[: cut + 1]))
        right = curve_auc(curve("m", *points[cut:]))
        assert whole == pytest.approx(left + right, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=8))
    def test_auc_dominance(self, pairs):
        epochs = list(range(len(pairs)))
        low = [min(a, b) for a, b in pairs]
        high = [max(a, b) for a, b in pairs]
        auc_low = curve_auc(curve("m", *zip(epochs, low)))
        auc_high = curve_auc(curve("m", *zip(epochs, high)))
        assert auc_high >= auc_low - 1e-12

    def test_auc_matches_riemann_oracle(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(2, 10)
            epochs = sorted(rng.sample(range(100), n))
            points = [(e, rng.random()) for e in epochs]
            c = curve("m", *points)
            assert curve_auc(c) == pytest.approx(riemann_auc(points), abs=1e-9)


class TestReports:
    def test_singleton_flags_both(self):
        report = build_report([curve("solo", (0, 0.5), (2, 0.5))], "demo")
        (row,) = report.rows
        assert row.max_f1 == 0.5
        assert row.auc == 1.0
        assert row.best_max_f1 and row.best_auc
        assert row.from_epoch == 0

    def test_dominance_flags_one_model(self):
        dominant = curve("a", (0, 0.6), (1, 0.9))
        weaker = curve("b", (0, 0.3), (1, 0.5))
        report = build_report([dominant, weaker], "demo")
        by_name = {row.model_name: row for row in report.rows}
        assert by_name["a"].best_max_f1 and by_name["a"].best_auc
        assert not by_name["b"].best_max_f1 and not by_name["b"].best_auc

    def test_ties_share_flags(self):
        report = build_report(
            [curve("a", (0, 0.5), (1, 0.5)), curve("b", (0, 0.5), (1, 0.5))], "demo"
        )
        assert all(row.best_max_f1 and row.best_auc for row in report.rows)

    def test_duplicate_model_name(self):
        with pytest.raises(DuplicateModelName):
            build_report([curve("a", (0, 0.5), (1, 0.5))] * 2, "demo")

    def test_from_epoch_records_integration_origin(self):
        report = build_report([curve("a", (0.5, 0.2), (2, 0.4))], "demo")
        assert report.rows[0].from_epoch == 0.5

    def test_sorting(self):
        curves = [
            curve("mid", (0, 0.5), (1, 0.5)),
            curve("top", (0, 0.9), (1, 0.9)),
            curve("low", (0, 0.1), (1, 0.1)),
        ]
        report = build_report(curves, "demo")
        table = format_report_table(report, sort_by="max_f1")
        lines = table.splitlines()
        assert [line.split()[0] for line in lines[2:]] == ["top", "mid", "low"]
        by_name = format_report_table(report, sort_by="model_name").splitlines()
        assert [line.split()[0] for line in by_name[2:]] == ["low", "mid", "top"]
        with pytest.raises(ValueError):
            format_report_table(report, sort_by="height")

    def test_table_format(self):
        report = build_report(
            [curve("a", (0, 0.61803), (1, 0.9)), curve("b", (0, 0.2), (1, 0.3))],
            "sample-set",
        )
        table = format_report_table(report)
        lines = table.splitlines()
        assert lines[0] == "dataset: sample-set"
        assert lines[1].split() == ["model", "max_f1", "auc", "from_epoch"]
        assert "0.9000*" in table
        assert "0.7590*" in table
        assert "0.3000*" not in table
        assert "0.3000" in table

    def test_csv_round_trip(self):
        report = build_report(
            [curve("a", (0, 0.6), (1, 0.9)), curve("b", (0, 0.2), (1, 0.3))], "demo"
        )
        text = write_report_csv(report)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [r["model"] for r in rows] == ["a", "b"]
        assert rows[0]["dataset"] == "demo"
        assert rows[0]["best_max_f1"] == "true"
        assert rows[1]["best_auc"] == "false"
        assert rows[0]["max_f1"] == "0.9000"

    def test_report_type_is_plain_data(self):
        report = BenchmarkReport(dataset_name="x", rows=())
        assert report.rows == ()


class TestLoaders:
    def test_load_curves_groups_by_model(self):
        lines = io.StringIO(
            "model,epoch,f1\n"
            "a,1,0.5\n"
            "b,1,0.4\n"
            "a,2,0.6\n"
        )
        curves = load_curves_csv(lines)
        assert [c.model_name for c in curves] == ["a", "b"]
        assert curves[0].points == ((1.0, 0.5), (2.0, 0.6))

    def test_load_curves_rejects_bad_rows(self):
        lines = io.StringIO("model,epoch,f1\na,one,0.5\n")
        with pytest.raises(ValueError):
            load_curves_csv(lines)

    @staticmethod
    def _predictions(tmp_path, lines):
        path = tmp_path / "predictions.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return list(read_records(path, PredictionRecord.from_record, strict=True))

    def test_load_predictions(self, tmp_path):
        lines = [
            json.dumps({"example_id": "1", "gold": ["a"], "predicted": ["a", "b"]}),
            "",
        ]
        records = self._predictions(tmp_path, lines)
        assert records == [record("1", {"a"}, {"a", "b"})]

    def test_load_predictions_takes_integer_ids_as_text(self, tmp_path):
        line = json.dumps({"example_id": 7, "gold": ["a"], "predicted": ["a"]})
        assert self._predictions(tmp_path, [line]) == [record("7", {"a"}, {"a"})]

    def test_load_predictions_rejects_bad_lines(self, tmp_path):
        with pytest.raises(ValueError):
            self._predictions(tmp_path, ['{"example_id": "1"}'])

    @pytest.mark.parametrize(
        "line",
        [
            '{"example_id": "2", "gold": ["a"]}',
            '{"example_id": "2", "gold": ["a"], "predicted": "a"}',
            '{"gold": ["a"], "predicted": ["a"]}',
            '["a"]',
            '{"example_id": "2",',
            '{"example_id": null, "gold": ["a"], "predicted": ["a"]}',
            '{"example_id": {"k": 1}, "gold": ["a"], "predicted": ["a"]}',
            '{"example_id": true, "gold": ["a"], "predicted": ["a"]}',
            '{"example_id": 2.0, "gold": ["a"], "predicted": ["a"]}',
        ],
    )
    def test_load_predictions_reports_a_bad_line_by_number(self, tmp_path, line):
        good = json.dumps({"example_id": "1", "gold": ["a"], "predicted": ["a"]})
        with pytest.raises(MalformedRecord, match="^line 2: "):
            self._predictions(tmp_path, [good, line])
