"""Evaluation metrics: set-based F1, learning curves, and model reports.

Predictions are label sets per example, covering single-label tasks
(singleton sets) and multi-label tasks uniformly. Curves are (epoch, f1)
series per model; reports compare models on best F1 and area under the
curve, flagging the best value per column.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace

from .errors import (
    DuplicateModelName,
    EmptyPredictions,
    InsufficientPoints,
    UnknownLabel,
)
from .values import FrozenValue

DEFAULT_AVERAGING = "micro"


class PredictionRecord(FrozenValue):
    """Gold and predicted label sets for one evaluation example."""

    __slots__ = ("example_id", "gold", "predicted")

    def __init__(
        self, example_id: str, gold: frozenset[str], predicted: frozenset[str]
    ):
        self._set_fields(example_id, gold, predicted)

    @classmethod
    def from_record(cls, record: object) -> "PredictionRecord":
        """Build one from its parsed JSON record; ValueError if ill-shaped."""
        if not isinstance(record, dict) or "example_id" not in record:
            raise ValueError("record must be a JSON object with an 'example_id'")
        example_id = record["example_id"]
        if isinstance(example_id, bool) or not isinstance(example_id, (str, int)):
            raise ValueError("field 'example_id' must be a string or an integer")
        for name in ("gold", "predicted"):
            labels = record.get(name)
            if not isinstance(labels, list) or not all(
                isinstance(label, str) for label in labels
            ):
                raise ValueError(f"field {name!r} must be a list of strings")
        return cls(
            example_id=str(example_id),
            gold=frozenset(record["gold"]),
            predicted=frozenset(record["predicted"]),
        )


def _check_labels(records: list[PredictionRecord], labels: frozenset[str]) -> None:
    for record in records:
        for label in (record.gold | record.predicted) - labels:
            raise UnknownLabel(
                f"example {record.example_id} uses label {label!r} "
                "outside the declared label set"
            )


def f1_scores(
    records: list[PredictionRecord],
    averaging: str = DEFAULT_AVERAGING,
    labels: frozenset[str] | None = None,
) -> float:
    """F1 over set-valued predictions.

    micro pools true/false positives and negatives across all examples;
    macro averages per-label F1 over the label universe (the declared
    one, or the union of observed labels). Empty denominators score 0,
    never NaN. On single-label data micro-F1 equals plain accuracy.
    """
    if not records:
        raise EmptyPredictions("no prediction records to score")
    if averaging not in ("micro", "macro"):
        raise ValueError(f"averaging must be 'micro' or 'macro', got {averaging!r}")
    if labels is not None:
        _check_labels(records, labels)
    if averaging == "micro":
        tp = fp = fn = 0
        for record in records:
            tp += len(record.gold & record.predicted)
            fp += len(record.predicted - record.gold)
            fn += len(record.gold - record.predicted)
        denom = 2 * tp + fp + fn
        return 2 * tp / denom if denom else 0.0
    if labels is None:
        observed: set[str] = set()
        for record in records:
            observed |= record.gold | record.predicted
        labels = frozenset(observed)
    total = 0.0
    for label in labels:
        tp = fp = fn = 0
        for record in records:
            in_gold = label in record.gold
            in_pred = label in record.predicted
            tp += in_gold and in_pred
            fp += in_pred and not in_gold
            fn += in_gold and not in_pred
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return total / len(labels) if labels else 0.0


class LearningCurve(FrozenValue):
    """One model's F1 at strictly increasing (possibly fractional) epochs."""

    __slots__ = ("model_name", "points")

    def __init__(self, model_name: str, points: tuple[tuple[float, float], ...]):
        if not model_name:
            raise ValueError("a learning curve needs a model name")
        if not points:
            raise ValueError("a learning curve needs at least one point")
        last = None
        for epoch, f1 in points:
            if not 0 <= epoch < math.inf:
                raise ValueError(f"epochs must be finite and non-negative, got {epoch}")
            if last is not None and epoch <= last:
                raise ValueError(
                    f"epochs must strictly increase, saw {epoch} after {last}"
                )
            if not 0.0 <= f1 <= 1.0:
                raise ValueError(f"f1 must be in [0, 1], got {f1} at epoch {epoch}")
            last = epoch
        self._set_fields(model_name, points)


def max_f1(curve: LearningCurve) -> float:
    """Highest F1 the curve reaches."""
    return max(f1 for _, f1 in curve.points)


def curve_auc(curve: LearningCurve) -> float:
    """Trapezoidal area under the (epoch, f1) curve.

    Integrates from the first recorded epoch to the last, not from 0,
    and is not normalized by the span, so longer training ranges can
    yield areas above 1.
    """
    if len(curve.points) < 2:
        raise InsufficientPoints(
            f"area under a curve needs at least two points, got {len(curve.points)}"
        )
    area = 0.0
    for (x0, y0), (x1, y1) in zip(curve.points, curve.points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


class ReportRow(FrozenValue):
    """One model's summary metrics plus per-column best flags.

    from_epoch records where the AUC integration started, since areas
    are only comparable between curves sharing an origin.
    """

    __slots__ = ("model_name", "max_f1", "auc", "from_epoch", "best_max_f1", "best_auc")

    def __init__(
        self,
        model_name: str,
        max_f1: float,
        auc: float,
        from_epoch: float,
        best_max_f1: bool = False,
        best_auc: bool = False,
    ):
        self._set_fields(model_name, max_f1, auc, from_epoch, best_max_f1, best_auc)


class BenchmarkReport(FrozenValue):
    """Per-model rows for one dataset; ties share the best flag."""

    __slots__ = ("dataset_name", "rows")

    def __init__(self, dataset_name: str, rows: tuple[ReportRow, ...]):
        self._set_fields(dataset_name, rows)


def build_report(curves: list[LearningCurve], dataset_name: str) -> BenchmarkReport:
    """Summarize named curves into a report with column maxima flagged."""
    seen: set[str] = set()
    summaries = []
    for curve in curves:
        if curve.model_name in seen:
            raise DuplicateModelName(f"model {curve.model_name!r} appears twice")
        seen.add(curve.model_name)
        summaries.append(
            (curve.model_name, max_f1(curve), curve_auc(curve), curve.points[0][0])
        )
    best_f1 = max(row[1] for row in summaries) if summaries else 0.0
    best_auc = max(row[2] for row in summaries) if summaries else 0.0
    rows = tuple(
        ReportRow(
            model_name=name,
            max_f1=top,
            auc=auc,
            from_epoch=origin,
            best_max_f1=top == best_f1,
            best_auc=auc == best_auc,
        )
        for name, top, auc, origin in summaries
    )
    return BenchmarkReport(dataset_name=dataset_name, rows=rows)


def _sorted_rows(report: BenchmarkReport, sort_by: str | None) -> list[ReportRow]:
    if sort_by is None:
        return list(report.rows)
    if sort_by not in ("max_f1", "auc", "model_name"):
        raise ValueError(f"cannot sort by {sort_by!r}")
    if sort_by == "model_name":
        return sorted(report.rows, key=lambda row: row.model_name)
    return sorted(report.rows, key=lambda row: -getattr(row, sort_by))


def _cell(value: float, flagged: bool) -> str:
    return f"{value:.4f}" + ("*" if flagged else "")


def format_report_table(report: BenchmarkReport, sort_by: str | None = None) -> str:
    """Aligned text table; the best value per column is starred."""
    header = ("model", "max_f1", "auc", "from_epoch")
    body = [
        (
            row.model_name,
            _cell(row.max_f1, row.best_max_f1),
            _cell(row.auc, row.best_auc),
            f"{row.from_epoch:g}",
        )
        for row in _sorted_rows(report, sort_by)
    ]
    widths = [
        max(len(column), *(len(line[i]) for line in body)) if body else len(column)
        for i, column in enumerate(header)
    ]
    lines = [f"dataset: {report.dataset_name}"]
    for line in [header, *body]:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
    return "\n".join(lines)


def write_report_csv(report: BenchmarkReport, sort_by: str | None = None) -> str:
    """CSV form of the report with explicit boolean best columns.

    A field that holds a line end is quoted, a lone "\\r" too, on every
    interpreter: each row is one write, made with "\\r\\n" (3.13's writer
    quotes "\\r" with any terminator, earlier ones only the terminator's
    characters), and its end is cut back to "\\n".
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(
        ["dataset", "model", "max_f1", "auc", "from_epoch", "best_max_f1", "best_auc"]
    )
    for row in _sorted_rows(report, sort_by):
        writer.writerow(
            [
                report.dataset_name,
                row.model_name,
                f"{row.max_f1:.4f}",
                f"{row.auc:.4f}",
                f"{row.from_epoch:g}",
                str(row.best_max_f1).lower(),
                str(row.best_auc).lower(),
            ]
        )
    return "".join(line[:-2] + "\n" for line in lines)


def load_curves_csv(lines) -> list[LearningCurve]:
    """Parse model,epoch,f1 rows into curves, keeping model order."""
    reader = csv.DictReader(lines)
    grouped: dict[str, list[tuple[float, float]]] = {}
    for row in reader:
        try:
            grouped.setdefault(row["model"], []).append(
                (float(row["epoch"]), float(row["f1"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad curve row {row!r}: {exc}") from exc
    return [LearningCurve(model, tuple(points)) for model, points in grouped.items()]
