"""Confusion-matrix construction and accuracy reporting.

Rows are ground truth, columns are predictions, both in the fixed order
head, shoulders, knees, toes. The overall accuracy is the *unweighted*
mean of the four per-class accuracies, not the frame-weighted rate;
percentages are kept at full precision and only rounded for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyClassRow, EmptyInput
from .pose import LABEL_ORDER, TouchLabel

__all__ = [
    "ConfusionMatrix",
    "EvalReport",
    "ReportDelta",
    "build_confusion",
    "report",
    "compare_reports",
    "format_report",
]

_INDEX = {label: i for i, label in enumerate(LABEL_ORDER)}


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """4x4 grid of frame counts indexed (truth, predicted)."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (len(LABEL_ORDER), len(LABEL_ORDER)):
            raise ValueError(f"counts must be 4x4, got shape {counts.shape}")
        if counts.dtype.kind not in "iuf":
            raise ValueError(f"counts must be numbers, got dtype {counts.dtype}")
        if not np.issubdtype(counts.dtype, np.integer):
            rounded = np.rint(counts)
            if not np.array_equal(rounded, counts):
                raise ValueError("counts must be integers")
            counts = rounded
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        if sum(counts.ravel().tolist()) >= 2**63:
            raise ValueError("counts and their total must be below 2**63, the int64 limit")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def count(self, truth: TouchLabel, predicted: TouchLabel) -> int:
        return int(self.counts[_INDEX[truth], _INDEX[predicted]])


def _tally(truth: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    """Tally LABEL_ORDER index arrays, truth against predicted, into a confusion matrix."""
    if not len(truth):
        raise EmptyInput("cannot build a confusion matrix from zero pairs")
    n = len(LABEL_ORDER)
    cells = np.bincount(truth.astype(np.intp) * n + predicted, minlength=n * n)
    return ConfusionMatrix(cells.reshape(n, n))


def build_confusion(pairs: Iterable[tuple[TouchLabel, TouchLabel]]) -> ConfusionMatrix:
    """Tally (truth, predicted) pairs into a confusion matrix."""
    indices = np.array([(_INDEX[t], _INDEX[p]) for t, p in pairs], np.intp).reshape(-1, 2)
    return _tally(indices[:, 0], indices[:, 1])


@dataclass(frozen=True)
class EvalReport:
    """Percentages derived from a confusion matrix.

    ``row_percentages`` rows each sum to 100 up to float rounding;
    ``per_class_accuracy`` is its diagonal and ``overall_accuracy`` the
    plain mean of those four values.
    """

    matrix: ConfusionMatrix
    row_percentages: np.ndarray
    per_class_accuracy: Mapping[TouchLabel, float]
    overall_accuracy: float

    def __post_init__(self):
        pct = np.asarray(self.row_percentages, dtype=np.float64)
        pct.flags.writeable = False
        object.__setattr__(self, "row_percentages", pct)
        object.__setattr__(self, "per_class_accuracy", dict(self.per_class_accuracy))


def report(matrix: ConfusionMatrix) -> EvalReport:
    """Turn counts into per-class and overall accuracies.

    Raises EmptyClassRow (naming the class) if any truth row has no frames.
    """
    row_totals = matrix.row_totals
    for label in LABEL_ORDER:
        if row_totals[_INDEX[label]] == 0:
            raise EmptyClassRow(label)
    percentages = matrix.counts / row_totals[:, None] * 100.0
    per_class = {label: float(percentages[_INDEX[label], _INDEX[label]]) for label in LABEL_ORDER}
    overall = sum(per_class.values()) / len(per_class)
    return EvalReport(
        matrix=matrix,
        row_percentages=percentages,
        per_class_accuracy=per_class,
        overall_accuracy=overall,
    )


@dataclass(frozen=True)
class ReportDelta:
    """Signed accuracy differences (second report minus first)."""

    per_class: Mapping[TouchLabel, float]
    overall: float


def compare_reports(a: EvalReport, b: EvalReport) -> ReportDelta:
    """Per-class and overall accuracy deltas, computed as b - a."""
    deltas = {
        label: b.per_class_accuracy[label] - a.per_class_accuracy[label] for label in LABEL_ORDER
    }
    return ReportDelta(per_class=deltas, overall=b.overall_accuracy - a.overall_accuracy)


def format_report(rep: EvalReport, style: str = "table") -> str:
    """Render a report for humans (aligned table) or machines (delimited).

    The table mirrors the usual layout: rows are ground truth, columns
    are predictions, plus a row-sum column. Values are displayed at two
    decimals; the underlying report keeps full precision.
    """
    names = [label.value for label in LABEL_ORDER]
    if style == "delimited":
        lines = ["truth," + ",".join(names) + ",sum"]
        for i, label in enumerate(LABEL_ORDER):
            row = rep.row_percentages[i]
            lines.append(
                label.value
                + ","
                + ",".join(f"{v:.2f}" for v in row)
                + f",{row.sum():.2f}"
            )
        lines.append("overall," + f"{rep.overall_accuracy:.2f}")
        return "\n".join(lines) + "\n"
    if style != "table":
        raise ValueError(f"unknown report style: {style!r}")
    width = max(len(name) for name in names) + 2
    header = " " * width + "".join(f"{name:>{width}}" for name in names) + f"{'sum':>{width}}"
    lines = [header]
    for i, label in enumerate(LABEL_ORDER):
        row = rep.row_percentages[i]
        cells = "".join(f"{v:{width}.2f}" for v in row)
        lines.append(f"{label.value:>{width}}" + cells + f"{row.sum():{width}.2f}")
    lines.append("")
    for label in LABEL_ORDER:
        lines.append(f"accuracy[{label.value}] = {rep.per_class_accuracy[label]:.2f}")
    lines.append(f"overall accuracy = {rep.overall_accuracy:.2f}")
    return "\n".join(lines) + "\n"
