"""Confusion matrices and the derived classification metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import UsageError


class ConfusionMatrix:
    """Per-class counts; rows are true classes, columns predictions."""

    def __init__(self, counts, class_names: Sequence[str] | None = None):
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise UsageError(f"confusion counts must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise UsageError("confusion counts must be non-negative")
        n = self.counts.shape[0]
        self.class_names = tuple(class_names) if class_names is not None \
            else tuple(f"class{i}" for i in range(n))
        if len(self.class_names) != n:
            raise UsageError("class_names length does not match matrix size")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def one_vs_rest(self, c: int) -> tuple[int, int, int, int]:
        """(tp, fp, fn, tn) treating class c as positive."""
        tp = int(self.counts[c, c])
        fp = int(self.counts[:, c].sum() - tp)
        fn = int(self.counts[c, :].sum() - tp)
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn

    def row_normalized(self) -> np.ndarray:
        """Rows as percentages; all-zero rows stay zero."""
        totals = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(totals > 0, 100.0 * self.counts / totals, 0.0)
        return out

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.counts.shape != self.counts.shape:
            raise UsageError("cannot add confusion matrices of different sizes")
        return ConfusionMatrix(self.counts + other.counts, self.class_names)


def confusion(y_true, y_pred, num_classes: int | None = None,
              class_names: Sequence[str] | None = None) -> ConfusionMatrix:
    """Count (true, predicted) pairs into a matrix."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise UsageError(f"label arrays differ: {y_true.shape} vs {y_pred.shape}")
    if num_classes is None:
        num_classes = len(class_names) if class_names is not None \
            else int(max(y_true.max(initial=-1), y_pred.max(initial=-1))) + 1
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0
                        or max(y_true.max(), y_pred.max()) >= num_classes):
        raise UsageError(f"labels out of range [0, {num_classes})")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts, class_names)


def precision(tp: int, fp: int) -> float:
    """tp / (tp + fp); 0 by convention when there are no positives called."""
    return tp / (tp + fp) if tp + fp > 0 else 0.0


def recall(tp: int, fn: int) -> float:
    """tp / (tp + fn); 0 by convention when the class never occurs."""
    return tp / (tp + fn) if tp + fn > 0 else 0.0


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both vanish."""
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def accuracy(cm: ConfusionMatrix) -> float:
    """Correct predictions over all predictions."""
    if cm.total == 0:
        raise UsageError("accuracy of an empty confusion matrix is undefined")
    return float(np.trace(cm.counts)) / cm.total


def per_class_metrics(cm: ConfusionMatrix) -> list[dict]:
    out = []
    for c in range(cm.num_classes):
        tp, fp, fn, _ = cm.one_vs_rest(c)
        p = precision(tp, fp)
        r = recall(tp, fn)
        out.append({"name": cm.class_names[c], "precision": p, "recall": r,
                    "f1": f1(p, r)})
    return out


def _macro(per_class: list[dict]) -> dict:
    n = len(per_class)
    return {
        "precision": sum(m["precision"] for m in per_class) / n,
        "recall": sum(m["recall"] for m in per_class) / n,
        "f1": sum(m["f1"] for m in per_class) / n,
    }


def _micro(cm: ConfusionMatrix) -> dict:
    tp = fp = fn = 0
    for c in range(cm.num_classes):
        ctp, cfp, cfn, _ = cm.one_vs_rest(c)
        tp, fp, fn = tp + ctp, fp + cfp, fn + cfn
    p = precision(tp, fp)
    r = recall(tp, fn)
    return {"precision": p, "recall": r, "f1": f1(p, r)}


@dataclass
class MetricsReport:
    """Aggregate metrics over one or more evaluation folds."""

    accuracy_mean: float
    accuracy_std: float
    per_class: list[dict]
    macro: dict
    micro: dict
    confusion: list[list[int]]
    class_names: tuple[str, ...]
    fold_accuracies: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy_mean": self.accuracy_mean,
            "accuracy_std": self.accuracy_std,
            "per_class": self.per_class,
            "macro": self.macro,
            "micro": self.micro,
            "confusion": self.confusion,
        }

    def render_text(self) -> str:
        cm = ConfusionMatrix(self.confusion, self.class_names)
        lines = [
            f"accuracy: {self.accuracy_mean:.4f} +/- {self.accuracy_std:.4f} "
            f"(sample std over {len(self.fold_accuracies)} fold(s))",
            "",
            f"{'class':<12}{'precision':>10}{'recall':>10}{'f1':>10}",
        ]
        for m in self.per_class:
            lines.append(f"{m['name']:<12}{m['precision']:>10.4f}"
                         f"{m['recall']:>10.4f}{m['f1']:>10.4f}")
        lines.append(f"{'macro':<12}{self.macro['precision']:>10.4f}"
                     f"{self.macro['recall']:>10.4f}{self.macro['f1']:>10.4f}")
        lines.append(f"{'micro':<12}{self.micro['precision']:>10.4f}"
                     f"{self.micro['recall']:>10.4f}{self.micro['f1']:>10.4f}")
        lines.append("")
        width = max(6, max(len(n) for n in self.class_names) + 2)
        header = " " * 12 + "".join(f"{n:>{width}}" for n in self.class_names)
        lines.append("confusion (rows true, cols predicted):")
        lines.append(header)
        for c, name in enumerate(self.class_names):
            row = "".join(f"{int(v):>{width}}" for v in cm.counts[c])
            lines.append(f"{name:<12}{row}")
        lines.append("row-normalized (%):")
        lines.append(header)
        norm = cm.row_normalized()
        for c, name in enumerate(self.class_names):
            row = "".join(f"{v:>{width}.1f}" for v in norm[c])
            lines.append(f"{name:<12}{row}")
        return "\n".join(lines) + "\n"


def report(cms: Sequence[ConfusionMatrix]) -> MetricsReport:
    """Aggregate fold matrices: accuracy mean +/- sample std across folds,
    per-class/macro/micro metrics on the pooled counts."""
    if not cms:
        raise UsageError("report needs at least one confusion matrix")
    fold_acc = [accuracy(cm) for cm in cms]
    mean = float(np.mean(fold_acc))
    std = float(np.std(fold_acc, ddof=1)) if len(fold_acc) > 1 else 0.0
    pooled = cms[0]
    for cm in cms[1:]:
        pooled = pooled + cm
    per_class = per_class_metrics(pooled)
    return MetricsReport(
        accuracy_mean=mean,
        accuracy_std=std,
        per_class=per_class,
        macro=_macro(per_class),
        micro=_micro(pooled),
        confusion=pooled.counts.tolist(),
        class_names=pooled.class_names,
        fold_accuracies=fold_acc,
    )
