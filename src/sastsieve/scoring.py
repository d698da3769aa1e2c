"""File-level benchmark scoring: confusion matrices, derived metrics,
per-CWE breakdown, and baseline deltas.

A detection is a (test-case id, CWE code) pair derived from a retained
finding. By default a detection counts against a ground-truth entry only
when the CWE code matches; ``match_any_cwe`` relaxes this to pure
file-level matching for sensitivity analysis.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import astuple, dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Collection, Mapping

from .benchmark import GroundTruth, GroundTruthEntry
from .model import ConfigError, TestCaseId, record_lines

log = logging.getLogger(__name__)

Detection = tuple[TestCaseId, int]


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            tn=self.tn + other.tn,
            fn=self.fn + other.fn,
        )


@dataclass(frozen=True)
class MetricSet:
    """Derived metrics; a metric is None exactly when its denominator is zero."""

    precision: float | None
    recall: float | None
    f1: float | None
    fpr: float | None
    youden_j: float | None

    def __post_init__(self) -> None:
        if any(value is not None and not -1 <= value <= 1 for value in astuple(self)):
            raise ValueError(f"metrics lie in [-1, 1], got {self}")


@dataclass(frozen=True)
class CweScorecard:
    per_cwe: Mapping[int, tuple[ConfusionMatrix, MetricSet]]
    overall: tuple[ConfusionMatrix, MetricSet]


@dataclass(frozen=True)
class Delta:
    """F1 difference between a candidate and a baseline."""

    f1_abs: float
    f1_rel: float | None  # None when the baseline F1 is zero


@dataclass(frozen=True)
class ScorecardComparison:
    per_cwe: Mapping[int, Delta | None]
    overall: Delta | None


def compute_metrics(cm: ConfusionMatrix) -> MetricSet:
    """Precision, recall, F1, FPR and Youden's J from one confusion matrix."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else None
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = None
    fpr = cm.fp / (cm.fp + cm.tn) if cm.fp + cm.tn else None
    youden = recall - fpr if recall is not None and fpr is not None else None
    return MetricSet(precision=precision, recall=recall, f1=f1, fpr=fpr, youden_j=youden)


def score_per_cwe(
    detections: Collection[Detection],
    gt: GroundTruth,
    *,
    match_any_cwe: bool = False,
) -> CweScorecard:
    """Cross-reference detections against the ground truth at the file level.

    One pass over the entries fills a matrix per CWE code; the overall
    matrix is their sum. Detection pairs whose test id is absent from the
    ground truth are ignored (counted and logged).
    """
    pairs = set(detections)
    unknown = sum(1 for tid, _ in pairs if tid not in gt)
    if unknown:
        log.info("ignoring %d detection pairs absent from the ground truth", unknown)
    detected_ids = {tid for tid, _ in pairs}

    def hit(entry: GroundTruthEntry) -> bool:
        if match_any_cwe:
            return entry.test_id in detected_ids
        return (entry.test_id, entry.cwe.code) in pairs

    counts = Counter((e.cwe.code, e.is_vulnerable, hit(e)) for e in gt.values())
    per_cwe: dict[int, tuple[ConfusionMatrix, MetricSet]] = {}
    for code in sorted({code for code, _, _ in counts}):
        cm = ConfusionMatrix(
            tp=counts[code, True, True],
            fp=counts[code, False, True],
            tn=counts[code, False, False],
            fn=counts[code, True, False],
        )
        per_cwe[code] = (cm, compute_metrics(cm))
    overall = sum((cm for cm, _ in per_cwe.values()), ConfusionMatrix(0, 0, 0, 0))
    return CweScorecard(per_cwe=per_cwe, overall=(overall, compute_metrics(overall)))


def compare(baseline: CweScorecard, candidate: CweScorecard) -> ScorecardComparison:
    """Per-CWE and overall F1 deltas of a candidate against a baseline.

    Both scorecards must cover the same CWE codes. A delta is None where
    either side's F1 is undefined.
    """
    base_codes = set(baseline.per_cwe)
    cand_codes = set(candidate.per_cwe)
    if base_codes != cand_codes:
        raise ValueError(
            f"scorecards cover different CWE sets: {sorted(base_codes)} vs {sorted(cand_codes)}"
        )

    def delta(base: MetricSet, cand: MetricSet) -> Delta | None:
        if base.f1 is None or cand.f1 is None:
            return None
        f1_abs = cand.f1 - base.f1
        f1_rel = f1_abs / base.f1 if base.f1 > 0 else None
        return Delta(f1_abs=f1_abs, f1_rel=f1_rel)

    per_cwe = {
        code: delta(baseline.per_cwe[code][1], candidate.per_cwe[code][1])
        for code in sorted(base_codes)
    }
    return ScorecardComparison(
        per_cwe=per_cwe,
        overall=delta(baseline.overall[1], candidate.overall[1]),
    )


def round_display(value: float, places: int = 3) -> float:
    """Half-up rounding for display; bankers' rounding shifts boundary cells."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def load_detections(text: str) -> set[Detection]:
    """Parse a saved detections file: one ``TestCaseId,CWE`` pair per line."""
    detections: set[Detection] = set()
    for lineno, stripped in record_lines(text):
        try:
            name, sep, code = stripped.partition(",")
            if not sep:
                raise ValueError(f"expected 'TestCaseId,CWE', got {stripped!r}")
            cwe_code = int(code.strip())
            if cwe_code < 0:  # as CweCategory refuses one, without building a category per line
                raise ValueError(f"CWE code must be non-negative, got {cwe_code}")
            detections.add((TestCaseId(name.strip()), cwe_code))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return detections


def serialize_detections(detections: Collection[Detection]) -> bytes:
    """Render detection pairs in the format accepted by load_detections."""
    lines = [f"{tid},{code}" for tid, code in sorted(detections)]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
