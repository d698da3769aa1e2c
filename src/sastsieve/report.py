"""Render mission results as machine-readable and human-readable reports.

The JSON report is canonical (sorted keys, versioned schema) and round-trips
through ``load_report`` to an equal Report. Undefined metrics are encoded as
null in JSON and rendered "n/a" in text. Timing lives in its own section so
determinism checks can exclude it wholesale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Collection, Mapping

from .benchmark import GroundTruth
from .filter_agent import FilterStats
from .model import (
    Classification,
    CweCategory,
    FailOpenCause,
    FilteredFinding,
    Finding,
    Provenance,
    Severity,
    TestCaseId,
    Verdict,
)
from .pipeline import MissionResult
from .scoring import (
    ConfusionMatrix,
    CweScorecard,
    Delta,
    Detection,
    MetricSet,
    ScorecardComparison,
    compare,
    round_display,
    score_per_cwe,
)

SCHEMA_VERSION = "2"

DEFAULT_RETAINED_DISPLAY = 20
DEFAULT_SUPPRESSED_DISPLAY = 10

_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


class ReportFormatError(ValueError):
    """Raised when a report document does not match the schema."""


@dataclass(frozen=True)
class Report:
    run_id: str
    plan_summary: Mapping[str, object]
    retained: tuple[FilteredFinding, ...]
    suppressed: tuple[FilteredFinding, ...]
    fail_open_events: tuple[tuple[int, str], ...]
    stats: FilterStats
    scorecard: CweScorecard | None
    baseline_deltas: ScorecardComparison | None
    started_at: str = ""
    finished_at: str = ""


def detections_of(kept: Collection[FilteredFinding]) -> set[Detection]:
    """The (test id, CWE code) pairs of kept findings that map to a test case."""
    return {
        (ff.finding.test_id, ff.finding.cwe.code)
        for ff in kept
        if ff.finding.test_id is not None
    }


def build_report(
    mission: MissionResult,
    gt: GroundTruth | None = None,
    baseline_detections: Collection[Detection] | None = None,
) -> Report:
    """Assemble a Report from a mission, scoring it when ground truth is given."""
    plan = mission.plan
    plan_summary = {
        "target_root": str(plan.target_root) if plan.target_root else None,
        "scanner_mode": plan.scanner_mode,
        "scan_json": str(plan.scan_json_path) if plan.scan_json_path else None,
        "scanner_cmd": plan.scanner_cmd,
        "batch_size": plan.batch_size,
        "parallelism": plan.parallelism,
        "fail_open_enabled": plan.fail_open_enabled,
        "ground_truth": str(plan.ground_truth_path) if plan.ground_truth_path else None,
        "baseline": str(plan.baseline_path) if plan.baseline_path else None,
        "model_id": plan.model_id,
        "match_any_cwe": plan.match_any_cwe,
        "scanner_finding_count": mission.scanner_finding_count,
        "skipped_results": mission.skipped_results,
    }

    scorecard = None
    deltas = None
    if gt is not None:
        scorecard = score_per_cwe(
            detections_of(mission.kept), gt, match_any_cwe=plan.match_any_cwe
        )
        if baseline_detections is not None:
            baseline_card = score_per_cwe(
                baseline_detections, gt, match_any_cwe=plan.match_any_cwe
            )
            deltas = compare(baseline_card, scorecard)

    identity = json.dumps(
        {
            "plan": plan_summary,
            "findings": sorted(
                ff.finding.id for ff in mission.kept + mission.suppressed
            ),
        },
        sort_keys=True,
    )
    run_id = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]

    return Report(
        run_id=run_id,
        plan_summary=plan_summary,
        retained=mission.kept,
        suppressed=mission.suppressed,
        fail_open_events=mission.stats.fail_open_events,
        stats=mission.stats,
        scorecard=scorecard,
        baseline_deltas=deltas,
        started_at=mission.started_at,
        finished_at=mission.finished_at,
    )


# --- JSON encoding ---------------------------------------------------------


def _finding_doc(finding: Finding) -> dict:
    return {
        "id": finding.id,
        "test_id": finding.test_id.value if finding.test_id else None,
        "cwe_code": finding.cwe.code,
        "cwe_name": finding.cwe.name,
        "file_path": finding.file_path,
        "start_line": finding.start_line,
        "end_line": finding.end_line,
        "severity": finding.severity.value,
        "description": finding.description,
        "origin": finding.origin,
    }


def _verdict_doc(verdict: Verdict) -> dict:
    return {
        "classification": verdict.classification.value,
        "provenance": verdict.provenance.value,
        "rationale": verdict.rationale,
        "cause": verdict.cause.value if verdict.cause else None,
        "evidence_ref": verdict.evidence_ref,
    }


def _filtered_doc(ff: FilteredFinding) -> dict:
    return {
        "finding": _finding_doc(ff.finding),
        "verdict": _verdict_doc(ff.verdict),
        "batch_index": ff.batch_index,
    }


def _metrics_doc(metrics: MetricSet) -> dict:
    return {
        "precision": metrics.precision,
        "recall": metrics.recall,
        "f1": metrics.f1,
        "fpr": metrics.fpr,
        "youden_j": metrics.youden_j,
    }


def _matrix_doc(cm: ConfusionMatrix) -> dict:
    return {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn}


def _scorecard_doc(card: CweScorecard | None) -> dict | None:
    if card is None:
        return None
    return {
        "overall": {"matrix": _matrix_doc(card.overall[0]), "metrics": _metrics_doc(card.overall[1])},
        "per_cwe": {
            str(code): {"matrix": _matrix_doc(cm), "metrics": _metrics_doc(metrics)}
            for code, (cm, metrics) in card.per_cwe.items()
        },
    }


def _delta_doc(delta: Delta | None) -> dict | None:
    if delta is None:
        return None
    return {"f1_abs": delta.f1_abs, "f1_rel": delta.f1_rel}


def _comparison_doc(comparison: ScorecardComparison | None) -> dict | None:
    if comparison is None:
        return None
    return {
        "overall": _delta_doc(comparison.overall),
        "per_cwe": {str(code): _delta_doc(d) for code, d in comparison.per_cwe.items()},
    }


def render_json(report: Report) -> bytes:
    """Canonical JSON rendering: sorted keys, versioned, newline-terminated."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "run_id": report.run_id,
        "plan": dict(report.plan_summary),
        "stats": {
            "batch_count": report.stats.batch_count,
            "llm_calls": report.stats.llm_calls,
        },
        "fail_open_events": [
            {"batch_index": index, "cause": cause} for index, cause in report.fail_open_events
        ],
        "retained": [_filtered_doc(ff) for ff in report.retained],
        "suppressed": [_filtered_doc(ff) for ff in report.suppressed],
        "scorecard": _scorecard_doc(report.scorecard),
        "baseline_deltas": _comparison_doc(report.baseline_deltas),
        "timing": {
            "started_at": report.started_at,
            "finished_at": report.finished_at,
            "total_latency_seconds": report.stats.total_latency,
            "filter_wall_seconds": report.stats.wall_time,
        },
    }
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# --- JSON decoding ---------------------------------------------------------


def _finding_from(doc: dict) -> Finding:
    return Finding(
        id=doc["id"],
        test_id=TestCaseId(doc["test_id"]) if doc.get("test_id") else None,
        cwe=CweCategory(doc["cwe_code"]),
        file_path=doc["file_path"],
        start_line=doc["start_line"],
        end_line=doc["end_line"],
        severity=Severity(doc["severity"]),
        description=doc["description"],
        origin=doc["origin"],
    )


def _verdict_from(doc: dict) -> Verdict:
    return Verdict(
        classification=Classification(doc["classification"]),
        provenance=Provenance(doc["provenance"]),
        rationale=doc.get("rationale"),
        cause=FailOpenCause(doc["cause"]) if doc.get("cause") else None,
        evidence_ref=doc.get("evidence_ref"),
    )


def _filtered_from(doc: dict) -> FilteredFinding:
    return FilteredFinding(
        finding=_finding_from(doc["finding"]),
        verdict=_verdict_from(doc["verdict"]),
        batch_index=doc.get("batch_index"),
    )


def _metrics_from(doc: dict) -> MetricSet:
    return MetricSet(
        precision=doc.get("precision"),
        recall=doc.get("recall"),
        f1=doc.get("f1"),
        fpr=doc.get("fpr"),
        youden_j=doc.get("youden_j"),
    )


def _matrix_from(doc: dict) -> ConfusionMatrix:
    return ConfusionMatrix(tp=doc["tp"], fp=doc["fp"], tn=doc["tn"], fn=doc["fn"])


def _scorecard_from(doc: dict | None) -> CweScorecard | None:
    if doc is None:
        return None
    per_cwe = {
        int(code): (_matrix_from(entry["matrix"]), _metrics_from(entry["metrics"]))
        for code, entry in doc["per_cwe"].items()
    }
    overall = (_matrix_from(doc["overall"]["matrix"]), _metrics_from(doc["overall"]["metrics"]))
    return CweScorecard(per_cwe=per_cwe, overall=overall)


def _delta_from(doc: dict | None) -> Delta | None:
    if doc is None:
        return None
    return Delta(f1_abs=doc["f1_abs"], f1_rel=doc.get("f1_rel"))


def _comparison_from(doc: dict | None) -> ScorecardComparison | None:
    if doc is None:
        return None
    return ScorecardComparison(
        per_cwe={int(code): _delta_from(d) for code, d in doc["per_cwe"].items()},
        overall=_delta_from(doc["overall"]),
    )


def load_report(payload: bytes | str) -> Report:
    """Parse a JSON report back into an equal Report."""
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ReportFormatError("unsupported or missing report schema_version")
    try:
        timing = doc["timing"]
        stats = FilterStats(
            batch_count=doc["stats"]["batch_count"],
            llm_calls=doc["stats"]["llm_calls"],
            fail_open_events=tuple(
                (e["batch_index"], e["cause"]) for e in doc["fail_open_events"]
            ),
            total_latency=timing["total_latency_seconds"],
            wall_time=timing["filter_wall_seconds"],
        )
        return Report(
            run_id=doc["run_id"],
            plan_summary=doc["plan"],
            retained=tuple(_filtered_from(d) for d in doc["retained"]),
            suppressed=tuple(_filtered_from(d) for d in doc["suppressed"]),
            fail_open_events=stats.fail_open_events,
            stats=stats,
            scorecard=_scorecard_from(doc.get("scorecard")),
            baseline_deltas=_comparison_from(doc.get("baseline_deltas")),
            started_at=timing["started_at"],
            finished_at=timing["finished_at"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportFormatError(f"malformed report document: {exc}") from exc


# --- text rendering --------------------------------------------------------


def fmt_metric(value: float | None) -> str:
    return "n/a" if value is None else f"{round_display(value):.3f}"


def fmt_rel(value: float | None) -> str:
    return "n/a" if value is None else f"{value * 100:+.1f}%"


def format_scorecard_text(card: CweScorecard) -> list[str]:
    lines = [
        f"  {'scope':<10} {'tp':>5} {'fp':>5} {'tn':>5} {'fn':>5}"
        f"  {'prec':>6} {'rec':>6} {'f1':>6} {'fpr':>6} {'J':>6}"
    ]

    def row(label: str, cm: ConfusionMatrix, metrics: MetricSet) -> str:
        return (
            f"  {label:<10} {cm.tp:>5} {cm.fp:>5} {cm.tn:>5} {cm.fn:>5}"
            f"  {fmt_metric(metrics.precision):>6} {fmt_metric(metrics.recall):>6}"
            f" {fmt_metric(metrics.f1):>6} {fmt_metric(metrics.fpr):>6}"
            f" {fmt_metric(metrics.youden_j):>6}"
        )

    lines.append(row("overall", *card.overall))
    for code in sorted(card.per_cwe):
        cm, metrics = card.per_cwe[code]
        lines.append(row(f"CWE-{code}", cm, metrics))
    return lines


def format_comparison_text(comparison: ScorecardComparison) -> list[str]:
    lines = [f"  {'scope':<10} {'f1 abs':>8} {'f1 rel':>8}"]

    def row(label: str, delta: Delta | None) -> str:
        if delta is None:
            return f"  {label:<10} {'n/a':>8} {'n/a':>8}"
        return f"  {label:<10} {delta.f1_abs:>+8.3f} {fmt_rel(delta.f1_rel):>8}"

    lines.append(row("overall", comparison.overall))
    for code in sorted(comparison.per_cwe):
        lines.append(row(f"CWE-{code}", comparison.per_cwe[code]))
    return lines


def _finding_line(ff: FilteredFinding) -> str:
    finding = ff.finding
    location = f"{finding.file_path}:{finding.start_line}"
    if finding.end_line != finding.start_line:
        location += f"-{finding.end_line}"
    return f"  [{finding.severity.value}] {location} {finding.cwe.label} {finding.cwe.name} ({finding.origin})"


def render_text(
    report: Report,
    *,
    max_retained: int = DEFAULT_RETAINED_DISPLAY,
    max_suppressed: int = DEFAULT_SUPPRESSED_DISPLAY,
) -> str:
    """Human-readable run summary; list sections are capped with a +N marker."""
    by_provenance = {p: 0 for p in Provenance}
    for ff in report.retained:
        by_provenance[ff.verdict.provenance] += 1
    cause_counts = report.stats.fail_open_counts

    lines = [
        f"run {report.run_id}",
        "=" * (4 + len(report.run_id)),
        f"retained findings   : {len(report.retained)}"
        f"  (evidence-verified {by_provenance[Provenance.EVIDENCE_VERIFIED]},"
        f" llm-decided {by_provenance[Provenance.LLM_DECISION]},"
        f" fail-open {by_provenance[Provenance.FAIL_OPEN]})",
        f"suppressed findings : {len(report.suppressed)}",
    ]
    if report.fail_open_events:
        causes = ", ".join(f"{cause} x{count}" for cause, count in sorted(cause_counts.items()))
        lines.append(f"fail-open events    : {len(report.fail_open_events)}  ({causes})")
    else:
        lines.append("fail-open events    : none")
    lines.append(
        f"batches             : {report.stats.batch_count}"
        f"  llm calls: {report.stats.llm_calls}"
        f"  summed call time: {report.stats.total_latency:.2f}s"
        f"  filter wall time: {report.stats.wall_time:.2f}s"
    )

    if report.scorecard is not None:
        total = report.scorecard.overall[0].total
        lines.append("")
        lines.append(f"metrics vs ground truth ({total} test cases):")
        lines.extend(format_scorecard_text(report.scorecard))
    if report.baseline_deltas is not None:
        lines.append("")
        lines.append("f1 deltas vs baseline:")
        lines.extend(format_comparison_text(report.baseline_deltas))

    lines.append("")
    lines.append(f"retained (top {max_retained} by severity):")
    if report.retained:
        ranked = sorted(
            enumerate(report.retained),
            key=lambda pair: (_SEVERITY_RANK[pair[1].finding.severity], pair[0]),
        )
        shown = [ff for _, ff in ranked[:max_retained]]
        lines.extend(_finding_line(ff) for ff in shown)
        if len(report.retained) > max_retained:
            lines.append(f"  (+{len(report.retained) - max_retained} more)")
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("suppressed:")
    if report.suppressed:
        for ff in report.suppressed[:max_suppressed]:
            rationale = ff.verdict.rationale or ""
            lines.append(_finding_line(ff) + (f" -- {rationale}" if rationale else ""))
        if len(report.suppressed) > max_suppressed:
            lines.append(f"  (+{len(report.suppressed) - max_suppressed} more)")
    else:
        lines.append("  (none)")

    return "\n".join(lines) + "\n"
