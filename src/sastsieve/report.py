"""Render mission results as machine-readable and human-readable reports.

The JSON report is canonical (sorted keys, versioned schema) and round-trips
through ``load_report`` to an equal Report. Undefined metrics are encoded as
null in JSON and rendered "n/a" in text. Timing lives in its own section so
determinism checks can exclude it wholesale.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import typing
from collections import Counter, abc
from dataclasses import dataclass, field
from enum import Enum
from types import UnionType
from typing import TYPE_CHECKING, Callable, Collection, Union

from .benchmark import GroundTruth
from .filter_agent import FailOpenEvent, FilterStats, fail_open_events
from .model import ConfigError, CweCategory, FilteredFinding, Provenance, Severity, TestCaseId, replace_surrogates
from .scoring import (
    CweScorecard,
    Detection,
    ScorecardComparison,
    compare,
    round_display,
    score_per_cwe,
)

if TYPE_CHECKING:
    from .pipeline import MissionPlan

SCHEMA_VERSION = "3"

DEFAULT_RETAINED_DISPLAY = 20
DEFAULT_SUPPRESSED_DISPLAY = 10

_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class PlanSummary:
    """The run parameters and scanner counts a report records, each under its JSON key."""

    target_root: str | None
    scanner_mode: str = field(init=False)  # "load_saved" when there is a scan_json, else "invoke_external"
    scan_json: str | None
    scanner_cmd: str
    batch_size: int
    parallelism: int
    fail_open_enabled: bool
    ground_truth: str | None
    baseline: str | None
    model_id: str
    match_any_cwe: bool
    scanner_finding_count: int
    skipped_results: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "scanner_mode", "invoke_external" if self.scan_json is None else "load_saved")

    @classmethod
    def of(cls, plan: MissionPlan, scanner_finding_count: int, skipped_results: int) -> PlanSummary:
        """What a report records of ``plan`` and of the scanner's result counts."""
        summary = {
            "target_root": str(plan.target_root) if plan.target_root else None,
            "scan_json": str(plan.scan_json) if plan.scan_json else None,
            "scanner_cmd": plan.scanner_cmd,
            "batch_size": plan.batch_size,
            "parallelism": plan.parallelism,
            "fail_open_enabled": plan.fail_open,
            "ground_truth": str(plan.ground_truth) if plan.ground_truth else None,
            "baseline": str(plan.baseline) if plan.baseline else None,
            "model_id": plan.model,
            "match_any_cwe": plan.match_any_cwe,
            "scanner_finding_count": scanner_finding_count,
            "skipped_results": skipped_results,
        }
        # Paths from non-UTF-8 argv keep their lone surrogates so the files still
        # open; only the report's copy is repaired.
        return cls(**{k: replace_surrogates(v) if isinstance(v, str) else v for k, v in summary.items()})


@dataclass(frozen=True)
class Timing:
    """When a run started and finished and where its seconds went: the part
    of a report that differs between equal runs."""

    started_at: str = ""
    finished_at: str = ""
    total_latency_seconds: float = 0.0  # summed backend call time over all batches
    filter_wall_seconds: float = 0.0  # wall-clock time of the whole filter stage


@dataclass(frozen=True)
class Report:
    """Everything a mission produced, scored once ground truth is given;
    each field is the key of the JSON document it is written under.

    ``run_id`` is derived, a hash of the plan and every finding id, and so
    are ``stats`` and ``fail_open_events``, from the findings' verdicts.
    Each finding is listed once, under the list its verdict puts it in, and
    ``baseline_deltas`` covers the scorecard's CWE codes.
    """

    run_id: str = field(init=False)
    plan: PlanSummary
    retained: tuple[FilteredFinding, ...]
    suppressed: tuple[FilteredFinding, ...]
    stats: FilterStats = field(init=False)
    fail_open_events: tuple[FailOpenEvent, ...] = field(init=False)
    scorecard: CweScorecard | None = None
    baseline_deltas: ScorecardComparison | None = None
    timing: Timing = Timing()

    def __post_init__(self) -> None:
        reviewed = self.retained + self.suppressed
        misplaced = [ff for ff in self.retained if not ff.verdict.retained]
        misplaced += [ff for ff in self.suppressed if ff.verdict.retained]
        if misplaced:
            raise ValueError(f"finding {misplaced[0].finding.id} is listed against its verdict")
        ids = sorted(ff.finding.id for ff in reviewed)
        if (twice := next((a for a, b in zip(ids, ids[1:]) if a == b), None)) is not None:
            raise ValueError(f"finding {twice} is listed twice")
        deltas, card = self.baseline_deltas, self.scorecard
        if deltas is not None and (card is None or deltas.per_cwe.keys() != card.per_cwe.keys()):
            raise ValueError("baseline_deltas must cover exactly the scorecard's CWE codes")
        identity = json.dumps({"plan": dataclasses.asdict(self.plan), "findings": ids}, sort_keys=True)
        object.__setattr__(self, "run_id", hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12])
        object.__setattr__(self, "stats", FilterStats.of(reviewed))
        object.__setattr__(self, "fail_open_events", fail_open_events(reviewed))


def detections_of(kept: Collection[FilteredFinding]) -> set[Detection]:
    """The (test id, CWE code) pairs of kept findings that map to a test case."""
    return {
        (ff.finding.test_id, ff.finding.cwe.code)
        for ff in kept
        if ff.finding.test_id is not None
    }


def build_report(
    report: Report,
    gt: GroundTruth | None = None,
    baseline_detections: Collection[Detection] | None = None,
) -> Report:
    """The report scored against ground truth, with F1 deltas when a baseline
    is given; without ground truth, the report as it is."""
    if gt is None:
        return report
    match_any_cwe = report.plan.match_any_cwe
    scorecard = score_per_cwe(detections_of(report.retained), gt, match_any_cwe=match_any_cwe)
    deltas = None
    if baseline_detections is not None:
        deltas = compare(score_per_cwe(baseline_detections, gt, match_any_cwe=match_any_cwe), scorecard)
    return dataclasses.replace(report, scorecard=scorecard, baseline_deltas=deltas)


# --- JSON codec ------------------------------------------------------------
#
# Records are written field by field from their resolved types: enums and
# TestCaseId as their value, X | None as the value or null, tuples as lists,
# and Mapping[int, X] as an object keyed by str(code). One layout is a named
# exception: a CweCategory field is stored flat as <field>_code and
# <field>_name. Decoding rejects every other shape.


def _same(value: object) -> object:
    return value


def _expect(value: object, kind: type | tuple[type, ...]) -> object:
    """``value`` if it has the JSON type ``kind``: bools are no numbers, floats finite."""
    if isinstance(value, bool) and kind is not bool or not isinstance(value, kind):
        expected = kind.__name__ if isinstance(kind, type) else "a number"
        raise TypeError(f"expected {expected}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


@functools.cache
def _codec(tp: object) -> tuple[Callable, Callable]:
    """How a value of type ``tp`` is encoded to JSON data and decoded back.

    Worked out once per type: resolving type hints per record would cost
    more than the encoding itself.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (Union, UnionType):  # X | None
        encode, decode = _codec(args[0])
        return (
            _same if encode is _same else lambda value: None if value is None else encode(value),
            lambda doc: None if doc is None else decode(doc),
        )
    if origin is tuple and args[-1] is Ellipsis:
        encode, decode = _codec(args[0])
        return (
            lambda value: [encode(item) for item in value],
            lambda doc: tuple(decode(item) for item in _expect(doc, list)),
        )
    if origin is abc.Mapping:
        key, (encode, decode) = args[0], _codec(args[1])
        return (
            lambda value: {str(k): encode(v) for k, v in value.items()},
            lambda doc: {key(k): decode(v) for k, v in _expect(doc, dict).items()},
        )
    if tp is TestCaseId or isinstance(tp, type) and issubclass(tp, Enum):
        return (lambda value: value.value), tp
    if dataclasses.is_dataclass(tp):
        return _record_codec(tp)
    kind = (int, float) if tp is float else tp
    return _same, lambda doc: _expect(doc, kind)


def _record_codec(cls: type) -> tuple[Callable, Callable]:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    flat = [f.name for f in fields if hints[f.name] is CweCategory]
    codecs = [(f.name, f.init, *_codec(hints[f.name])) for f in fields if f.name not in flat]

    def encode(record):
        doc = {name: encode_field(getattr(record, name)) for name, _, encode_field, _ in codecs}
        for name in flat:
            cwe = getattr(record, name)
            doc[f"{name}_code"], doc[f"{name}_name"] = cwe.code, cwe.name
        return doc

    def decode(doc):
        _expect(doc, dict)
        # A field the record derives (init=False) is written but not read back.
        values = {name: decode_field(doc.get(name)) for name, init, _, decode_field in codecs if init}
        for name in flat:
            values[name] = CweCategory(_expect(doc.get(f"{name}_code"), int))
        return cls(**values)

    return encode, decode


def render_json(report: Report) -> bytes:
    """Canonical JSON rendering: sorted keys, versioned, newline-terminated."""
    doc = {"schema_version": SCHEMA_VERSION, **_codec(Report)[0](report)}
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def load_report(payload: bytes | str) -> Report:
    """Parse a JSON report back into an equal Report.

    Raises ConfigError for anything render_json could not have written:
    the report must render back to the document; the first path that differs is named.
    """
    try:
        doc = json.loads(payload)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"report is not valid JSON: {exc}") from exc
    found = doc.get("schema_version") if isinstance(doc, dict) else None
    if found is None:
        raise ConfigError(f'report has no schema_version; this version reads "{SCHEMA_VERSION}"')
    if found != SCHEMA_VERSION:
        raise ConfigError(f'report schema_version {json.dumps(found)} is not "{SCHEMA_VERSION}"')
    try:
        report = _codec(Report)[1](doc)
        # Fails on a lone surrogate, say from a \ud800 escape: UTF-8 cannot encode one.
        rendered = json.loads(render_json(report))
    except (TypeError, ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed report document: {exc}") from exc
    # A key the codec drops or a value it derives, such as a CWE name or a count, differs here.
    path, found, expected, absent = "", doc, rendered, object()
    while found != expected and isinstance(found, (dict, list)) and type(found) is type(expected):
        found, expected = (dict(enumerate(v)) if isinstance(v, list) else v for v in (found, expected))
        key = min(k for k in found.keys() | expected.keys() if found.get(k, absent) != expected.get(k, absent))
        path += f"[{key}]" if isinstance(key, int) else f".{key}"
        found, expected = found.get(key, absent), expected.get(key, absent)
    if path:
        found, expected = ("nothing" if v is absent else json.dumps(v, ensure_ascii=False) for v in (found, expected))
        raise ConfigError(
            f"document differs from the rendering of the report it holds at {path.lstrip('.')}: "
            f"document {found}, rendering {expected}"
        )
    return report


# --- text rendering --------------------------------------------------------


def fmt_metric(value: float | None) -> str:
    return "n/a" if value is None else f"{round_display(value):.3f}"


def format_scoring_text(
    card: CweScorecard, baseline: CweScorecard | None = None, deltas: ScorecardComparison | None = None
) -> list[str]:
    """The scoring section of a text report: the scorecard, then the
    baseline's own scorecard and the F1 deltas, each when given."""

    def scopes(scored: CweScorecard | ScorecardComparison) -> list[tuple[str, typing.Any]]:
        """The overall scope, then each CWE code in order, with what ``scored`` holds for it."""
        per_cwe = scored.per_cwe
        return [("overall", scored.overall), *((f"CWE-{code}", per_cwe[code]) for code in sorted(per_cwe))]

    def scorecard(title: str, scored: CweScorecard) -> list[str]:
        lines = [
            title,
            f"  {'scope':<10} {'tp':>5} {'fp':>5} {'tn':>5} {'fn':>5}"
            f"  {'prec':>6} {'rec':>6} {'f1':>6} {'fpr':>6} {'J':>6}",
        ]
        for label, score in scopes(scored):
            cm, metrics = score.matrix, score.metrics
            lines.append(
                f"  {label:<10} {cm.tp:>5} {cm.fp:>5} {cm.tn:>5} {cm.fn:>5}"
                f"  {fmt_metric(metrics.precision):>6} {fmt_metric(metrics.recall):>6}"
                f" {fmt_metric(metrics.f1):>6} {fmt_metric(metrics.fpr):>6}"
                f" {fmt_metric(metrics.youden_j):>6}"
            )
        return lines

    lines = scorecard(f"metrics vs ground truth ({card.overall.matrix.total} test cases):", card)
    if baseline is not None:
        lines += ["", *scorecard("baseline metrics:", baseline)]
    if deltas is not None:
        lines += ["", "f1 deltas vs baseline:", f"  {'scope':<10} {'f1 abs':>8} {'f1 rel':>8}"]
        for label, delta in scopes(deltas):
            if delta is None:
                lines.append(f"  {label:<10} {'n/a':>8} {'n/a':>8}")
            else:
                rel = "n/a" if delta.f1_rel is None else f"{delta.f1_rel * 100:+.1f}%"
                lines.append(f"  {label:<10} {delta.f1_abs:>+8.3f} {rel:>8}")
    return lines


# C0 and C1 controls, DEL and the Unicode line and paragraph separators, as backslash escapes.
_ESCAPES = {c: chr(c).encode("unicode_escape").decode() for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


def _printable(text: str) -> str:
    """Scanner or model text made unable to end or rewrite a line of the text report."""
    return text.translate(_ESCAPES)


def _finding_line(ff: FilteredFinding) -> str:
    finding = ff.finding
    location = f"{_printable(finding.file_path)}:{finding.start_line}"
    if finding.end_line != finding.start_line:
        location += f"-{finding.end_line}"
    return f"  [{finding.severity.value}] {location} {finding.cwe.label} {finding.cwe.name} ({_printable(finding.origin)})"


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
    cause_counts = Counter(event.cause.value for event in report.fail_open_events)

    lines = [
        f"run {report.run_id}",
        "=" * (4 + len(report.run_id)),
        f"retained findings   : {len(report.retained)}"
        f"  (llm-decided {by_provenance[Provenance.LLM_DECISION]},"
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
        f"  summed call time: {report.timing.total_latency_seconds:.2f}s"
        f"  filter wall time: {report.timing.filter_wall_seconds:.2f}s"
    )

    if report.scorecard is not None:
        lines += ["", *format_scoring_text(report.scorecard, deltas=report.baseline_deltas)]

    lines.append("")
    lines.append(f"retained (top {max_retained} by severity):")
    if report.retained:
        ranked = sorted(report.retained, key=lambda ff: _SEVERITY_RANK[ff.finding.severity])
        lines.extend(_finding_line(ff) for ff in ranked[:max_retained])
        if len(report.retained) > max_retained:
            lines.append(f"  (+{len(report.retained) - max_retained} more)")
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("suppressed:")
    if report.suppressed:
        for ff in report.suppressed[:max_suppressed]:
            rationale = ff.verdict.rationale or ""
            lines.append(_finding_line(ff) + (f" -- {_printable(rationale)}" if rationale else ""))
        if len(report.suppressed) > max_suppressed:
            lines.append(f"  (+{len(report.suppressed) - max_suppressed} more)")
    else:
        lines.append("  (none)")

    return "\n".join(lines) + "\n"
