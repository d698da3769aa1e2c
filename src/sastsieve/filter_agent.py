"""Contextual review of scanner findings with fail-open retention.

Unverified findings are batched, each batch is turned into a prompt with
source context, sent to an LLM backend, and the structured response is
validated. A finding is suppressed only when a well-formed response names
its id as a false positive; every failure mode retains findings instead.

Within a batch, findings that share a source file share one context block:
the union of the windows each finding would get on its own, read from the
file once.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
import stat
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from .backends import BackendError, BackendTimeoutError, LlmRequest, holding_slot
from .model import (
    Classification,
    FailOpenCause,
    FilteredFinding,
    Finding,
    Verdict,
    replace_surrogates,
)

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import MissionPlan

log = logging.getLogger(__name__)

DEFAULT_CONTEXT_BUDGET = 16_000

FINDINGS_PLACEHOLDER = "{{findings_block}}"
FINDING_HEADER = "### Finding "
_TRUNCATION_MARKER = "[... source truncated ...]\n"
_BACKTICK_RUN = re.compile(r"`+")

SYSTEM_TEXT = (
    "You review static-analysis security findings and decide, from the "
    "provided source context, whether each one is a true positive (really "
    "exploitable) or a false positive (the flagged pattern is safe in "
    "context, e.g. the input is sanitized, validated, encoded, or "
    "parameterized before reaching the sink).\n"
    "Answer ONLY with a single JSON object, no prose and no code fences, "
    "of exactly this shape:\n"
    '{"results": [{"finding_id": "<id>", '
    '"classification": "true_positive" | "false_positive", '
    '"rationale": "<one short sentence>"}]}\n'
    "The results array must contain exactly one entry for every finding_id "
    "listed in the request, and no others."
)

# Every request digest covers these bytes: an edit makes each recorded cassette miss.
DEFAULT_TEMPLATE = (
    "Each section below describes one static-analysis security finding together\n"
    "with the source code it points at. For every finding, decide whether it is a\n"
    "true positive (a really exploitable vulnerability) or a false positive (the\n"
    "flagged pattern is safe in context, for example because the input is\n"
    "sanitized, validated, encoded, or handled through a parameterized API before\n"
    "it reaches the dangerous sink).\n"
    "\n"
    "{{findings_block}}\n"
    "\n"
    "Classify every finding listed above.\n"
)


class FilterError(RuntimeError):
    """Raised for batch failures only when fail-open is disabled."""


@dataclass(frozen=True)
class Batch:
    """A slice of findings reviewed in one LLM call."""

    index: int
    findings: tuple[Finding, ...]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("batch index must be non-negative")
        if not self.findings:
            raise ValueError("a batch holds at least one finding")


@dataclass(frozen=True)
class FailOpenEvent:
    """One fail-open cause arising in a batch: per failed batch, or per finding."""

    batch_index: int
    cause: FailOpenCause


# The causes that arise per finding; any other is its batch's failure.
_PER_FINDING_CAUSES = (FailOpenCause.MISSING_ENTRY, FailOpenCause.SOURCE_UNAVAILABLE)


@dataclass(frozen=True)
class FilterStats:
    """The filter's call accounting, derived from its verdicts by ``of``."""

    batch_count: int
    llm_calls: int

    @classmethod
    def of(cls, reviewed: Sequence[FilteredFinding]) -> FilterStats:
        """The batches the findings came from, and how many of them called the
        model: a batch whose every source was unavailable sent nothing."""
        called = {ff.batch_index for ff in reviewed if ff.verdict.cause is not FailOpenCause.SOURCE_UNAVAILABLE}
        return cls(len({ff.batch_index for ff in reviewed}), len(called))


def fail_open_events(reviewed: Sequence[FilteredFinding]) -> tuple[FailOpenEvent, ...]:
    """Per batch in order: one event for the batch's failure, which every
    finding it sent carries, then one per finding with a per-finding cause."""
    events = [FailOpenEvent(ff.batch_index, ff.verdict.cause) for ff in reviewed if ff.verdict.cause is not None]
    failures = dict.fromkeys(event for event in events if event.cause not in _PER_FINDING_CAUSES)
    per_finding = [event for event in events if event.cause in _PER_FINDING_CAUSES]
    return tuple(sorted([*failures, *per_finding], key=lambda e: (e.batch_index, e.cause in _PER_FINDING_CAUSES)))


def partition_batches(findings: Sequence[Finding], size: int) -> list[Batch]:
    """Split findings in order into ceil(n / size) batches of at most `size`."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    batches = []
    for index, start in enumerate(range(0, len(findings), size)):
        chunk = findings[start : start + size]
        batches.append(Batch(index=index, findings=tuple(chunk)))
    return batches


def _read_source(real_root: str, file_path: str) -> str:
    """The text of ``file_path`` under an already resolved root.

    Symlinks and ``..`` are resolved first; a path that lands outside the
    root raises PermissionError, so only files inside the root are read.
    Anything but a regular file raises OSError unopened: opening a FIFO
    would block until a writer came.
    """
    path = os.path.realpath(os.path.join(real_root, file_path))
    if path != real_root and not path.startswith(os.path.join(real_root, "")):
        raise PermissionError(f"{file_path!r} resolves outside the source root {real_root}")
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"{file_path!r} is not a regular file")
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _line_window(lines: list[str], finding: Finding, budget: int) -> tuple[int, int]:
    """The inclusive line range shown for a finding in a file over budget.

    The range always holds the finding's (clamped) lines and grows outward
    at line boundaries while it and two truncation markers fit the budget.
    """
    last = len(lines) - 1
    lo = min(finding.start_line - 1, last)
    hi = min(finding.end_line - 1, last)
    remaining = budget - 2 * len(_TRUNCATION_MARKER)
    size = sum(len(lines[i]) for i in range(lo, hi + 1))
    while True:
        grew = False
        if lo > 0 and size + len(lines[lo - 1]) <= remaining:
            lo -= 1
            size += len(lines[lo])
            grew = True
        if hi < last and size + len(lines[hi + 1]) <= remaining:
            hi += 1
            size += len(lines[hi])
            grew = True
        if not grew:
            break
    return lo, hi


def _file_context(text: str, findings: Sequence[Finding], budget: int) -> str:
    """The union of the findings' windows on one file, each line once.

    A file within the budget is every finding's window and comes back
    verbatim. Otherwise the windows' line ranges are merged, and a
    truncation marker stands for each stretch of omitted lines.
    """
    if len(text) <= budget:
        return text
    # Lines end only at LF, CR and CRLF, as in Java and in scanner line
    # numbers; str.splitlines would also split at form feeds and U+2028.
    lines = io.StringIO(text, newline="").readlines()
    parts = []
    shown = 0  # index of the first line not yet shown
    for lo, hi in sorted(_line_window(lines, f, budget) for f in findings):
        if lo > shown:
            parts.append(_TRUNCATION_MARKER)
        parts.extend(lines[max(lo, shown) : hi + 1])
        shown = max(shown, hi + 1)
    if shown < len(lines):
        parts.append(_TRUNCATION_MARKER)
    return "".join(parts)


def read_source_context(
    finding: Finding,
    root: Path | str,
    budget: int = DEFAULT_CONTEXT_BUDGET,
) -> str:
    """Read the finding's source file, windowed around its lines when large.

    Files within the budget are returned verbatim. Larger files yield a
    window that always contains the finding's (clamped) line range, grown
    outward at line boundaries until the budget is reached, with truncation
    markers for omitted regions. Raises OSError when the file is missing or
    resolves outside the root.
    """
    text = _read_source(os.path.realpath(root), finding.file_path)
    return _file_context(text, [finding], budget)


def _fence(context: str) -> str:
    """A code fence longer than any backtick run in the context (CommonMark)."""
    if "```" not in context:  # the common case, and much faster than the scan
        return "```"
    longest = max(len(run) for run in _BACKTICK_RUN.findall(context))
    return "`" * max(3, longest + 1)


def _findings_block(batch: Batch, sources: Mapping[str, str], budget: int) -> str:
    """One metadata section per finding; one context block per source file.

    Findings are grouped by file in order of first appearance. A file's
    findings keep their batch order and are followed by the file's shared
    context block. A file absent from ``sources`` gets an empty block.
    """
    by_file: dict[str, list[Finding]] = {}
    for finding in batch.findings:
        by_file.setdefault(finding.file_path, []).append(finding)
    sections = []
    for file_path, findings in by_file.items():
        for finding in findings:
            sections.append(
                "\n".join(
                    [
                        f"{FINDING_HEADER}{finding.id}",
                        f"- type: {finding.cwe.name} ({finding.cwe.label})",
                        f"- file: {finding.file_path}",
                        f"- lines: {finding.start_line}-{finding.end_line}",
                        f"- severity: {finding.severity.value}",
                        f"- reported by: {finding.origin}",
                        f"- scanner message: {finding.description}",
                        "",
                    ]
                )
            )
        context = _file_context(sources.get(file_path, ""), findings, budget).rstrip("\n")
        fence = _fence(context)
        sections.append("\n".join(["Source context:", fence, context, fence, ""]))
    return "\n".join(sections)


def build_prompt(
    batch: Batch,
    template: str,
    *,
    sources: Mapping[str, str] | None = None,
    context_budget: int = DEFAULT_CONTEXT_BUDGET,
    model_id: str = "",
) -> LlmRequest:
    """Render the batch into a request via the template's findings placeholder.

    ``sources`` maps a finding's file path to the file's text; each file's
    context is windowed from it with ``context_budget`` per finding. A
    template without the placeholder gets the block appended.
    """
    block = _findings_block(batch, sources or {}, context_budget)
    if FINDINGS_PLACEHOLDER in template:
        user_text = template.replace(FINDINGS_PLACEHOLDER, block)
    else:
        user_text = template.rstrip("\n") + "\n\n" + block
    return LlmRequest(
        model_id=model_id,
        system_text=SYSTEM_TEXT,
        user_text=user_text,
        finding_ids=tuple(finding.id for finding in batch.findings),
    )


def _strip_fences(raw: str) -> str:
    text = raw.strip()
    if text.startswith("```") and text.endswith("```") and len(text) > 6:
        body = text[3:-3]
        newline = body.find("\n")
        if newline != -1 and (not body[:newline].strip() or body[:newline].strip().isalpha()):
            body = body[newline + 1 :]
        text = body.strip()
    return text


def parse_llm_response(raw: str, batch: Batch) -> dict[str, Verdict] | None:
    """Validate the backend's raw text against the verdict schema.

    Returns the verdicts by finding id, or None for a malformed response:
    anything that is not exactly one JSON object of the documented shape.
    Records naming finding ids outside the batch are dropped with a warning.
    Lone surrogates in a rationale become U+FFFD.
    """
    try:
        document = json.loads(_strip_fences(raw))
    except (ValueError, RecursionError):  # ValueError also covers over-long integers
        return None
    if not isinstance(document, dict) or not isinstance(document.get("results"), list):
        return None

    known_ids = {finding.id for finding in batch.findings}
    records: dict[str, Verdict] = {}
    for item in document["results"]:
        if not isinstance(item, dict) or not isinstance(item.get("finding_id"), str):
            return None
        try:
            classification = Classification(item.get("classification"))
        except ValueError:
            return None
        rationale = item.get("rationale", "")
        if not isinstance(rationale, str):
            return None
        fid = item["finding_id"]
        if fid not in known_ids:
            log.warning("batch %d: dropping verdict for unknown finding id %r", batch.index, fid)
            continue
        if fid in records:
            log.warning("batch %d: duplicate verdict for %r; keeping the first", batch.index, fid)
            continue
        records[fid] = Verdict.llm(classification, replace_surrogates(rationale))
    return records


def apply_verdicts(
    batch: Batch,
    verdicts: Mapping[str, Verdict],
    cause: FailOpenCause = FailOpenCause.MISSING_ENTRY,
) -> list[FilteredFinding]:
    """Attach verdicts to every finding of the batch, exactly once each.

    A finding takes its verdict by id, or else is retained fail-open under
    ``cause``: the batch's failure, or missing_entry when the answer parsed.
    """
    fallback = Verdict.fail_open(cause)
    return [FilteredFinding(f, verdicts.get(f.id, fallback), batch.index) for f in batch.findings]


def _read_sources(batch: Batch, root: Path | None) -> tuple[dict[str, str], dict[str, Verdict]]:
    """Each distinct source file of the batch, read once.

    Returns the texts by file path and a source_unavailable verdict for each
    finding whose file is missing, unreadable or outside the root.
    """
    if root is None:
        return {}, {}
    real_root = os.path.realpath(root)
    texts: dict[str, str] = {}
    unreadable: set[str] = set()
    for finding in batch.findings:
        path = finding.file_path
        if path in texts or path in unreadable:
            continue
        try:
            texts[path] = _read_source(real_root, path)
        except (OSError, ValueError) as exc:
            log.warning("batch %d: source context unavailable: %s", batch.index, exc)
            unreadable.add(path)
    verdict = Verdict.fail_open(FailOpenCause.SOURCE_UNAVAILABLE)
    return texts, {f.id: verdict for f in batch.findings if f.file_path in unreadable}


def _review(
    batch: Batch, backend, template: str, plan: MissionPlan
) -> tuple[list[FilteredFinding], float]:
    """Every finding of the batch with its verdict, and the backend call's time.

    Findings whose source is unavailable are left out of the prompt; when
    that leaves none, the backend is not called and the time is 0.
    """
    sources, left_out = _read_sources(batch, plan.target_root)
    kept = tuple(f for f in batch.findings if f.id not in left_out)
    if not kept:
        return apply_verdicts(batch, left_out), 0.0
    sent = Batch(batch.index, kept)
    request = build_prompt(
        sent,
        template,
        sources=sources,
        context_budget=plan.context_budget,
        model_id=plan.model,
    )
    started = time.perf_counter()
    try:
        raw = backend.complete(request)
        cause = FailOpenCause.MISSING_ENTRY  # for any finding the answer leaves out
    except BackendTimeoutError as exc:
        log.warning("batch %d: backend timed out: %s", batch.index, exc)
        cause = FailOpenCause.TIMEOUT
    except BackendError as exc:
        log.warning("batch %d: backend failed: %s", batch.index, exc)
        cause = FailOpenCause.TRANSPORT_ERROR
    except Exception as exc:  # backend contract violation; still fail open
        log.error("batch %d: unexpected backend error: %s", batch.index, exc)
        cause = FailOpenCause.TRANSPORT_ERROR
    latency = time.perf_counter() - started
    verdicts = parse_llm_response(raw, sent) if cause is FailOpenCause.MISSING_ENTRY else {}
    if verdicts is None:
        verdicts, cause = {}, FailOpenCause.MALFORMED_RESPONSE
    return apply_verdicts(batch, {**verdicts, **left_out}, cause), latency


def filter_findings(
    findings: Sequence[Finding],
    backend,
    plan: MissionPlan,
    template: str,
) -> tuple[list[FilteredFinding], list[FilteredFinding], float]:
    """Review findings in batches: the retained, the suppressed, and the
    summed time of the backend calls.

    The plan gives the batch size, parallelism, source root, context budget,
    model and fail-open setting; ``template`` is the prompt template's text.
    The findings are planned into batches, dispatched with at most
    ``plan.parallelism`` model requests in flight, and collected in batch
    order.
    The union of retained and suppressed is exactly the input; ordering
    follows the original finding order regardless of batch completion
    order. All backend failures are absorbed as fail-open retention unless
    fail-open is disabled, in which case no batch is sent after one yields a
    fail-open verdict, and the first such verdict raises FilterError.
    """
    batches = partition_batches(findings, plan.batch_size)

    # Parallelism bounds the model requests in flight, not the threads: each
    # batch is submitted holding one of the slots, and a batch waiting out a
    # retry backoff lends its slot to the next one.
    slots = threading.Semaphore(plan.parallelism)
    failed = threading.Event()  # set only with fail-open disabled

    def review(batch: Batch) -> tuple[list[FilteredFinding], float]:
        with holding_slot(slots):
            reviewed = _review(batch, backend, template, plan)
            failure = next((ff for ff in reviewed[0] if ff.verdict.cause is not None), None)
            if failure is not None and not plan.fail_open:
                failed.set()  # before the slot is given back
                raise FilterError(f"batch {batch.index}: finding {failure.finding.id} failed "
                                  f"({failure.verdict.cause.value}) with fail-open disabled")
            return reviewed

    with ThreadPoolExecutor(max_workers=max(1, len(batches))) as pool:
        futures = []
        for batch in batches:
            slots.acquire()
            if failed.is_set():
                break  # the batches sent are a prefix holding the failed one
            futures.append(pool.submit(review, batch))
        reviews = [future.result() for future in futures]  # the first failed batch raises here

    retained = [ff for reviewed, _ in reviews for ff in reviewed if ff.verdict.retained]
    suppressed = [ff for reviewed, _ in reviews for ff in reviewed if not ff.verdict.retained]
    return retained, suppressed, sum(latency for _, latency in reviews)
