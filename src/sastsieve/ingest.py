"""Parse raw scanner output and normalize it into findings.

The parser understands Semgrep-style JSON: a top-level ``results`` list where
each result carries ``check_id``, ``path``, ``start.line``, ``end.line``,
``extra.severity``, ``extra.message`` and optionally
``extra.metadata.cwe`` (a string or a list of strings).
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from typing import Mapping

from .model import (
    ConfigError,
    CweCategory,
    Finding,
    Severity,
    TestCaseId,
    finding_id,
    record_lines,
    replace_surrogates,
)

log = logging.getLogger(__name__)

_CWE_TAG = re.compile(r"CWE[-_ ]?(\d+)", re.IGNORECASE)

# Unknown severity labels fold to warning: scoring never consults severity,
# reports do.
_SEVERITY_FOLD = {
    "info": Severity.INFO,
    "low": Severity.INFO,
    "note": Severity.INFO,
    "informational": Severity.INFO,
    "warning": Severity.WARNING,
    "warn": Severity.WARNING,
    "medium": Severity.WARNING,
    "moderate": Severity.WARNING,
    "error": Severity.ERROR,
    "high": Severity.ERROR,
    "critical": Severity.ERROR,
}


class ScannerOutputError(ValueError):
    """Raised when the scanner document is not valid JSON or lacks results."""


@dataclass(frozen=True)
class RawFinding:
    """One scanner result before normalization."""

    rule_id: str
    file_path: str
    start_line: int
    end_line: int
    severity_label: str
    message: str
    cwe_tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class CweMappingTable:
    """Maps scanner-reported CWE codes onto scoring categories.

    ``aliases`` redirects scanner vocabularies onto the benchmark codes
    (e.g. 326 -> 327); a code that is not a benchmark category is "Other".
    """

    aliases: Mapping[int, int]

    @classmethod
    def default(cls) -> "CweMappingTable":
        # 326 tags weak-crypto strength variants, 759/760 tag unsalted/salted
        # one-way hashes; scanners commonly report these for the 327/328
        # benchmark categories.
        return cls(aliases={326: 327, 759: 328, 760: 328})

    @classmethod
    def load(cls, text: str) -> "CweMappingTable":
        """Parse an alias override file: one ``alias_code -> category_code`` per line."""
        aliases = dict(cls.default().aliases)
        for lineno, stripped in record_lines(text):
            try:
                left, sep, right = stripped.partition("->")
                if not sep:
                    raise ValueError(f"expected 'alias -> category', got {stripped!r}")
                aliases[int(left.strip())] = CweCategory(int(right.strip())).code
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from exc
        return cls(aliases=aliases)


@dataclass(frozen=True)
class ParsedScan:
    """Result of parsing one scanner document."""

    findings: tuple[RawFinding, ...]
    skipped: int


def _cwe_tags(extra: dict) -> tuple[str, ...]:
    metadata = extra.get("metadata", {})
    if not isinstance(metadata, dict):
        return ()
    cwe = metadata.get("cwe")
    if cwe is None:
        return ()
    if isinstance(cwe, str):
        return (cwe,)
    if isinstance(cwe, list):
        return tuple(str(tag) for tag in cwe)
    return (str(cwe),)


def parse_scanner_output(payload: bytes | str) -> ParsedScan:
    """Parse the scanner's JSON document into raw findings.

    Results lacking a path or a start line that is a positive integer (JSON
    true is not one) are skipped and counted; the rest keep their order.
    Lone surrogates in the rule id, path and message become U+FFFD.
    """
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8-sig", errors="replace")
    try:
        document = json.loads(payload)
    except (ValueError, RecursionError) as exc:  # ValueError also covers over-long integers
        raise ScannerOutputError(f"scanner output is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or not isinstance(document.get("results"), list):
        raise ScannerOutputError("scanner output lacks a top-level 'results' array")

    findings: list[RawFinding] = []
    skipped = 0
    for result in document["results"]:
        if not isinstance(result, dict):
            skipped += 1
            continue
        path = result.get("path")
        start = result.get("start", {})
        start_line = start.get("line") if isinstance(start, dict) else None
        if not isinstance(path, str) or not path or type(start_line) is not int or start_line < 1:
            skipped += 1
            continue
        end = result.get("end", {})
        end_line = end.get("line") if isinstance(end, dict) else None
        if type(end_line) is not int or end_line < start_line:
            end_line = start_line
        extra = result.get("extra", {})
        if not isinstance(extra, dict):
            extra = {}
        findings.append(
            RawFinding(
                rule_id=replace_surrogates(str(result.get("check_id", ""))),
                file_path=replace_surrogates(path),
                start_line=start_line,
                end_line=end_line,
                severity_label=str(extra.get("severity", "")),
                message=replace_surrogates(str(extra.get("message", ""))),
                cwe_tags=_cwe_tags(extra),
            )
        )
    if skipped:
        log.warning("skipped %d scanner results lacking a path or start line", skipped)
    return ParsedScan(findings=tuple(findings), skipped=skipped)


def map_cwe(cwe_tags: tuple[str, ...] | list[str], table: CweMappingTable) -> CweCategory:
    """Map scanner CWE tags onto a category via the first parseable code.

    Returns the code-0 "Other" category when no tag parses. Total function.
    """
    code = None
    for tag in cwe_tags:
        match = _CWE_TAG.search(tag)
        digits = match.group(1) if match else tag.strip()
        if not digits.isdigit():
            continue
        try:
            code = int(digits)
            break
        except ValueError:  # "²" passes isdigit(); int() refuses over 4,300 digits
            continue
    if code is None:
        return CweCategory(0)
    if len(cwe_tags) > 1:
        log.warning("finding carries %d CWE tags; using the first parseable one (CWE-%d)",
                    len(cwe_tags), code)
    return CweCategory(table.aliases.get(code, code))


def fold_severity(label: str) -> Severity:
    return _SEVERITY_FOLD.get(label.strip().lower(), Severity.WARNING)


def normalize(raw: RawFinding, table: CweMappingTable) -> Finding:
    """Turn a raw scanner result into a Finding with a stable derived id."""
    cwe = map_cwe(raw.cwe_tags, table)
    origin = f"semgrep:{raw.rule_id}"
    return Finding(
        id=finding_id(origin, raw.file_path, raw.start_line, cwe.code),
        cwe=cwe,
        file_path=raw.file_path,
        start_line=raw.start_line,
        end_line=raw.end_line,
        severity=fold_severity(raw.severity_label),
        description=raw.message,
        origin=origin,
    )


def dedupe_by_testcase(findings: list[Finding]) -> list[Finding]:
    """Keep the first finding per (test_id, CWE code) pair.

    A finding without a test id is keyed by its id, so of those only
    identical scanner results (which hash to one id) collapse; ids stay
    pairwise distinct within a run. Idempotent and order-preserving.
    """
    seen: set[tuple[TestCaseId, int] | str] = set()
    out: list[Finding] = []
    for finding in findings:
        key = finding.id if finding.test_id is None else (finding.test_id, finding.cwe.code)
        if key not in seen:
            seen.add(key)
            out.append(finding)
    return out
