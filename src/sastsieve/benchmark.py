"""Load and validate benchmark ground truth.

The expected-results file is comma separated: test name, category name,
true/false vulnerability flag, numeric CWE code. Lines starting with ``#``
are comments; extra trailing columns are ignored; both LF and CRLF line
endings are accepted and fields are trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import CweCategory, TestCaseId, record_lines


class GroundTruthError(ValueError):
    """Raised on malformed or duplicate ground-truth records."""


@dataclass(frozen=True)
class GroundTruthEntry:
    test_id: TestCaseId
    category_name: str
    is_vulnerable: bool
    cwe: CweCategory


# The benchmark label set: each test case's entry, keyed by its id.
GroundTruth = Mapping[TestCaseId, GroundTruthEntry]


def _parse_flag(raw: str, lineno: int) -> bool:
    lowered = raw.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise GroundTruthError(f"line {lineno}: vulnerability flag must be true/false, got {raw!r}")


def load_ground_truth(payload: bytes | str) -> GroundTruth:
    """Parse the expected-results document into its entries by test case id.

    Raises GroundTruthError with the offending line number on malformed
    records, on a repeated test name, and on a document with no records.
    """
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8-sig", errors="replace")
    entries: dict[TestCaseId, GroundTruthEntry] = {}
    for lineno, stripped in record_lines(payload):
        fields = [part.strip() for part in stripped.split(",")]
        if len(fields) < 4:
            raise GroundTruthError(
                f"line {lineno}: expected at least 4 comma-separated fields, got {len(fields)}"
            )
        name, category, flag_raw, code_raw = fields[:4]
        try:
            test_id = TestCaseId(name)
        except ValueError as exc:
            raise GroundTruthError(f"line {lineno}: {exc}") from exc
        is_vulnerable = _parse_flag(flag_raw, lineno)
        try:
            code = int(code_raw)
        except ValueError as exc:
            raise GroundTruthError(f"line {lineno}: CWE code is not numeric: {code_raw!r}") from exc
        try:
            cwe = CweCategory(code)
        except ValueError as exc:
            raise GroundTruthError(f"line {lineno}: {exc}") from exc
        if test_id in entries:
            raise GroundTruthError(f"line {lineno}: duplicate test case {test_id}")
        entries[test_id] = GroundTruthEntry(
            test_id=test_id,
            category_name=category,
            is_vulnerable=is_vulnerable,
            cwe=cwe,
        )
    if not entries:
        raise GroundTruthError("ground-truth document contains no records")
    return entries
