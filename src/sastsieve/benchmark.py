"""Load and validate benchmark ground truth.

The expected-results file is comma separated: test name, category name,
true/false vulnerability flag, numeric CWE code. Lines starting with ``#``
are comments; extra trailing columns are ignored; both LF and CRLF line
endings are accepted and fields are trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import ConfigError, CweCategory, TestCaseId, record_lines


@dataclass(frozen=True)
class GroundTruthEntry:
    test_id: TestCaseId
    is_vulnerable: bool
    cwe: CweCategory


# The benchmark label set: each test case's entry, keyed by its id.
GroundTruth = Mapping[TestCaseId, GroundTruthEntry]


def load_ground_truth(text: str) -> GroundTruth:
    """Parse the expected-results document into its entries by test case id.

    Raises ConfigError with the offending line number on malformed
    records, on a repeated test name, and on a document with no records.
    """
    entries: dict[TestCaseId, GroundTruthEntry] = {}
    for lineno, stripped in record_lines(text):
        try:
            fields = [part.strip() for part in stripped.split(",")]
            if len(fields) < 4:
                raise ValueError(f"expected at least 4 comma-separated fields, got {len(fields)}")
            name, _category, flag, code = fields[:4]
            test_id = TestCaseId(name)
            if flag.lower() not in ("true", "false"):
                raise ValueError(f"vulnerability flag must be true/false, got {flag!r}")
            cwe = CweCategory(int(code))
            if test_id in entries:
                raise ValueError(f"duplicate test case {test_id}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
        entries[test_id] = GroundTruthEntry(
            test_id=test_id,
            is_vulnerable=flag.lower() == "true",
            cwe=cwe,
        )
    if not entries:
        raise ConfigError("ground-truth document contains no records")
    return entries
