"""Shared fixtures.

The ground-truth fixture reconstructs the published benchmark distribution
exactly: 2,740 test cases over eleven CWE categories with the known
per-category vulnerable/safe split. Detection fixtures for the filtered
pipeline and for the baseline scanner reproduce both tools' published
per-category confusion cells (their sums equal the published overall
confusion matrices).
"""

from __future__ import annotations

import pytest

from sastsieve.benchmark import GroundTruth, load_ground_truth
from sastsieve.model import CweCategory, Finding, Severity, TestCaseId

# (cwe code, csv category name, vulnerable, safe)
CATEGORY_ROWS = [
    (22, "pathtraver", 133, 135),
    (78, "cmdi", 126, 125),
    (79, "xss", 246, 209),
    (89, "sqli", 272, 232),
    (90, "ldapi", 27, 32),
    (327, "crypto", 130, 116),
    (328, "hash", 129, 107),
    (330, "weakrand", 218, 275),
    (501, "trustbound", 83, 43),
    (614, "securecookie", 36, 31),
    (643, "xpathi", 15, 20),
]

TOTAL_CASES = 2740
TOTAL_VULNERABLE = 1415
TOTAL_SAFE = 1325

# Published per-category (tp, fp) cells for the LLM-filtered pipeline and the
# baseline scanner; fn = vulnerable - tp and tn = safe - fp. These sum to the
# published overall confusion matrices (1233, 64, 1261, 182) and
# (1273, 560, 765, 142).
PIPELINE_CELLS = {
    22: (119, 14),
    78: (115, 25),
    79: (202, 3),
    89: (253, 13),
    90: (26, 8),
    327: (129, 0),
    328: (86, 0),
    330: (218, 0),
    501: (35, 0),
    614: (36, 0),
    643: (14, 1),
}
BASELINE_CELLS = {
    22: (120, 106),
    78: (117, 109),
    79: (202, 108),
    89: (253, 170),
    90: (26, 28),
    327: (130, 0),
    328: (89, 0),
    330: (218, 0),
    501: (68, 26),
    614: (36, 0),
    643: (14, 13),
}

PIPELINE_OVERALL = (1233, 64, 1261, 182)
BASELINE_OVERALL = (1273, 560, 765, 142)


def category_test_ids() -> dict[int, tuple[list[TestCaseId], list[TestCaseId]]]:
    """Sequential test ids per category: (vulnerable ids, safe ids)."""
    ids: dict[int, tuple[list[TestCaseId], list[TestCaseId]]] = {}
    counter = 1
    for code, _, vulnerable, safe in CATEGORY_ROWS:
        vuln_ids = [TestCaseId(f"BenchmarkTest{counter + i:05d}") for i in range(vulnerable)]
        counter += vulnerable
        safe_ids = [TestCaseId(f"BenchmarkTest{counter + i:05d}") for i in range(safe)]
        counter += safe
        ids[code] = (vuln_ids, safe_ids)
    return ids


def distribution_csv_bytes() -> bytes:
    """A ground-truth CSV with the exact published category distribution."""
    lines = ["# test name, category, real vulnerability, cwe, Benchmark version: 1.2"]
    ids = category_test_ids()
    by_code = {code: (name, ids[code]) for code, name, _, _ in CATEGORY_ROWS}
    for code, (name, (vuln_ids, safe_ids)) in by_code.items():
        for tid in vuln_ids:
            lines.append(f"{tid},{name},true,{code}")
        for tid in safe_ids:
            lines.append(f"{tid},{name},false,{code}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def detections_for(cells: dict[int, tuple[int, int]]) -> set[tuple[TestCaseId, int]]:
    """Detection pairs realizing the given per-category (tp, fp) cells."""
    ids = category_test_ids()
    detections: set[tuple[TestCaseId, int]] = set()
    for code, (tp, fp) in cells.items():
        vuln_ids, safe_ids = ids[code]
        detections.update((tid, code) for tid in vuln_ids[:tp])
        detections.update((tid, code) for tid in safe_ids[:fp])
    return detections


@pytest.fixture(scope="session")
def distribution_csv() -> str:
    return distribution_csv_bytes().decode()


@pytest.fixture(scope="session")
def ground_truth(distribution_csv) -> GroundTruth:
    return load_ground_truth(distribution_csv)


@pytest.fixture(scope="session")
def pipeline_detections() -> set[tuple[TestCaseId, int]]:
    return detections_for(PIPELINE_CELLS)


@pytest.fixture(scope="session")
def baseline_detections() -> set[tuple[TestCaseId, int]]:
    return detections_for(BASELINE_CELLS)


def make_finding(
    n: int,
    *,
    cwe: int = 89,
    test_num: int | None = None,
    file_path: str | None = None,
    severity: Severity = Severity.ERROR,
    start_line: int = 10,
    end_line: int | None = None,
) -> Finding:
    """A distinct, valid finding for property tests; ids unique per n."""
    if file_path is None:
        if test_num is not None:
            file_path = f"src/BenchmarkTest{test_num:05d}.java"
        else:
            file_path = f"src/helpers/Util{n}.java"
    return Finding(
        id=f"f{n:06d}",
        cwe=CweCategory(cwe),
        file_path=file_path,
        start_line=start_line,
        end_line=end_line if end_line is not None else start_line + 2,
        severity=severity,
        description=f"finding {n}",
        origin=f"semgrep:rule.{n}",
    )
