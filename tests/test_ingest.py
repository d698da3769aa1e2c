import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sastsieve.ingest import (
    CweMappingTable,
    RawFinding,
    ScannerOutputError,
    dedupe_by_testcase,
    fold_severity,
    map_cwe,
    normalize,
    parse_scanner_output,
)
from sastsieve.model import ConfigError, FailOpenCause, FilteredFinding, Severity, TestCaseId, Verdict
from tests.conftest import make_finding
from tests.strategies import any_text, assert_renders, json_values


def result_doc(path, start=10, end=12, check_id="java.lang.security.sqli", cwe="CWE-89: SQL Injection"):
    doc = {
        "check_id": check_id,
        "path": path,
        "start": {"line": start},
        "end": {"line": end},
        "extra": {"severity": "ERROR", "message": "user input reaches query"},
    }
    if cwe is not None:
        doc["extra"]["metadata"] = {"cwe": cwe}
    return doc


def scan_doc(results) -> bytes:
    return json.dumps({"results": results}).encode()


def test_parse_three_well_formed_results():
    parsed = parse_scanner_output(
        scan_doc([result_doc("a/B1.java"), result_doc("a/B2.java"), result_doc("a/B3.java")])
    )
    assert len(parsed.findings) == 3
    assert parsed.skipped == 0
    assert [f.file_path for f in parsed.findings] == ["a/B1.java", "a/B2.java", "a/B3.java"]


def test_parse_empty_results():
    parsed = parse_scanner_output(scan_doc([]))
    assert parsed.findings == () and parsed.skipped == 0


def test_parse_skips_results_missing_path_or_line():
    results = [result_doc("a/B1.java"), result_doc("a/B2.java"), result_doc("a/B3.java")]
    del results[1]["path"]
    parsed = parse_scanner_output(scan_doc(results))
    assert len(parsed.findings) == 2
    assert parsed.skipped == 1

    results = [result_doc("a/B1.java")]
    results[0]["start"] = {}
    parsed = parse_scanner_output(scan_doc(results))
    assert parsed.findings == () and parsed.skipped == 1


def test_parse_rejects_invalid_documents():
    with pytest.raises(ScannerOutputError):
        parse_scanner_output(b"not json at all")
    with pytest.raises(ScannerOutputError):
        parse_scanner_output(b"{\"no_results\": []}")
    with pytest.raises(ScannerOutputError):
        parse_scanner_output(b"[]")


def test_parse_reads_non_object_extra_as_empty():
    doc = result_doc("a.java")
    doc["extra"] = ["not", "an", "object"]
    parsed = parse_scanner_output(scan_doc([doc]))
    assert parsed.findings[0].cwe_tags == ()
    assert parsed.findings[0].severity_label == ""


def test_parse_rejects_documents_nested_past_the_recursion_limit():
    depth = 100_000
    with pytest.raises(ScannerOutputError):
        parse_scanner_output(b'{"results": ' + b"[" * depth + b"]" * depth + b"}")


def test_parse_skips_non_object_result_entries():
    parsed = parse_scanner_output(scan_doc([result_doc("a.java"), "bogus", 7]))
    assert len(parsed.findings) == 1 and parsed.skipped == 2


def test_parse_accepts_cwe_as_string_or_list():
    single = parse_scanner_output(scan_doc([result_doc("a.java", cwe="CWE-89: SQL Injection")]))
    listed = parse_scanner_output(scan_doc([result_doc("a.java", cwe=["CWE-89: SQL Injection", "CWE-564"])]))
    none = parse_scanner_output(scan_doc([result_doc("a.java", cwe=None)]))
    assert single.findings[0].cwe_tags == ("CWE-89: SQL Injection",)
    assert listed.findings[0].cwe_tags == ("CWE-89: SQL Injection", "CWE-564")
    assert none.findings[0].cwe_tags == ()


def test_parse_treats_boolean_line_numbers_as_missing():
    no_start, no_end = result_doc("a.java", start=True), result_doc("b.java", start=4, end=True)
    parsed = parse_scanner_output(scan_doc([no_start, no_end]))
    assert parsed.skipped == 1
    assert (parsed.findings[0].start_line, parsed.findings[0].end_line) == (4, 4)


def test_parse_clamps_missing_end_line():
    doc = result_doc("a.java", start=9)
    del doc["end"]
    parsed = parse_scanner_output(scan_doc([doc]))
    assert parsed.findings[0].end_line == 9


def test_parse_never_invents_findings():
    rng = random.Random(4242)
    for _ in range(50):
        results = []
        for i in range(rng.randint(0, 20)):
            doc = result_doc(f"f{i}.java")
            if rng.random() < 0.3:
                del doc["path"]
            results.append(doc)
        parsed = parse_scanner_output(scan_doc(results))
        assert len(parsed.findings) + parsed.skipped == len(results)
        assert len(parsed.findings) <= len(results)


def optional_keys(**fields):
    """Objects holding any subset of the given keys, or any other JSON value."""
    return st.fixed_dictionaries({}, optional=fields) | json_values


cwe_tags = any_text | st.from_regex(r"CWE-\d+", fullmatch=True)
scanner_results = optional_keys(
    check_id=json_values,
    path=any_text | json_values,
    start=optional_keys(line=st.integers(-1, 50) | json_values),
    end=optional_keys(line=st.integers(-1, 50) | json_values),
    extra=optional_keys(
        severity=st.sampled_from(["ERROR", "high", "low"]) | json_values,
        message=json_values,
        metadata=optional_keys(cwe=cwe_tags | st.lists(cwe_tags, max_size=3) | json_values),
    ),
)
scanner_documents = optional_keys(results=st.lists(scanner_results, max_size=5) | json_values)


@settings(max_examples=300, deadline=None)
@given(scanner_documents)
@example({"results": [{"check_id": None, "path": "00", "start": {"line": 1}}] * 2})  # one id, twice
def test_parse_raises_only_scanner_output_error_and_normalize_never_raises(document):
    try:
        parsed = parse_scanner_output(json.dumps(document))
    except ScannerOutputError:
        return
    table = CweMappingTable.default()
    # Deduped as a run dedupes them: identical scanner results share one id.
    findings = dedupe_by_testcase([normalize(raw, table) for raw in parsed.findings])
    assert_renders(FilteredFinding(f, Verdict.fail_open(FailOpenCause.MISSING_ENTRY), 0) for f in findings)


def test_map_cwe_benchmark_tag():
    cat = map_cwe(["CWE-89: SQL Injection"], CweMappingTable.default())
    assert (cat.code, cat.name) == (89, "SQL Injection")


def test_map_cwe_empty_tags():
    cat = map_cwe([], CweMappingTable.default())
    assert (cat.code, cat.name) == (0, "Other")


def test_map_cwe_applies_aliases():
    table = CweMappingTable.default()
    cat = map_cwe(["CWE-326"], table)
    assert (cat.code, cat.name) == (327, "Weak Cryptography")
    assert map_cwe(["CWE-759"], table).code == 328
    assert map_cwe(["CWE-760"], table).code == 328


def test_map_cwe_unknown_code_keeps_code_as_other():
    cat = map_cwe(["CWE-200"], CweMappingTable.default())
    assert (cat.code, cat.name) == (200, "Other")


def test_map_cwe_first_parseable_tag_wins():
    cat = map_cwe(["no code here", "89", "CWE-79"], CweMappingTable.default())
    assert cat.code == 89


def test_map_cwe_treats_tags_int_rejects_as_unparseable():
    table = CweMappingTable.default()
    # "²" passes str.isdigit(); more than 4,300 digits exceed int()'s limit.
    for tag in ("²", "9" * 5000, "CWE-" + "9" * 5000):
        assert map_cwe([tag], table).code == 0
    assert map_cwe(["²", "CWE-89"], table).code == 89


def test_mapping_table_load_overrides():
    table = CweMappingTable.load("# aliases\n200 -> 22\n326 -> 330\n")
    assert map_cwe(["CWE-200"], table).code == 22
    assert map_cwe(["CWE-326"], table).code == 330  # file wins over default
    with pytest.raises(ConfigError):
        CweMappingTable.load("garbage line\n")
    with pytest.raises(ConfigError, match="line 2"):
        CweMappingTable.load("200 -> 22\n89 -> -1\n")


def test_fold_severity():
    assert fold_severity("ERROR") is Severity.ERROR
    assert fold_severity("Warning") is Severity.WARNING
    assert fold_severity("INFO") is Severity.INFO
    assert fold_severity("HIGH") is Severity.ERROR
    assert fold_severity("something-new") is Severity.WARNING


def test_normalize_maps_fields_and_test_id():
    raw = RawFinding(
        rule_id="rule.path",
        file_path="src/BenchmarkTest00042.java",
        start_line=5,
        end_line=7,
        severity_label="WARNING",
        message="possible path traversal",
        cwe_tags=("CWE-22",),
    )
    finding = normalize(raw, CweMappingTable.default())
    assert finding.test_id == TestCaseId("BenchmarkTest00042")
    assert finding.cwe.code == 22
    assert finding.origin == "semgrep:rule.path"
    assert finding.severity is Severity.WARNING


def test_normalize_without_test_id():
    raw = RawFinding("r", "helpers/Util.java", 1, 1, "INFO", "m", ())
    assert normalize(raw, CweMappingTable.default()).test_id is None


def test_normalize_is_deterministic():
    raw = RawFinding("r", "a/BenchmarkTest00001.java", 3, 4, "ERROR", "m", ("CWE-89",))
    table = CweMappingTable.default()
    assert normalize(raw, table) == normalize(raw, table)
    assert normalize(raw, table).id == normalize(raw, table).id


def test_dedupe_exact_duplicate_pair():
    a = make_finding(1, cwe=89, test_num=42)
    b = make_finding(2, cwe=89, test_num=42)
    assert dedupe_by_testcase([a, b]) == [a]


def test_dedupe_keeps_distinct_cwes():
    a = make_finding(1, cwe=89, test_num=42)
    b = make_finding(2, cwe=79, test_num=42)
    assert dedupe_by_testcase([a, b]) == [a, b]


def test_dedupe_passes_through_findings_without_test_id():
    a = make_finding(1)
    b = make_finding(2)
    assert dedupe_by_testcase([a, b]) == [a, b]


def test_dedupe_matches_brute_force_set_oracle():
    rng = random.Random(77)
    for _ in range(200):
        findings = [
            make_finding(
                i,
                cwe=rng.choice([22, 79, 89]),
                test_num=rng.randint(1, 6) if rng.random() < 0.8 else None,
            )
            for i in range(rng.randint(0, 30))
        ]
        deduped = dedupe_by_testcase(findings)
        pairs_in = {(f.test_id, f.cwe.code) for f in findings if f.test_id is not None}
        pairs_out = {(f.test_id, f.cwe.code) for f in deduped if f.test_id is not None}
        assert pairs_in == pairs_out
        with_id = [f for f in deduped if f.test_id is not None]
        assert len(with_id) == len(pairs_in)
        # idempotent
        assert dedupe_by_testcase(deduped) == deduped
