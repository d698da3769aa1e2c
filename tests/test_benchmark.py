from collections import Counter

import pytest

from sastsieve.benchmark import load_ground_truth
from sastsieve.model import ConfigError, TestCaseId
from tests.conftest import TOTAL_CASES, TOTAL_SAFE, TOTAL_VULNERABLE


def test_load_single_record():
    gt = load_ground_truth("BenchmarkTest00001, pathtraver, true, 22\n")
    entry = gt[TestCaseId("BenchmarkTest00001")]
    assert entry.is_vulnerable is True
    assert entry.cwe.code == 22


def test_load_full_distribution(distribution_csv):
    gt = load_ground_truth(distribution_csv)
    assert len(gt) == TOTAL_CASES
    vulnerable = Counter(e.is_vulnerable for e in gt.values())
    assert (vulnerable[True], vulnerable[False]) == (TOTAL_VULNERABLE, TOTAL_SAFE)


def test_load_empty_payload_is_an_error():
    with pytest.raises(ConfigError):
        load_ground_truth("")
    with pytest.raises(ConfigError):
        load_ground_truth("# only a comment\n")


def test_load_flag_is_case_insensitive():
    for flag in ("true", "TRUE", "True"):
        gt = load_ground_truth(f"BenchmarkTest00001,x,{flag},89")
        assert gt[TestCaseId("BenchmarkTest00001")].is_vulnerable


def test_load_accepts_crlf_and_field_whitespace():
    payload = "# header\r\n  BenchmarkTest00001 , sqli ,  true , 89 \r\nBenchmarkTest00002,sqli,false,89\r\n"
    gt = load_ground_truth(payload)
    assert len(gt) == 2


def test_load_ignores_extra_trailing_columns():
    gt = load_ground_truth("BenchmarkTest00001,sqli,true,89,extra,columns\n")
    assert gt[TestCaseId("BenchmarkTest00001")].cwe.code == 89


def test_load_reports_line_numbers_on_malformed_records():
    with pytest.raises(ConfigError, match="line 2"):
        load_ground_truth("BenchmarkTest00001,sqli,true,89\nBenchmarkTest00002,sqli,maybe,89\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_ground_truth("BenchmarkTest00001,sqli,true\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_ground_truth("NotATest,sqli,true,89\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_ground_truth("BenchmarkTest00001,sqli,true,eighty-nine\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_ground_truth("BenchmarkTest00001,sqli,true,89\nBenchmarkTest00002,sqli,true,-89\n")
    # Lines end only at LF, CR and CRLF; a form feed in a comment starts no line.
    with pytest.raises(ConfigError, match="^line 3:"):
        load_ground_truth("# page\x0c\nBenchmarkTest00001,sqli,true,89\rBenchmarkTest00002,sqli,maybe,89\n")


def test_load_rejects_duplicate_test_ids():
    payload = "BenchmarkTest00001,sqli,true,89\nBenchmarkTest00001,sqli,false,89\n"
    with pytest.raises(ConfigError, match="duplicate"):
        load_ground_truth(payload)


def test_load_accepts_unknown_cwe_codes_as_other():
    gt = load_ground_truth("BenchmarkTest00001,custom,true,9999\n")
    entry = gt[TestCaseId("BenchmarkTest00001")]
    assert entry.cwe.code == 9999 and entry.cwe.name == "Other"
