import dataclasses
import json
import os
import re
import stat
from pathlib import Path

import pytest

from sastsieve.backends import ScriptedBackend
from sastsieve.ingest import parse_scanner_output
from sastsieve.model import Provenance
from sastsieve.pipeline import (
    ConfigError,
    MissionPlan,
    ScannerError,
    parse_config_file,
    plan_mission,
    run_mission,
    run_scanner,
)
from tests.test_filter_agent import FailingBackend
from tests.test_ingest import result_doc, scan_doc


def saved_scan(tmp_path, results) -> str:
    path = tmp_path / "scan.json"
    path.write_bytes(scan_doc(results))
    return str(path)


def benchmark_results(count=10, cwe="CWE-89: SQL Injection"):
    return [
        result_doc(f"src/BenchmarkTest{n:05d}.java", start=40 + n, cwe=cwe)
        for n in range(1, count + 1)
    ]


# --- plan_mission -----------------------------------------------------------


def scanner_mode(plan):
    """The scanner mode the report records for a run of ``plan``."""
    return run_mission(plan, ScriptedBackend({}, default="true_positive")).plan.scanner_mode


def test_plan_defaults(tmp_path):
    plan = plan_mission({"target_root": str(tmp_path)})
    assert plan.batch_size == 15
    assert plan.parallelism == 4
    assert plan.fail_open is True
    assert plan.scan_json is None
    assert scanner_mode(dataclasses.replace(plan, scanner_cmd=fake_scanner(tmp_path))) == "invoke_external"


def test_plan_rejects_zero_batch_size(tmp_path):
    with pytest.raises(ConfigError, match="batch_size"):
        plan_mission({"target_root": str(tmp_path), "batch_size": 0})


def test_plan_applies_overrides(tmp_path):
    plan = plan_mission({"target_root": str(tmp_path), "batch_size": 10, "fail_open": "false"})
    assert plan.batch_size == 10
    assert plan.fail_open is False


def test_plan_requires_target_or_saved_scan():
    with pytest.raises(ConfigError, match="target_root"):
        plan_mission({})


def test_plan_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        plan_mission({"target_root": str(tmp_path), "bath_size": 3})


CONFIG_KEYS = {
    "target_root", "scan_json", "batch_size", "parallelism", "fail_open", "ground_truth",
    "baseline", "out_json", "out_text", "model", "template", "cwe_map", "scanner_cmd",
    "timeout", "context_budget", "match_any_cwe",
}


def test_config_keys_are_exactly_the_documented_ones(tmp_path):
    # A new MissionPlan field becomes a config key; this pins the set so
    # that never happens silently, and holds README's list to it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The keys:(.*?)\.", readme, re.DOTALL).group(1)
    assert set(re.findall(r"`(\w+)`", listed)) == CONFIG_KEYS

    def accepted(key):
        try:
            plan_mission({"target_root": str(tmp_path), key: "1"})
        except ConfigError as exc:
            assert "unknown config key" in str(exc)
            return False
        return True

    candidates = CONFIG_KEYS | {f.name for f in dataclasses.fields(MissionPlan)}
    assert {key for key in candidates if accepted(key)} == CONFIG_KEYS


def test_plan_coerces_each_value_by_its_field_type(tmp_path):
    plan = plan_mission(
        {
            "target_root": str(tmp_path),
            "context_budget": "800",
            "timeout": "2.5",
            "match_any_cwe": "yes",
            "model": 7,
            "cwe_map": "map.txt",
        }
    )
    assert (plan.context_budget, plan.timeout, plan.match_any_cwe) == (800, 2.5, True)
    assert plan.model == "7" and plan.cwe_map == Path("map.txt")
    for key, value, message in (
        ("parallelism", "four", "expected an integer"),
        ("context_budget", "-3", "must be >= 1"),
        ("timeout", "soon", "expected a number"),
        ("timeout", "0", "must be positive"),
        ("timeout", "nan", "must be positive"),
        ("timeout", "inf", "must be positive and at most"),
        ("timeout", "1e300", "must be positive and at most"),
        ("match_any_cwe", "maybe", "expected a boolean"),
    ):
        with pytest.raises(ConfigError, match=f"{key}: {message}"):
            plan_mission({"target_root": str(tmp_path), key: value})
    # A plan built directly is checked too, with the config path's message.
    for key, value in (
        ("batch_size", 0),
        ("parallelism", 0),
        ("context_budget", -3),
        ("timeout", float("nan")),
        ("timeout", float("inf")),
        ("timeout", 1e300),
    ):
        with pytest.raises(ConfigError) as direct:
            MissionPlan(**{key: value})
        with pytest.raises(ConfigError) as configured:
            plan_mission({"target_root": str(tmp_path), key: str(value)})
        assert str(direct.value) == str(configured.value)
        assert str(direct.value).startswith(f"{key}: must be ")


def test_plan_saved_scan_switches_mode(tmp_path):
    plan = plan_mission(
        {
            "scan_json": saved_scan(tmp_path, benchmark_results(2)),
            "target_root": str(tmp_path),
            "scanner_cmd": "/no/such/scanner",
        }
    )
    # The saved scan is loaded and the scanner is never started.
    assert len(parse_scanner_output(run_scanner(plan)).findings) == 2
    assert scanner_mode(plan) == "load_saved"


def test_scanner_mode_follows_the_saved_scan_path(tmp_path):
    # The mode is derived from scan_json, so it cannot contradict it.
    with pytest.raises(TypeError):
        MissionPlan(target_root=tmp_path, scanner_mode="load_saved")
    with pytest.raises(ConfigError, match="unknown config key"):
        plan_mission({"target_root": str(tmp_path), "scanner_mode": "load_saved"})
    scanner = fake_scanner(tmp_path, results=benchmark_results(1))
    plan = MissionPlan(target_root=tmp_path, scan_json=Path(saved_scan(tmp_path, [])), scanner_cmd=scanner)
    assert scanner_mode(plan) == "load_saved"
    assert scanner_mode(dataclasses.replace(plan, scan_json=None)) == "invoke_external"


def test_parse_config_file_format():
    values = parse_config_file("# comment\nbatch_size = 7\nfail_open = false\n\n")
    assert values == {"batch_size": "7", "fail_open": "false"}
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_file("not a key value line\n")
    with pytest.raises(ConfigError, match="^line 5:"):
        parse_config_file("batch_size = 2\n\x0c\n# note\u2028\nparallelism = 1\nnot a key value line\n")


def test_a_plan_leaves_its_report_paths_to_the_command_that_writes_them(tmp_path):
    # run_mission writes no file; the CLI refuses these paths before the scan.
    plan = MissionPlan(out_json=tmp_path, out_text=tmp_path)
    assert plan.out_json == plan.out_text == tmp_path


# --- run_scanner ------------------------------------------------------------


def test_run_scanner_load_saved(tmp_path):
    path = saved_scan(tmp_path, benchmark_results(3))
    plan = plan_mission({"scan_json": path})
    payload = run_scanner(plan)
    assert len(parse_scanner_output(payload).findings) == 3


def test_run_scanner_load_saved_missing_file(tmp_path):
    plan = plan_mission({"scan_json": str(tmp_path / "absent.json")})
    with pytest.raises(ScannerError, match="unreadable"):
        run_scanner(plan)


def fake_scanner(tmp_path, *, exit_code=0, results=None, stdout=None) -> str:
    """Create an executable that mimics a scanner's CLI contract."""
    document = stdout if stdout is not None else json.dumps({"results": results or []})
    script = tmp_path / "fakescan"
    script.write_text("#!/bin/sh\n" f"cat << 'EOF'\n{document}\nEOF\n" f"exit {exit_code}\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return str(script)


def test_run_scanner_invokes_external(tmp_path):
    cmd = fake_scanner(tmp_path, results=benchmark_results(4))
    plan = plan_mission({"target_root": str(tmp_path), "scanner_cmd": cmd})
    payload = run_scanner(plan)
    assert len(parse_scanner_output(payload).findings) == 4


def test_run_scanner_accepts_findings_exit_code(tmp_path):
    cmd = fake_scanner(tmp_path, exit_code=1, results=benchmark_results(2))
    plan = plan_mission({"target_root": str(tmp_path), "scanner_cmd": cmd})
    payload = run_scanner(plan)
    assert len(parse_scanner_output(payload).findings) == 2


def test_run_scanner_nonzero_exit_without_output_is_an_error(tmp_path):
    cmd = fake_scanner(tmp_path, exit_code=3, stdout="boom")
    plan = plan_mission({"target_root": str(tmp_path), "scanner_cmd": cmd})
    with pytest.raises(ScannerError, match="exited with 3"):
        run_scanner(plan)


def test_run_scanner_missing_executable(tmp_path):
    plan = plan_mission({"target_root": str(tmp_path), "scanner_cmd": "/no/such/scanner"})
    with pytest.raises(ScannerError, match="not found"):
        run_scanner(plan)


# --- run_mission ------------------------------------------------------------


def test_mission_with_failing_backend_retains_all_deduped(tmp_path):
    results = benchmark_results(9) + [benchmark_results(1)[0]]  # one duplicate
    plan = plan_mission({"scan_json": saved_scan(tmp_path, results)})
    mission = run_mission(plan, FailingBackend())
    assert mission.plan.scanner_finding_count == 10
    assert len(mission.retained) == 9  # duplicate removed by dedupe
    assert mission.suppressed == ()
    assert {ff.verdict.provenance for ff in mission.retained} == {Provenance.FAIL_OPEN}


def test_mission_scripted_suppress_everything_suppresses_all_six(tmp_path):
    plan = plan_mission({"scan_json": saved_scan(tmp_path, benchmark_results(6))})
    mission = run_mission(plan, ScriptedBackend({}, default="false_positive"))
    assert mission.retained == ()
    assert len(mission.suppressed) == 6
    assert {ff.verdict.provenance for ff in mission.suppressed} == {Provenance.LLM_DECISION}


def test_mission_partitions_deduped_findings(tmp_path):
    plan = plan_mission({"scan_json": saved_scan(tmp_path, benchmark_results(12))})
    verdicts_backend = ScriptedBackend({}, default="false_positive")
    mission = run_mission(plan, verdicts_backend)
    total = len(mission.retained) + len(mission.suppressed)
    assert total == 12
    ids = [ff.finding.id for ff in mission.retained + mission.suppressed]
    assert len(set(ids)) == total


def test_mission_keeps_one_of_identical_results_without_a_test_id(tmp_path):
    twin = result_doc("src/util/Helper.java", start=7)
    plan = plan_mission({"scan_json": saved_scan(tmp_path, [twin, dict(twin)])})
    mission = run_mission(plan, ScriptedBackend({}, default="true_positive"))
    assert mission.plan.scanner_finding_count == 2
    assert [ff.finding.test_id for ff in mission.retained] == [None]


def test_mission_stage_monotonicity(tmp_path):
    # No stage increases the finding count.
    results = benchmark_results(8) + benchmark_results(3)  # 3 duplicates
    plan = plan_mission({"scan_json": saved_scan(tmp_path, results)})
    mission = run_mission(plan, ScriptedBackend({}, default="true_positive"))
    assert mission.plan.scanner_finding_count == 11
    kept_and_suppressed = len(mission.retained) + len(mission.suppressed)
    assert kept_and_suppressed <= mission.plan.scanner_finding_count
    assert kept_and_suppressed == 8


def test_mission_timestamps_and_stats(tmp_path):
    plan = plan_mission({"scan_json": saved_scan(tmp_path, benchmark_results(20))})
    mission = run_mission(plan, ScriptedBackend({}, default="true_positive"))
    assert mission.timing.started_at and mission.timing.finished_at
    assert mission.stats.batch_count == 2  # ceil(20 / 15)
    assert mission.stats.llm_calls == 2


def test_mission_propagates_scanner_errors(tmp_path):
    plan = plan_mission({"scan_json": str(tmp_path / "missing.json")})
    with pytest.raises(ScannerError):
        run_mission(plan, FailingBackend())


def test_template_without_placeholder_warns_once_per_run(tmp_path, caplog):
    template = tmp_path / "template.txt"
    template.write_text("Just instructions.\n")
    plan = plan_mission(
        {"scan_json": saved_scan(tmp_path, benchmark_results(45)), "template": str(template)}
    )
    backend = ScriptedBackend({}, default="true_positive")
    with caplog.at_level("WARNING"):
        mission = run_mission(plan, backend)
    assert mission.stats.batch_count == 3
    assert len(mission.retained) == 45  # every batch carried its findings
    warnings = [r for r in caplog.records if "{{findings_block}}" in r.getMessage()]
    assert len(warnings) == 1


@pytest.mark.parametrize("with_target", [False, True], ids=["scan-only", "with-target"])
def test_a_run_without_a_source_tree_warns_once(tmp_path, caplog, with_target):
    # Without target_root every finding is reviewed blind; 45 findings are three batches.
    config = {"scan_json": saved_scan(tmp_path, benchmark_results(45))}
    if with_target:
        config["target_root"] = str(tmp_path)
    with caplog.at_level("WARNING", logger="sastsieve.pipeline"):
        mission = run_mission(plan_mission(config), ScriptedBackend({}, default="true_positive"))
    assert mission.stats.batch_count == 3
    warnings = [r.getMessage() for r in caplog.records if "target_root is unset" in r.getMessage()]
    assert warnings == ([] if with_target else [
        "target_root is unset: each finding is sent without its source, and a false_positive answer still suppresses it"
    ])


def test_mission_logs_stage_counts(tmp_path, caplog):
    plan = plan_mission({"scan_json": saved_scan(tmp_path, benchmark_results(5))})
    with caplog.at_level("INFO", logger="sastsieve.pipeline"):
        run_mission(plan, ScriptedBackend({}, default="true_positive"))
    messages = " | ".join(record.getMessage() for record in caplog.records)
    assert "scanner produced 5 results" in messages
    assert "5 findings after per-test-case dedupe" in messages
    assert "retained 5" in messages
