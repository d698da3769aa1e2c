import copy
import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sastsieve.backends import ScriptedBackend
from sastsieve.benchmark import load_ground_truth
from sastsieve.model import (
    Classification,
    ConfigError,
    FailOpenCause,
    FilteredFinding,
    Severity,
    Verdict,
)
from sastsieve.pipeline import MissionPlan, plan_mission, run_mission
from sastsieve.report import (
    SCHEMA_VERSION,
    PlanSummary,
    Report,
    Timing,
    build_report,
    detections_of,
    fmt_metric,
    load_report,
    render_json,
    render_text,
)
from sastsieve.filter_agent import FailOpenEvent, FilterStats
from sastsieve.scoring import (
    ConfusionMatrix,
    CweScorecard,
    Delta,
    ScorecardComparison,
    compute_metrics,
)
from tests.conftest import make_finding
from tests.strategies import PLAN, json_values
from tests.test_filter_agent import FailingBackend
from tests.test_pipeline import benchmark_results, saved_scan


GOLDEN = Path(__file__).parent / "golden"


def golden_report() -> Report:
    """A small fixed report that reaches every part of both layouts."""
    llm_confirmed = make_finding(1, cwe=89, test_num=7)
    llm_kept = replace(
        make_finding(2, cwe=0, severity=Severity.INFO), description="naïve → ünïcode message"
    )
    dropped = make_finding(3, cwe=79, test_num=8)
    missing = make_finding(4, cwe=22, test_num=9, start_line=5, end_line=5)
    report = Report(
        plan=PlanSummary.of(MissionPlan(scan_json=Path("scan.json"), model="m-1"), 5, 1),
        retained=(
            FilteredFinding(llm_confirmed, Verdict.llm("true_positive", "query built from the parameter"), 0),
            FilteredFinding(llm_kept, Verdict.llm("true_positive", "reaches the sink"), 0),
            FilteredFinding(missing, Verdict.fail_open(FailOpenCause.MISSING_ENTRY), 1),
        ),
        suppressed=(
            FilteredFinding(dropped, Verdict.llm("false_positive", "input is encoded"), 0),
        ),
        timing=Timing("2026-01-01T00:00:00+00:00", "2026-01-01T00:00:02+00:00", 0.75, 0.5),
    )
    cm_79 = ConfusionMatrix(tp=0, fp=0, tn=2, fn=0)  # precision, recall, f1 undefined
    cm_89 = ConfusionMatrix(tp=2, fp=1, tn=3, fn=1)
    overall = cm_79 + cm_89
    card = CweScorecard(
        per_cwe={79: (cm_79, compute_metrics(cm_79)), 89: (cm_89, compute_metrics(cm_89))},
        overall=(overall, compute_metrics(overall)),
    )
    deltas = ScorecardComparison(
        per_cwe={79: None, 89: Delta(f1_abs=0.25, f1_rel=None)},
        overall=Delta(f1_abs=0.125, f1_rel=0.5),
    )
    return replace(report, scorecard=card, baseline_deltas=deltas)


def test_golden_report_bytes():
    report = golden_report()
    payload = render_json(report)
    assert payload == (GOLDEN / "report.json").read_bytes()
    assert render_text(report).encode("utf-8") == (GOLDEN / "report.txt").read_bytes()
    assert load_report(payload) == report
    # Two batches, each called the model; the finding the answer left out is one event.
    assert report.stats == FilterStats(batch_count=2, llm_calls=2)
    assert report.fail_open_events == (FailOpenEvent(1, FailOpenCause.MISSING_ENTRY),)


def test_report_fields_are_the_document_keys():
    doc = json.loads(render_json(golden_report()))
    assert {f.name for f in fields(Report)} == doc.keys() - {"schema_version"}
    assert {f.name for f in fields(Timing)} == doc["timing"].keys()
    assert {f.name for f in fields(FilterStats)} == doc["stats"].keys()


def empty_report(**overrides) -> Report:
    fields = dict(
        plan=PLAN,
        retained=(),
        suppressed=(),
        scorecard=None,
        baseline_deltas=None,
        timing=Timing("2026-01-01T00:00:00+00:00", "2026-01-01T00:00:10+00:00"),
    )
    fields.update(overrides)
    return Report(**fields)


def mission_report(tmp_path, gt=None, baseline=None, results=None, backend=None):
    plan_config = {"scan_json": saved_scan(tmp_path, results or benchmark_results(10))}
    if gt is not None:
        gt_path = tmp_path / "expected.csv"
        gt_path.write_text(gt)
        plan_config["ground_truth"] = str(gt_path)
    plan = plan_mission(plan_config)
    mission = run_mission(plan, backend or ScriptedBackend({}, default="true_positive"))
    loaded_gt = load_ground_truth(gt) if gt is not None else None
    return build_report(mission, loaded_gt, baseline)


def test_empty_run_renders_with_schema_version():
    payload = render_json(empty_report())
    doc = json.loads(payload)
    assert doc["schema_version"] == "3"
    assert doc["retained"] == [] and doc["suppressed"] == []
    assert doc["scorecard"] is None


def test_render_load_render_is_byte_identical(tmp_path):
    gt = "".join(
        f"BenchmarkTest{n:05d},sqli,{'true' if n % 2 else 'false'},89\n" for n in range(1, 11)
    )
    baseline = {(make_finding(0, test_num=n).test_id, 89) for n in range(1, 4)}
    report = mission_report(tmp_path, gt=gt, baseline=baseline)
    assert report.scorecard is not None and report.baseline_deltas is not None
    first = render_json(report)
    reloaded = load_report(first)
    assert reloaded == report
    assert render_json(reloaded) == first


def test_absent_metrics_encode_as_null():
    cm = ConfusionMatrix(0, 0, 10, 0)
    card = CweScorecard(per_cwe={89: (cm, compute_metrics(cm))}, overall=(cm, compute_metrics(cm)))
    payload = render_json(empty_report(scorecard=card))
    doc = json.loads(payload)
    metrics = doc["scorecard"]["per_cwe"]["89"]["metrics"]
    assert metrics["precision"] is None
    assert metrics["fpr"] == 0.0


def test_text_report_shows_published_f1(tmp_path, distribution_csv, pipeline_detections):
    # A report whose scorecard carries the published overall matrix.
    from sastsieve.scoring import score_per_cwe

    gt = load_ground_truth(distribution_csv)
    card = score_per_cwe(pipeline_detections, gt)
    text = render_text(empty_report(scorecard=card))
    assert "f1" in text
    assert "0.909" in text
    assert "0.823" in text  # Youden's J
    assert "2740 test cases" in text


def test_text_report_zero_suppressed_reads_none():
    text = render_text(empty_report())
    assert "suppressed:" in text
    assert "(none)" in text


def test_text_report_lists_fail_open_causes():
    # Batches 0 and 3 timed out, batch 2 got a malformed answer, batch 1 was answered.
    causes = (FailOpenCause.TIMEOUT, None, FailOpenCause.MALFORMED_RESPONSE, FailOpenCause.TIMEOUT)
    verdicts = [Verdict.fail_open(cause) if cause else Verdict.llm("true_positive", "r") for cause in causes]
    retained = tuple(FilteredFinding(make_finding(i), verdict, i) for i, verdict in enumerate(verdicts))
    text = render_text(empty_report(retained=retained))
    assert "timeout x2" in text
    assert "malformed_response x1" in text


def test_text_report_separates_summed_call_time_from_wall_time():
    timing = Timing(total_latency_seconds=6.21, filter_wall_seconds=0.46)
    text = render_text(empty_report(timing=timing))
    assert "summed call time: 6.21s  filter wall time: 0.46s" in text
    assert load_report(render_json(empty_report(timing=timing))).timing == timing


def test_text_report_caps_lists_with_more_marker():
    retained = tuple(
        FilteredFinding(make_finding(i), Verdict.llm(Classification.TRUE_POSITIVE, "r"), 0)
        for i in range(30)
    )
    text = render_text(empty_report(retained=retained), max_retained=20)
    assert "(+10 more)" in text


def test_text_report_orders_retained_by_severity():
    low = FilteredFinding(
        make_finding(1, severity=Severity.INFO), Verdict.llm("true_positive", "r"), 0
    )
    high = FilteredFinding(
        make_finding(2, severity=Severity.ERROR), Verdict.llm("true_positive", "r"), 0
    )
    text = render_text(empty_report(retained=(low, high)))
    assert text.index("[error]") < text.index("[info]")


@pytest.mark.parametrize(
    "control, escape",
    [("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t"), ("\x1b[2K", "\\x1b[2K"), ("\x7f", "\\x7f"),
     ("\x85", "\\x85"), ("\u2028", "\\u2028"), ("\u2029", "\\u2029")],
    ids=["lf", "cr", "tab", "esc", "del", "nel", "line-separator", "paragraph-separator"],
)
def test_scanner_and_model_text_cannot_forge_a_line_of_the_text_report(control, escape):
    forged = f"{control}retained findings   : 0"

    def report(tail):
        kept, dropped = (
            replace(make_finding(n, file_path=f"src/A{n}.java{tail}"), origin=f"semgrep:rule{tail}")
            for n in range(2)
        )
        return empty_report(
            retained=(FilteredFinding(kept, Verdict.llm("true_positive", "r"), 0),),
            suppressed=(FilteredFinding(dropped, Verdict.llm("false_positive", f"benign{tail}"), 0),),
        )

    text = render_text(report(forged))
    assert len(text.splitlines()) == len(render_text(report("")).splitlines())
    assert all(char == "\n" or char.isprintable() for char in text)
    assert [line for line in text.splitlines() if line.startswith("retained findings")] == [
        "retained findings   : 1  (llm-decided 1, fail-open 0)"
    ]
    escaped = f"{escape}retained findings   : 0"
    for field in ("src/A0.java", "src/A1.java", "semgrep:rule", "benign"):
        assert f"{field}{escaped}" in text


def test_suppressed_findings_keep_their_rationales(tmp_path):
    findings = benchmark_results(3)
    backend = ScriptedBackend({}, default="false_positive")
    report = mission_report(tmp_path, results=findings, backend=backend)
    doc = json.loads(render_json(report))
    assert len(doc["suppressed"]) == 3
    assert all(e["verdict"]["rationale"] for e in doc["suppressed"])
    text = render_text(report)
    assert "scripted default" in text


def test_fail_open_events_survive_round_trip(tmp_path):
    report = mission_report(tmp_path, backend=FailingBackend())
    doc = json.loads(render_json(report))
    assert doc["fail_open_events"] == [{"batch_index": 0, "cause": "transport_error"}]
    events = load_report(render_json(report)).fail_open_events
    assert events == (FailOpenEvent(0, FailOpenCause.TRANSPORT_ERROR),)


def test_detections_of_uses_kept_findings_with_test_ids():
    kept = Verdict.llm(Classification.TRUE_POSITIVE, "r")
    with_id = FilteredFinding(make_finding(1, cwe=89, test_num=7), kept, 0)
    without_id = FilteredFinding(make_finding(2), kept, 0)
    pairs = detections_of([with_id, without_id])
    assert len(pairs) == 1
    (tid, code), = pairs
    assert tid.value == "BenchmarkTest00007" and code == 89


def test_fmt_metric():
    assert fmt_metric(None) == "n/a"
    assert fmt_metric(0.9092920353982301) == "0.909"
    assert fmt_metric(1.0) == "1.000"


def test_load_report_rejects_bad_documents():
    with pytest.raises(ConfigError):
        load_report(b"not json")
    with pytest.raises(ConfigError):
        load_report(b'{"schema_version": "99"}')
    with pytest.raises(ConfigError):
        load_report(b'{"schema_version": "3"}')  # missing sections
    with pytest.raises(ConfigError, match='schema_version "2" is not "3"'):
        load_report((GOLDEN / "report.json").read_bytes().replace(b'"schema_version": "3"', b'"schema_version": "2"'))
    doc = json.loads(render_json(golden_report()))
    doc["retained"][0]["batch_index"] = None  # every finding comes from a batch
    with pytest.raises(ConfigError, match="expected int, got NoneType"):
        load_report(json.dumps(doc))
    doc = json.loads(render_json(golden_report()))
    doc["scorecard"]["per_cwe"] = []
    with pytest.raises(ConfigError):
        load_report(json.dumps(doc))
    doc = json.loads(render_json(golden_report()))
    doc["scorecard"]["overall"]["metrics"]["f1"] = 1e25  # no metric lies outside [-1, 1]
    with pytest.raises(ConfigError):
        load_report(json.dumps(doc))
    doc["scorecard"]["overall"]["metrics"]["f1"] = 0.5  # metrics follow from the matrix
    with pytest.raises(ConfigError):
        load_report(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, difference",
    [
        (("run_id",), "000000000000", 'run_id: document "000000000000", rendering "0d53b6824c4b"'),
        (
            ("retained", 0, "finding", "cwe_name"),
            "Cross-Site Scripting",
            'retained[0].finding.cwe_name: document "Cross-Site Scripting", rendering "SQL Injection"',
        ),
        (
            ("scorecard", "overall", "metrics", "f1"),
            0.5,
            "scorecard.overall.metrics.f1: document 0.5, rendering 0.6666666666666666",
        ),
        (("plan", "extra"), 1, "plan.extra: document 1, rendering nothing"),
        (("stats", "llm_calls"), 999, "stats.llm_calls: document 999, rendering 2"),
        (
            ("fail_open_events",),
            [],
            'fail_open_events[0]: document nothing, rendering {"batch_index": 1, "cause": "missing_entry"}',
        ),
        (
            ("retained", 0, "verdict", "provenance"),
            "fail_open",
            'retained[0].verdict.provenance: document "fail_open", rendering "llm_decision"',
        ),
        (
            ("retained", 0, "finding", "test_id"),
            "BenchmarkTest09999",
            'retained[0].finding.test_id: document "BenchmarkTest09999", rendering "BenchmarkTest00007"',
        ),
        (
            ("plan", "scanner_mode"),
            "invoke_external",
            'plan.scanner_mode: document "invoke_external", rendering "load_saved"',
        ),
    ],
    ids=[
        "run_id", "cwe_name", "metrics", "extra_key", "llm_calls", "fail_open_events",
        "provenance", "test_id", "scanner_mode",
    ],
)
def test_a_refused_report_names_its_first_difference(path, value, difference):
    doc = json.loads((GOLDEN / "report.json").read_bytes())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigError) as refused:
        load_report(json.dumps(doc))
    assert str(refused.value) == f"document differs from the rendering of the report it holds at {difference}"


def with_run_id(doc):
    """``doc`` with the run_id its own plan and findings hash to."""
    ids = sorted(ff["finding"]["id"] for ff in doc["retained"] + doc["suppressed"])
    identity = json.dumps({"plan": doc["plan"], "findings": ids}, sort_keys=True)
    return {**doc, "run_id": hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]}


def test_a_finding_in_the_wrong_list_or_listed_twice_is_refused():
    doc = json.loads((GOLDEN / "report.json").read_bytes())
    moved = {**doc, "retained": doc["retained"] + doc["suppressed"], "suppressed": []}
    with pytest.raises(ConfigError, match=r"^malformed report document: finding \w+ is listed against its verdict$"):
        load_report(json.dumps(moved))
    twice = with_run_id({**doc, "retained": doc["retained"] + doc["retained"][:1]})
    with pytest.raises(ConfigError, match=r"^malformed report document: finding \w+ is listed twice$"):
        load_report(json.dumps(twice))
    with pytest.raises(ValueError, match="listed twice"):
        replace(golden_report(), suppressed=golden_report().suppressed * 2)


def test_baseline_deltas_must_match_the_scorecard():
    doc = json.loads((GOLDEN / "report.json").read_bytes())
    refusal = "^malformed report document: baseline_deltas must cover exactly the scorecard's CWE codes$"
    with pytest.raises(ConfigError, match=refusal):
        load_report(json.dumps({**doc, "scorecard": None}))
    doc["baseline_deltas"]["per_cwe"]["22"] = None
    with pytest.raises(ConfigError, match=refusal):
        load_report(json.dumps(doc))
    assert load_report(json.dumps({**doc, "baseline_deltas": None})).scorecard is not None


@pytest.mark.parametrize(
    "document, found",
    [('{"schema_version": "1"}', '"1"'), ('{"schema_version": 3}', "3"), ("{}", None), ("[]", None)],
    ids=["older", "a-number", "missing", "not-an-object"],
)
def test_a_refused_schema_names_its_version(document, found):
    with pytest.raises(ConfigError) as refused:
        load_report(document)
    if found is None:
        assert str(refused.value) == f'report has no schema_version; this version reads "{SCHEMA_VERSION}"'
    else:
        assert str(refused.value) == f'report schema_version {found} is not "{SCHEMA_VERSION}"'


def node_paths(node, path=()):
    """The path of every node below ``node`` in a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


GOLDEN_DOC = json.loads((GOLDEN / "report.json").read_bytes())
DELETE = object()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(node_paths(GOLDEN_DOC))), json_values | st.just(DELETE))
def test_misshapen_report_loads_and_renders_or_is_rejected(path, value):
    doc = copy.deepcopy(GOLDEN_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        report = load_report(json.dumps(doc))
    except ConfigError:
        return
    render_json(report)
    render_text(report).encode("utf-8")


def test_baseline_deltas_in_report(tmp_path, distribution_csv, baseline_detections):
    gt_doc = distribution_csv
    results = [
        {
            "check_id": "sqli.rule",
            "path": f"src/BenchmarkTest{n:05d}.java",
            "start": {"line": 40},
            "end": {"line": 44},
            "extra": {
                "severity": "ERROR",
                "message": "m",
                "metadata": {"cwe": "CWE-22: Path Traversal"},
            },
        }
        for n in range(1, 30)
    ]
    report = mission_report(tmp_path, gt=gt_doc, baseline=baseline_detections, results=results)
    assert report.baseline_deltas is not None
    doc = json.loads(render_json(report))
    assert set(doc["baseline_deltas"]["per_cwe"].keys()) == {
        str(code) for code in report.scorecard.per_cwe
    }
    text = render_text(report)
    assert "f1 deltas vs baseline" in text
