import errno
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from sastsieve.backends import CassetteRecorder, ScriptedBackend
from sastsieve.cli import build_parser, main
from sastsieve.ingest import CweMappingTable, normalize, parse_scanner_output
from sastsieve.pipeline import plan_mission, run_mission
from sastsieve.scoring import serialize_detections
from tests.test_pipeline import benchmark_results, saved_scan


@pytest.fixture
def scored_inputs(tmp_path, distribution_csv, pipeline_detections, baseline_detections):
    """On-disk fixtures: ground truth CSV plus both detections files."""
    gt = tmp_path / "expectedresults.csv"
    gt.write_text(distribution_csv)
    candidate = tmp_path / "pipeline-detections.txt"
    candidate.write_bytes(serialize_detections(pipeline_detections))
    baseline = tmp_path / "baseline-detections.txt"
    baseline.write_bytes(serialize_detections(baseline_detections))
    return gt, candidate, baseline


def record_cassette(tmp_path, scan_path, cassette_path, default="true_positive"):
    """Record a cassette by running the mission once with a scripted backend."""
    plan = plan_mission({"scan_json": scan_path})
    recorder = CassetteRecorder(ScriptedBackend({}, default=default), cassette_path)
    run_mission(plan, recorder)
    recorder.save()


def test_run_happy_path_with_replay(tmp_path, capsys):
    scan = saved_scan(tmp_path, benchmark_results(10))
    gt_lines = "".join(
        f"BenchmarkTest{n:05d},sqli,{'true' if n % 2 else 'false'},89\n" for n in range(1, 11)
    )
    gt = tmp_path / "expected.csv"
    gt.write_text(gt_lines)
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette)

    out_json = tmp_path / "report.json"
    out_text = tmp_path / "report.txt"
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--ground-truth", str(gt),
            "--backend", "replay",
            "--cassette", str(cassette),
            "--out-json", str(out_json),
            "--out-text", str(out_text),
        ]
    )
    assert code == 0
    assert out_json.exists() and out_text.exists()
    doc = json.loads(out_json.read_bytes())
    assert doc["schema_version"] == "3"
    assert len(doc["retained"]) == 10
    assert "retained 10" in capsys.readouterr().out


def test_run_without_target_is_config_error(tmp_path, capsys):
    code = main(["run", "--out-json", str(tmp_path / "r.json"), "--out-text", str(tmp_path / "r.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "target" in err


def test_run_live_without_api_key_names_the_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QSC_API_KEY", raising=False)
    monkeypatch.delenv("QSC_API_BASE", raising=False)
    scan = saved_scan(tmp_path, benchmark_results(1))
    code = main(["run", "--scan-json", scan, "--backend", "live"])
    assert code == 1
    assert "QSC_API_KEY" in capsys.readouterr().err


@pytest.mark.parametrize("api_base", ["localhost:9/v1", "ftp://127.0.0.1/v1"])
def test_run_live_with_an_endpoint_that_is_not_http_exits_one_before_the_scan(
    tmp_path, monkeypatch, capsys, api_base
):
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", api_base)
    monkeypatch.setenv("QSC_MODEL", "m")
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--backend", "live",
            "--scan-json", str(tmp_path / "absent.json"),  # a scan would exit 2
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert "QSC_API_BASE" in line and api_base in line, line
    assert not out_json.exists()


def test_run_missing_scan_file_is_scanner_failure(tmp_path, capsys):
    code = main(
        [
            "run",
            "--scan-json", str(tmp_path / "absent.json"),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 2
    assert "scanner" in capsys.readouterr().err


def test_run_replay_requires_cassette(tmp_path, capsys):
    scan = saved_scan(tmp_path, benchmark_results(1))
    code = main(["run", "--scan-json", scan, "--backend", "replay"])
    assert code == 1
    assert "--cassette" in capsys.readouterr().err


def test_score_prints_published_youden_values(scored_inputs, capsys):
    gt, candidate, baseline = scored_inputs
    code = main(["score", "--detections", str(candidate), "--ground-truth", str(gt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.823" in out  # overall Youden's J
    assert "2740 test cases" in out

    code = main(["score", "--detections", str(baseline), "--ground-truth", str(gt)])
    assert code == 0
    assert "0.477" in capsys.readouterr().out


def test_score_with_baseline_prints_published_relative_delta(scored_inputs, capsys):
    gt, candidate, baseline = scored_inputs
    code = main(
        [
            "score",
            "--detections", str(candidate),
            "--ground-truth", str(gt),
            "--baseline", str(baseline),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "+16.0%" in out
    assert "CWE-643" in out


def test_score_parse_error_exits_one(tmp_path, scored_inputs, capsys):
    gt, _, _ = scored_inputs
    bad = tmp_path / "bad-detections.txt"
    bad.write_text("not a detection line\n")
    code = main(["score", "--detections", str(bad), "--ground-truth", str(gt)])
    assert code == 1


def test_filter_writes_detections_file(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(5))
    detections_out = tmp_path / "detections.txt"
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--out-json", str(tmp_path / "f.json"),
            "--out-text", str(tmp_path / "f.txt"),
            "--detections-out", str(detections_out),
        ]
    )
    assert code == 0
    lines = detections_out.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith(",89") for line in lines)


def test_run_target_reports_the_fake_scanners_findings(tmp_path, capsys):
    from tests.test_pipeline import fake_scanner

    cmd = fake_scanner(tmp_path, results=benchmark_results(2))
    out = tmp_path / "r.json"
    outputs = ["--out-json", str(out), "--out-text", str(tmp_path / "r.txt")]
    code = main(["run", "--target", str(tmp_path), "--scanner-cmd", cmd, *outputs])
    assert code == 0
    doc = json.loads(out.read_bytes())
    assert doc["plan"]["scanner_mode"] == "invoke_external"
    assert len(doc["retained"]) == 2


def test_run_target_scanner_failure_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("scanner.sh").write_text("#!/bin/sh\n")  # not executable
    for scanner in ("/no/such/bin", "./scanner.sh"):
        code = main(["run", "--target", ".", "--scanner-cmd", scanner, "--out-json", "r.json", "--out-text", "r.txt"])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("scanner error:")


def test_report_command_rerenders(tmp_path, capsys):
    scan = saved_scan(tmp_path, benchmark_results(4))
    out_json = tmp_path / "r.json"
    main(["run", "--scan-json", scan, "--out-json", str(out_json), "--out-text", str(tmp_path / "r.txt")])
    capsys.readouterr()

    code = main(["report", "--in", str(out_json)])
    assert code == 0
    assert "retained findings" in capsys.readouterr().out

    rewritten = tmp_path / "r2.json"
    code = main(["report", "--in", str(out_json), "--out-json", str(rewritten)])
    assert code == 0
    assert rewritten.read_bytes() == out_json.read_bytes()

    code = main(["report", "--in", str(out_json), "--max-retained", "2"])
    assert code == 0
    assert "(+2 more)" in capsys.readouterr().out  # 4 retained, 2 shown


def test_a_report_keeps_its_own_run_id(tmp_path, capsys):
    from tests.test_report import GOLDEN

    golden = (GOLDEN / "report.json").read_bytes()
    rewritten = tmp_path / "x.json"
    assert main(["report", "--in", str(GOLDEN / "report.json"), "--out-json", str(rewritten)]) == 0
    assert rewritten.read_bytes() == golden
    capsys.readouterr()

    doc = json.loads(golden)
    doc["run_id"] = "000000000000"
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps(doc))
    code = main(["report", "--in", str(path)])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: report {path}: "), line
    assert out == ""


def test_replay_command_runs_from_cassette(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(6))
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette, default="false_positive")
    code = main(
        [
            "run",
            "--backend", "replay",
            "--scan-json", scan,
            "--cassette", str(cassette),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "r.json").read_bytes())
    assert len(doc["suppressed"]) == 6


def test_config_file_applies_and_flags_override(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(7))
    config = tmp_path / "mission.cfg"
    config.write_text(
        f"# mission settings\nscan_json = {scan}\nbatch_size = 2\nparallelism = 1\n"
    )
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--config", str(config),
            "--batch-size", "3",  # flag overrides the file's 2
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    doc = json.loads(out_json.read_bytes())
    assert doc["plan"]["batch_size"] == 3
    assert doc["stats"]["batch_count"] == 3  # ceil(7 / 3)


def test_config_file_sets_the_report_paths(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(2))
    out_json, out_text = tmp_path / "from-config.json", tmp_path / "from-config.txt"
    config = tmp_path / "mission.cfg"
    config.write_text(f"scan_json = {scan}\nout_json = {out_json}\nout_text = {out_text}\n")
    assert main(["run", "--config", str(config)]) == 0
    assert out_json.exists() and out_text.exists()


def subcommands() -> dict:
    [commands] = (action.choices for action in build_parser()._actions if action.dest == "command")
    return commands


def test_every_command_help_exits_zero(capsys):
    commands = subcommands()
    assert set(commands) == {"run", "score", "report"}
    for command in commands:
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        assert "--help" in capsys.readouterr().out


def test_readme_commands_name_a_subcommand_and_its_flags():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = "".join(re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)).replace("\\\n", " ")
    lines = [shlex.split(line)[1:] for line in blocks.splitlines() if line.startswith("sastsieve ")]
    assert lines
    commands = subcommands()
    for command, *words in lines:
        assert command in commands, f"unknown command {command}"
        accepted = commands[command]._option_string_actions
        unknown = [word for word in words if word.startswith("-") and word.partition("=")[0] not in accepted]
        assert not unknown, f"{command} does not accept {unknown}"


def test_unknown_flag_rejected_with_usage(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["run", "--frobnicate"])
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments" in err


def test_failed_run_does_not_clobber_existing_cassette(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9")
    monkeypatch.setenv("QSC_MODEL", "m")
    cassette = tmp_path / "precious.json"
    cassette.write_text('[{"request_digest": "d", "response_text": "t"}]')
    code = main(
        [
            "run",
            "--scan-json", str(tmp_path / "absent.json"),
            "--backend", "live",
            "--cassette", str(cassette),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 2  # scan failed before any LLM call
    assert json.loads(cassette.read_text())[0]["request_digest"] == "d"


def test_run_no_fail_open_aborts_on_filter_failure(tmp_path, capsys):
    scan = saved_scan(tmp_path, benchmark_results(4))
    cassette = tmp_path / "empty-cassette.json"
    cassette.write_text("[]")  # every lookup misses -> batch failure
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--backend", "replay",
            "--cassette", str(cassette),
            "--no-fail-open",
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 1
    assert "filter error" in capsys.readouterr().err


def test_cwe_alias_table_applies_end_to_end(tmp_path):
    results = benchmark_results(3, cwe="CWE-200")
    scan = saved_scan(tmp_path, results)
    cwe_map = tmp_path / "aliases.txt"
    cwe_map.write_text("200 -> 22\n")
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--cwe-map", str(cwe_map),
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    doc = json.loads(out_json.read_bytes())
    assert {f["finding"]["cwe_code"] for f in doc["retained"]} == {22}


def test_replay_is_idempotent(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(8))
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette)
    outputs = []
    for n in (1, 2):
        out_json = tmp_path / f"r{n}.json"
        code = main(
            [
                "run",
                "--backend", "replay",
                "--scan-json", scan,
                "--cassette", str(cassette),
                "--out-json", str(out_json),
                "--out-text", str(tmp_path / f"r{n}.txt"),
            ]
        )
        assert code == 0
        doc = json.loads(out_json.read_bytes())
        doc.pop("timing")
        outputs.append(json.dumps(doc, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_run_live_without_model_exits_before_any_batch(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9/v1")
    monkeypatch.delenv("QSC_MODEL", raising=False)
    scan = saved_scan(tmp_path, benchmark_results(3))
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--backend", "live",
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 1
    assert "QSC_MODEL" in capsys.readouterr().err
    assert not out_json.exists()


def test_report_command_exits_one_on_a_misshapen_document(tmp_path, capsys):
    from tests.test_report import GOLDEN

    doc = json.loads((GOLDEN / "report.json").read_bytes())
    doc["scorecard"]["per_cwe"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--in", str(path)]) == 1
    assert "malformed report document" in capsys.readouterr().err


def test_run_on_hostile_scan_documents_exits_cleanly(tmp_path, capsys):
    outputs = ["--out-json", str(tmp_path / "r.json"), "--out-text", str(tmp_path / "r.txt")]
    deep = tmp_path / "deep.json"
    deep.write_bytes(b'{"results": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
    assert main(["run", "--scan-json", str(deep), *outputs]) == 2
    assert "scanner output error" in capsys.readouterr().err

    odd_extra, odd_tag = benchmark_results(2)
    odd_extra["extra"] = "not an object"
    odd_tag["extra"]["metadata"]["cwe"] = "²"
    assert main(["run", "--scan-json", saved_scan(tmp_path, [odd_extra, odd_tag]), *outputs]) == 0


def test_replayed_overlong_integer_reply_fails_open_and_exits_zero(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(4))
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette)
    records = json.loads(cassette.read_text())
    for record in records:
        record["response_text"] = "1" * 5000
    cassette.write_text(json.dumps(records))
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--backend", "replay",
            "--scan-json", scan,
            "--cassette", str(cassette),
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    assert json.loads(out_json.read_bytes())["fail_open_events"] == [
        {"batch_index": 0, "cause": "malformed_response"}
    ]


DEEP_JSON = b'{"f1": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"


@pytest.mark.parametrize(
    "flag, content",
    [
        pytest.param("--verdicts", b'{"f1": "maybe"}', id="verdict-not-a-classification"),
        pytest.param("--verdicts", b'{"f1": ["false_positive"]}', id="verdict-one-item-list"),
        pytest.param("--verdicts", DEEP_JSON, id="verdicts-nested-too-deep"),
        pytest.param("--config", b"batch_size = 2\n# caf\xe9\n", id="config-not-utf8"),
        pytest.param("--template", None, id="template-missing"),
        pytest.param("--cwe-map", None, id="cwe-map-missing"),
        pytest.param("--cwe-map", b"200 => 22\n", id="cwe-map-malformed"),
        pytest.param("--cwe-map", b"89 -> -1\n", id="cwe-map-negative-category"),
        pytest.param("--cassette", b"\xff[]", id="cassette-not-utf8"),
        pytest.param("--cassette", b"[" * 100_000 + b"]" * 100_000, id="cassette-nested-too-deep"),
    ],
)
def test_bad_input_file_exits_one_before_the_scan(tmp_path, capsys, flag, content):
    # The scan file is absent, so reaching the scanner would exit 2: every
    # input named on the command line is read and checked before the scan.
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    backend = ["--backend", "replay"] if flag == "--cassette" else []
    code = main(
        [
            "run", *backend,
            "--scan-json", str(tmp_path / "absent.json"),
            flag, str(path),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Traceback" not in err


def command_writing(tmp_path, case, out):
    """argv for ``case`` ("command --flag") writing that output to ``out``."""
    command, flag = case.split()
    scan = saved_scan(tmp_path, benchmark_results(3))
    outputs = {"--out-json": str(tmp_path / "r.json"), "--out-text": str(tmp_path / "r.txt")}
    if command == "report":
        assert main(["run", "--scan-json", scan, *(x for pair in outputs.items() for x in pair)]) == 0
        return ["report", "--in", outputs["--out-json"], flag, str(out)]
    outputs[flag] = str(out)
    return ["run", "--scan-json", scan, *(x for pair in outputs.items() for x in pair)]


@pytest.mark.parametrize(
    "case", ["run --detections-out", "report --out-json", "report --out-text"]
)
def test_output_into_a_missing_directory_is_written(tmp_path, capsys, case):
    out = tmp_path / "absent" / "dir" / "out"
    assert main(command_writing(tmp_path, case, out)) == 0
    assert out.stat().st_size > 0


@pytest.mark.parametrize(
    "case",
    ["run --out-json", "run --detections-out", "report --out-json", "report --out-text"],
)
def test_output_under_a_regular_file_exits_one_with_one_error_line(tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    argv = command_writing(tmp_path, case, blocker / "out")
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "score"])
def test_ground_truth_with_a_bom_and_latin1_bytes_still_loads(tmp_path, capsys, command):
    rows = b"".join(b"BenchmarkTest%05d,sql\xe9,true,89\n" % n for n in range(1, 4))
    gt = tmp_path / "expected.csv"
    gt.write_bytes(b"\xef\xbb\xbf# caf\xe9 labels\n" + rows)
    if command == "score":
        detections = tmp_path / "detections.txt"
        detections.write_bytes(b"BenchmarkTest00001,89\n")
        argv = ["score", "--detections", str(detections), "--ground-truth", str(gt)]
    else:
        argv = [
            "run",
            "--scan-json", saved_scan(tmp_path, benchmark_results(3)),
            "--ground-truth", str(gt),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    code = main(argv)
    assert code == 0, capsys.readouterr().err
    if command == "run":
        assert json.loads((tmp_path / "r.json").read_bytes())["scorecard"] is not None
    else:
        assert "3 test cases" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--config", "--verdicts", "--cwe-map", "--scan-json", "--cassette"])
def test_an_input_file_starting_with_a_bom_is_read(tmp_path, capsys, flag):
    scan = saved_scan(tmp_path, benchmark_results(1, cwe="CWE-200"))
    path = tmp_path / "input"
    if flag == "--cassette":
        record_cassette(tmp_path, scan, path, default="false_positive")
    content = {
        "--config": "batch_size = 2\n",
        "--verdicts": json.dumps({only_finding_id(scan): "false_positive"}),
        "--cwe-map": "200 -> 22\n",
        "--scan-json": Path(scan).read_text(),
        "--cassette": path.read_text() if path.exists() else "",
    }[flag]
    path.write_bytes(b"\xef\xbb\xbf" + content.encode())
    out_json = tmp_path / "r.json"
    backend = ["--backend", "replay"] if flag == "--cassette" else []
    code = main(
        [
            "run", *backend,
            "--scan-json", scan,
            flag, str(path),  # a second --scan-json replaces the first
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out_json.read_bytes())
    if flag == "--config":
        assert doc["plan"]["batch_size"] == 2
    elif flag in ("--verdicts", "--cassette"):
        assert len(doc["suppressed"]) == 1
    elif flag == "--cwe-map":
        assert [f["finding"]["cwe_code"] for f in doc["retained"]] == [22]
    else:
        assert doc["plan"]["scan_json"] == str(path) and len(doc["retained"]) == 1


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_a_fifo_in_the_target_is_source_unavailable(tmp_path):
    # Opening a FIFO for reading blocks until a writer comes, so the run goes
    # in a child process that the timeout kills if it hangs.
    (tmp_path / "src").mkdir()
    os.mkfifo(tmp_path / "src" / "BenchmarkTest00001.java")
    out_json = tmp_path / "r.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "sastsieve.cli", "run",
            "--scan-json", saved_scan(tmp_path, benchmark_results(1)),
            "--target", str(tmp_path),
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    [kept] = json.loads(out_json.read_bytes())["retained"]
    assert kept["verdict"]["cause"] == "source_unavailable"


@pytest.mark.parametrize("command", ["run", "score"])
def test_negative_cwe_code_in_ground_truth_exits_one_naming_the_line(tmp_path, capsys, command):
    gt = tmp_path / "expected.csv"
    gt.write_text("BenchmarkTest00001,sqli,true,89\nBenchmarkTest00002,sqli,true,-89\n")
    if command == "score":
        detections = tmp_path / "detections.txt"
        detections.write_text("BenchmarkTest00001,89\n")
        argv = ["score", "--detections", str(detections), "--ground-truth", str(gt)]
    else:
        # The scan file is absent, so reaching the scanner would exit 2.
        argv = [
            "run",
            "--scan-json", str(tmp_path / "absent.json"),
            "--ground-truth", str(gt),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    code = main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1, err
    assert len(errors) == 1 and "line 2" in errors[0], err
    assert "Traceback" not in err


# A JSON escape such as \ud800 decodes to a lone surrogate, which UTF-8
# cannot encode: outside text carrying one is repaired, never fatal.
LONE_SURROGATE = "\ud800"


def only_finding_id(scan_path) -> str:
    [raw] = parse_scanner_output(Path(scan_path).read_bytes()).findings
    return normalize(raw, CweMappingTable.default()).id


@pytest.mark.parametrize(
    "field, report_field",
    [("check_id", "origin"), ("path", "file_path"), ("message", "description")],
)
def test_lone_surrogate_in_scanner_output_is_replaced(tmp_path, capsys, field, report_field):
    [result] = benchmark_results(1)
    holder = result["extra"] if field == "message" else result
    holder[field] += LONE_SURROGATE
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--scan-json", saved_scan(tmp_path, [result]),
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    [kept] = json.loads(out_json.read_bytes())["retained"]
    assert kept["finding"][report_field].endswith("\ufffd")


def test_lone_surrogate_in_a_verdict_rationale_is_replaced(tmp_path, capsys):
    scan = saved_scan(tmp_path, benchmark_results(1))
    verdicts = tmp_path / "verdicts.json"
    verdicts.write_text(json.dumps({only_finding_id(scan): ["false_positive", "ok " + LONE_SURROGATE]}))
    out_json = tmp_path / "r.json"
    code = main(
        [
            "run",
            "--scan-json", scan,
            "--verdicts", str(verdicts),
            "--out-json", str(out_json),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0, capsys.readouterr().err
    [dropped] = json.loads(out_json.read_bytes())["suppressed"]
    assert dropped["verdict"]["rationale"] == "ok \ufffd"


def test_report_command_refuses_a_lone_surrogate(tmp_path, capsys):
    from tests.test_report import GOLDEN

    doc = json.loads((GOLDEN / "report.json").read_bytes())
    doc["suppressed"][0]["verdict"]["rationale"] = "ok " + LONE_SURROGATE
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out_json = tmp_path / "x.json"
    assert main(["report", "--in", str(path), "--out-json", str(out_json)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert not out_json.exists()


# Python decodes a command-line byte that is not UTF-8, such as b"\xff", to a
# lone surrogate (surrogateescape).
UNDECODABLE = "\udcff"


@pytest.mark.parametrize(
    "flag, key",
    [
        ("--scan-json", "scan_json"),
        ("--target", "target_root"),
        ("--ground-truth", "ground_truth"),
        ("--baseline", "baseline"),
        ("--scanner-cmd", "scanner_cmd"),
        ("--model", "model_id"),
    ],
)
def test_undecodable_command_line_argument_shows_as_replacement_in_the_plan(tmp_path, capsys, flag, key):
    from tests.test_pipeline import fake_scanner

    # The odd path still opens: the scan is read from it, or the scanner starts.
    odd = tmp_path / f"odd{UNDECODABLE}"
    scan = Path(saved_scan(tmp_path, benchmark_results(3)))
    if flag == "--scan-json":
        scan = scan.rename(odd)
    elif flag == "--target":
        odd.mkdir()
    elif flag == "--ground-truth":
        odd.write_text("BenchmarkTest00001,sqli,true,89\n")
    elif flag == "--baseline":
        odd.write_text("BenchmarkTest00001,89\n")
    elif flag == "--scanner-cmd":
        Path(fake_scanner(tmp_path, results=benchmark_results(3))).rename(odd)
    value = f"m{UNDECODABLE}" if flag == "--model" else str(odd)
    source = ["--target", str(tmp_path)] if flag == "--scanner-cmd" else ["--scan-json", str(scan)]
    out_json = tmp_path / "r.json"
    code = main(
        ["run", *source, flag, value, "--out-json", str(out_json), "--out-text", str(tmp_path / "r.txt")]
    )
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out_json.read_bytes())
    assert "\ufffd" in doc["plan"][key]
    assert len(doc["retained"]) == 3


def test_replay_with_an_undecodable_model_logs_a_cassette_miss(tmp_path, caplog):
    scan = saved_scan(tmp_path, benchmark_results(3))
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette)
    code = main(
        [
            "run",
            "--backend", "replay",
            "--scan-json", scan,
            "--cassette", str(cassette),
            "--model", f"m{UNDECODABLE}",
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 0
    assert "no recorded response" in caplog.text
    assert "unexpected backend error" not in caplog.text


def exit_code(argv) -> int:
    """``main``'s exit code, whether it returns it or argparse raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("exit_status", [0, 1])
@pytest.mark.parametrize(
    "stdout",
    [pytest.param("[" * 200_000, id="nested-too-deep"), pytest.param("1" * 5000, id="long-integer")],
)
def test_pathological_scanner_output_exits_two_with_one_error_line(
    tmp_path, capsys, exit_status, stdout
):
    from tests.test_pipeline import fake_scanner

    scanner = fake_scanner(tmp_path, exit_code=exit_status, stdout=stdout)
    code = main(
        [
            "run",
            "--target", str(tmp_path),
            "--scanner-cmd", scanner,
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2, err
    errors = [line for line in err.splitlines() if line.startswith(("scanner error:", "scanner output error:"))]
    assert len(errors) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, backend",
    [
        (["run", "--backend", "scripted"], "--cassette", "scripted"),
        (["run", "--backend", "replay"], "--verdicts", "replay"),
        (["run", "--backend", "live"], "--verdicts", "live"),
    ],
)
def test_a_flag_of_another_backend_exits_one_before_the_scan(
    tmp_path, monkeypatch, capsys, command, flag, backend
):
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("QSC_MODEL", "m")
    files = {"--cassette": tmp_path / "c.json", "--verdicts": tmp_path / "v.json"}
    files["--cassette"].write_text("[]")
    files["--verdicts"].write_text("{}")
    if flag == "--verdicts" and backend == "replay":
        command = [*command, "--cassette", str(files["--cassette"])]
    code = exit_code(
        [
            *command,
            "--scan-json", str(tmp_path / "absent.json"),
            flag, str(files[flag]),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert flag in line and backend in line
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--max-retained", "--max-suppressed"])
def test_report_refuses_a_negative_list_cap(capsys, flag):
    from tests.test_report import GOLDEN

    code = exit_code(["report", "--in", str(GOLDEN / "report.json"), flag, "-1"])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert flag in line
    assert "retained (top" not in out


@pytest.mark.parametrize(
    "args, key",
    [
        (["--out-json="], "out_json"),
        (["--out-text="], "out_text"),
        (["--target="], "target_root"),
        (["--scan-json="], "scan_json"),
        (["--config", "CONFIG"], "out_json"),
    ],
    ids=["out-json", "out-text", "target", "scan-json", "config-out_json"],
)
def test_an_empty_path_value_exits_one_before_the_scan(tmp_path, monkeypatch, capsys, args, key):
    # An empty path is the working directory; the absent scan file shows
    # that the run stops before the scan, which would exit 2.
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "mission.conf"
    config.write_text("out_json =\n")
    args = [str(config) if arg == "CONFIG" else arg for arg in args]
    code = main(["run", "--scan-json", str(tmp_path / "absent.json"), *args])
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith(f"error: {key}: ") and "empty" in line, line
    assert list(tmp_path.iterdir()) == [config]


def test_out_json_and_out_text_on_one_path_exit_one_before_the_scan(tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(
        [
            "run",
            "--scan-json", str(tmp_path / "absent.json"),
            "--out-json", str(out),
            "--out-text", str(tmp_path / "." / "o.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert "out_text" in line and "out_json" in line, line
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, key",
    [
        ("run", "--ground-truth", "ground_truth"),
        ("run", "--baseline", "baseline"),
        ("score", "--ground-truth", "ground_truth"),
        ("score", "--detections", "detections"),
        ("score", "--baseline", "baseline"),
        ("report", "--in", "report"),
    ],
)
def test_every_input_error_names_its_file(tmp_path, capsys, command, flag, key):
    gt = tmp_path / "gt.csv"
    gt.write_text("BenchmarkTest00001,sqli,true,89\n")
    detections = tmp_path / "detections.txt"
    detections.write_text("BenchmarkTest00001,89\n")
    bad = tmp_path / "bad.input"
    bad.write_text(
        {"--ground-truth": "BenchmarkTest00001,sqli,maybe,89\n", "--in": '{"schema_version": "0"}\n'}.get(
            flag, "not a detection line\n"
        )
    )
    if command == "run":
        argv = [
            "run",
            "--scan-json", saved_scan(tmp_path, benchmark_results(1)),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
    elif command == "score":
        argv = ["score", "--detections", str(detections), "--ground-truth", str(gt)]
    else:
        argv = ["report"]
    code = main([*argv, flag, str(bad)])
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = [line for line in err.splitlines() if line.startswith("error:")]
    assert line.startswith(f"error: {key} {bad}: "), line


def error_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("command", ["run", "replay"])
@pytest.mark.parametrize("report_flag, key", [("--out-json", "out_json"), ("--out-text", "out_text")])
def test_detections_out_on_a_report_path_exits_one_before_the_scan(
    tmp_path, capsys, command, report_flag, key
):
    cassette = tmp_path / "c.json"
    cassette.write_text("[]")
    outputs = {"--out-json": tmp_path / "r.json", "--out-text": tmp_path / "r.txt", report_flag: tmp_path / "b.json"}
    argv = [
        "run",
        "--scan-json", str(tmp_path / "absent.json"),  # a scan would exit 2
        *(str(x) for pair in outputs.items() for x in pair),
        "--detections-out", str(tmp_path / "." / "b.json"),
    ]
    if command == "replay":
        argv += ["--backend", "replay", "--cassette", str(cassette)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith("error: detections_out: ") and key in line, line
    assert list(tmp_path.iterdir()) == [cassette]


def test_report_on_one_path_for_both_outputs_exits_one_before_writing(tmp_path, capsys):
    from tests.test_report import GOLDEN

    out = tmp_path / "x.json"
    code = main(["report", "--in", str(GOLDEN / "report.json"), "--out-json", str(out), "--out-text", str(out)])
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith("error: out_text: ") and "out_json" in line, line
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (["run", "--detections-out="], "detections_out"),
        (["run", "--backend", "replay", "--cassette", "c.json", "--detections-out="], "detections_out"),
        (["report", "--out-json="], "out_json"),
        (["report", "--out-text="], "out_text"),
    ],
    ids=["run", "replay", "report-out-json", "report-out-text"],
)
def test_an_empty_output_path_exits_one_before_any_work(tmp_path, monkeypatch, capsys, argv, key):
    from tests.test_report import GOLDEN

    monkeypatch.chdir(tmp_path)
    Path("c.json").write_text("[]")
    if argv[0] == "report":
        argv = [*argv, "--in", str(GOLDEN / "report.json")]
    else:  # an absent scan file: a scan would exit 2
        argv = [*argv, "--scan-json", "absent.json", "--out-json", "r.json", "--out-text", "r.txt"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: {key}: ") and "empty" in line, line
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("key", ["out_json", "scan_json", "target_root"])
def test_a_nul_in_a_config_path_value_exits_one_before_the_scan(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    values = {"scan_json": "absent.json", "out_json": "r.json", "out_text": "r.txt", key: "r\0.json"}
    config = tmp_path / "mission.conf"
    config.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: {key}: ") and "NUL" in line, line
    assert list(tmp_path.iterdir()) == [config]


def test_a_live_cassette_on_a_report_path_exits_one_before_the_scan(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("QSC_MODEL", "m")
    code = main(
        [
            "run",
            "--backend", "live",
            "--scan-json", str(tmp_path / "absent.json"),  # a scan would exit 2
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--cassette", str(tmp_path / "r.json"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith("error: cassette: ") and "out_json" in line, line
    assert list(tmp_path.iterdir()) == []


# The key each input flag names in an error line, and valid contents for it.
INPUT_FILES = {
    "--config": ("config", b"batch_size = 2\n"),
    "--scan-json": ("scan_json", b'{"results": []}\n'),
    "--ground-truth": ("ground_truth", b"BenchmarkTest00001,sqli,true,89\n"),
    "--baseline": ("baseline", b"BenchmarkTest00001,89\n"),
    "--cwe-map": ("cwe_map", b"200 -> 22\n"),
    "--template": ("template", b"{{findings_block}}\n"),
    "--verdicts": ("verdicts", b"{}\n"),
    "--cassette": ("cassette", b"[]\n"),
}


@pytest.mark.parametrize(
    "command, input_flag, output_flag, output_key",
    [
        ("run", "--scan-json", "--out-json", "out_json"),
        ("run", "--ground-truth", "--out-text", "out_text"),
        ("run", "--baseline", "--detections-out", "detections_out"),
        ("run", "--config", "--out-json", "out_json"),
        ("run", "--cwe-map", "--out-text", "out_text"),
        ("run", "--template", "--out-json", "out_json"),
        ("run", "--verdicts", "--detections-out", "detections_out"),
        ("replay", "--cassette", "--out-text", "out_text"),
        ("live", "--scan-json", "--cassette", "cassette"),
        ("report", "--in", "--out-text", "out_text"),
        ("report", "--in", "--out-json", "out_json"),
    ],
)
def test_an_output_on_an_input_of_the_same_command_exits_one_before_any_work(
    tmp_path, monkeypatch, capsys, command, input_flag, output_flag, output_key
):
    from tests.test_report import GOLDEN

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("QSC_MODEL", "m")
    if command == "report":
        input_key, content = "report", (GOLDEN / "report.json").read_bytes()
        argv = ["report", "--in", "shared", output_flag, "shared"]
    else:
        input_key, content = INPUT_FILES[input_flag]
        argv = [
            "run",
            "--scan-json", "absent.json",  # a scan would exit 2
            "--out-json", "r.json",
            "--out-text", "r.txt",
            input_flag, "shared",
            output_flag, "shared",
        ]
        if command != "run":
            argv += ["--backend", command]
    Path("shared").write_bytes(content)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: {output_key}: ") and input_key in line, line
    assert out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "shared"]
    assert Path("shared").read_bytes() == content


# Each command that names an output NODE, and the key its refusal names.
OUTPUT_ON_NODE = pytest.mark.parametrize(
    "argv, key",
    [
        (["run", "--out-json", "NODE"], "out_json"),
        (["run", "--out-text", "NODE"], "out_text"),
        (["run", "--detections-out", "NODE"], "detections_out"),
        (["run", "--backend", "live", "--cassette", "NODE"], "cassette"),
        (["report", "--in", "absent.json", "--out-json", "NODE"], "out_json"),
        (["report", "--in", "absent.json", "--out-text", "NODE"], "out_text"),
    ],
    ids=["run-out-json", "run-out-text", "detections-out", "live-cassette", "report-out-json", "report-out-text"],
)


def refused_output_line(tmp_path, monkeypatch, capsys, argv, key):
    """The one error line of ``argv`` run in ``tmp_path``, which must exit 1 having written nothing."""
    # Each command would fail later otherwise: an absent scan file exits 2,
    # and an absent report exits 1 naming the report.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", "http://127.0.0.1:9/v1")
    monkeypatch.setenv("QSC_MODEL", "m")
    if argv[0] == "run":
        argv = [*argv[:1], "--scan-json", "absent.json", "--out-json", "r.json", "--out-text", "r.txt", *argv[1:]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: {key}: "), line
    assert out == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "NODE"]
    return line


@OUTPUT_ON_NODE
def test_an_output_on_an_existing_directory_exits_one_before_any_work(tmp_path, monkeypatch, capsys, argv, key):
    (tmp_path / "NODE").mkdir()
    line = refused_output_line(tmp_path, monkeypatch, capsys, argv, key)
    assert line.endswith("NODE is a directory"), line
    assert list((tmp_path / "NODE").iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
@OUTPUT_ON_NODE
def test_an_output_on_a_named_pipe_exits_one_before_any_work(tmp_path, monkeypatch, capsys, argv, key):
    # Written to, a pipe would block the run until a reader came; renamed
    # over, it would be gone.
    os.mkfifo(tmp_path / "NODE")
    line = refused_output_line(tmp_path, monkeypatch, capsys, argv, key)
    assert line.endswith("NODE is not a regular file"), line
    assert stat.S_ISFIFO((tmp_path / "NODE").lstat().st_mode)


def test_a_report_that_cannot_be_renamed_into_place_keeps_its_old_bytes(tmp_path, monkeypatch, capsys):
    scan = saved_scan(tmp_path, benchmark_results(3))
    out_text = tmp_path / "report.txt"
    out_text.write_bytes(b"the previous report\n")
    replace = os.replace

    def refuse_the_text_report(source, target):
        if Path(target).name == "report.txt":
            raise OSError(errno.EXDEV, "Invalid cross-device link")
        replace(source, target)

    monkeypatch.setattr(os, "replace", refuse_the_text_report)
    code = main(["run", "--scan-json", scan, "--out-json", str(tmp_path / "report.json"), "--out-text", str(out_text)])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert "Invalid cross-device link" in line, line
    assert "Traceback" not in err
    assert out_text.read_bytes() == b"the previous report\n"
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize(
    "case", ["run --out-json", "run --out-text", "run --detections-out", "report --out-json", "report --out-text"]
)
def test_an_existing_private_output_stays_private(tmp_path, capsys, case):
    out = tmp_path / "private"
    out.write_bytes(b"old\n")
    out.chmod(0o600)
    assert main(command_writing(tmp_path, case, out)) == 0
    assert out.read_bytes() != b"old\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o600


@pytest.mark.parametrize("name", ["a" * 250, "é" * 125], ids=["250-ascii", "125-two-byte"])
def test_an_output_whose_name_nearly_fills_the_name_limit_is_written_whole(tmp_path, capsys, name):
    # 250 bytes: the name with a dot, the pid and ".tmp" added would pass the 255-byte limit.
    out = tmp_path / name
    out.write_bytes(b"old\n")
    assert main(command_writing(tmp_path, "run --out-text", out)) == 0
    assert out.read_text(encoding="utf-8").startswith("run ")
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["retained"][0]["finding"].update(unknown=1),
        lambda doc: doc["plan"].update(unknown=1),
        lambda doc: doc["retained"][0]["finding"].update(cwe_name="Bogus"),
        lambda doc: doc["plan"].update(batch_size="fifteen"),
        lambda doc: doc["plan"].update(fail_open_enabled="maybe"),
        lambda doc: doc["timing"].update(total_latency_seconds=float("nan")),
        lambda doc: doc["scorecard"]["overall"]["matrix"].update(tp=-1),
    ],
    ids=[
        "unknown-finding-key", "unknown-plan-key", "wrong-cwe-name", "plan-int-as-text", "plan-bool-as-text",
        "latency-nan", "matrix-negative-count",
    ],
)
def test_report_refuses_a_document_render_json_could_not_have_written(tmp_path, capsys, mutate):
    from tests.test_report import GOLDEN

    doc = json.loads((GOLDEN / "report.json").read_bytes())
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code = main(["report", "--in", str(path), "--out-json", str(tmp_path / "x.json")])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: report {path}: "), line
    assert out == ""
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "command, flag, key, content, lineno, what",
    [
        ("run", "--config", "config", None, None, "No such file or directory"),
        ("run", "--config", "config", b"batch_size = 2\n# note\nnot a key value line\n", 3, "expected 'key = value'"),
        ("run", "--verdicts", "verdicts", b'["f1"]\n', None, "must hold a JSON object"),
        (
            "run", "--verdicts", "verdicts", b'{"f1": ["true_positive", null], "f2": "false_positive"}\n', None,
            "verdict for 'f1' is not a classification or a [classification, rationale] pair",
        ),
        (
            "run", "--verdicts", "verdicts", b'{"f1": ["false_positive", 5]}\n', None,
            "verdict for 'f1' is not a classification or a [classification, rationale] pair",
        ),
        ("run", "--template", "template", b"\xff{{findings_block}}\n", None, "can't decode byte 0xff"),
        (
            "run", "--template", "template", b"{{findings_block}}\n---\n{{findings_block}}\n", None,
            "holds {{findings_block}} 2 times",
        ),
        ("run", "--cwe-map", "cwe_map", b"200 -> 22\n200 => 22\n", 2, "expected 'alias -> category'"),
        (
            "run", "--ground-truth", "ground_truth", b"BenchmarkTest00001,sqli,maybe,89\n", 1,
            "vulnerability flag must be true/false",
        ),
        (
            "run", "--baseline", "baseline", b"BenchmarkTest00001,89\nBenchmarkTest00002,eighty\n", 2,
            "invalid literal for int()",
        ),
        (
            "score", "--detections", "detections", b"BenchmarkTest00001,89\nBenchmarkTest00002,-89\n", 2,
            "CWE code must be non-negative",
        ),
        ("report", "--in", "report", b'{"schema_version": "3"}\n', None, "malformed report document"),
        ("replay", "--cassette", "cassette", None, None, "No such file or directory"),
        ("replay", "--cassette", "cassette", b'{"not": "an array"}\n', None, "must be a JSON array of records"),
        ("replay", "--cassette", "cassette", b'[{"request_digest": "d"}]\n', None, "malformed record"),
    ],
    ids=[
        "config-missing", "config-record", "verdicts-not-an-object", "verdicts-null-rationale",
        "verdicts-number-rationale", "template-not-utf8", "template-placeholder-twice", "cwe-map-record",
        "ground-truth-record", "baseline-record", "detections-negative-code", "report-malformed", "cassette-missing",
        "cassette-not-an-array", "cassette-record-without-response",
    ],
)
def test_every_input_error_reads_key_path_and_what(tmp_path, capsys, command, flag, key, content, lineno, what):
    bad = tmp_path / "bad.input"
    if content is not None:
        bad.write_bytes(content)
    if command == "score":
        gt = tmp_path / "gt.csv"
        gt.write_text("BenchmarkTest00001,sqli,true,89\nBenchmarkTest00002,sqli,true,89\n")
        argv = ["score", "--ground-truth", str(gt)]
    elif command == "report":
        argv = ["report"]
    else:
        argv = [
            "run",
            "--scan-json", str(tmp_path / "absent.json"),  # a scan would exit 2
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
        ]
        if command == "replay":
            argv += ["--backend", "replay"]
    code = main([*argv, flag, str(bad)])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: {key} {bad}: "), line
    assert what in line, line
    assert "Traceback" not in err and out == ""
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.txt").exists()
    if lineno is not None:
        assert re.findall(r"line \d+:", line) == [f"line {lineno}:"], line
        assert "config line" not in line and "mapping table line" not in line, line


@pytest.mark.parametrize(
    "argv, key",
    [
        (["run", "--config="], "config"),
        (["run", "--verdicts="], "verdicts"),
        (["run", "--backend", "replay", "--cassette="], "cassette"),
        (["run", "--backend", "scripted", "--cassette="], "scripted"),
        (["score", "--detections="], "detections"),
        (["score", "--ground-truth="], "ground_truth"),
        (["score", "--baseline="], "baseline"),
        (["report", "--in="], "report"),
    ],
    ids=[
        "run-config", "run-verdicts", "replay-cassette", "scripted-cassette",
        "score-detections", "score-ground-truth", "score-baseline", "report-in",
    ],
)
def test_an_empty_input_path_exits_one_before_any_work(tmp_path, monkeypatch, capsys, argv, key):
    # An empty path would be the working directory. The absent scan file
    # shows that run stops before the scan, which would exit 2.
    monkeypatch.chdir(tmp_path)
    Path("gt.csv").write_text("BenchmarkTest00001,sqli,true,89\n")
    Path("d.txt").write_text("BenchmarkTest00001,89\n")
    if argv[0] == "score":  # the empty value given last replaces the usable one
        argv = ["score", "--detections", "d.txt", "--ground-truth", "gt.csv", *argv[1:]]
    elif argv[0] != "report":
        argv = [*argv, "--scan-json", "absent.json", "--out-json", "r.json", "--out-text", "r.txt"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    if key == "scripted":  # a scripted run takes no cassette, empty or not
        assert "--cassette" in line and key in line, line
    else:
        assert line == f"error: {key}: expected a path, got an empty value", line
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "gt.csv"]


@pytest.mark.parametrize("link", ["dotdot", "symlink", "hardlink"])
def test_an_output_reaching_an_input_by_another_name_exits_one_before_any_work(
    tmp_path, monkeypatch, capsys, link
):
    # The scan is usable, so a run that missed the clash would replace it
    # with the report and exit 0.
    monkeypatch.chdir(tmp_path)
    scan = Path(saved_scan(tmp_path, benchmark_results(1)))
    content = scan.read_bytes()
    out_json = {"dotdot": "sub/../scan.json", "symlink": "link.json", "hardlink": "link.json"}[link]
    if link == "symlink":
        os.symlink("scan.json", out_json)
    elif link == "hardlink":
        os.link("scan.json", out_json)
    code = main(["run", "--scan-json", "scan.json", "--out-json", out_json, "--out-text", "r.txt"])
    out, err = capsys.readouterr()
    assert code == 1, err
    [line] = error_lines(err)
    assert line.startswith(f"error: out_json: {out_json} ") and "scan_json: scan.json" in line, line
    assert out == ""
    assert scan.read_bytes() == content
    assert not Path("r.txt").exists() and not Path("sub").exists()
