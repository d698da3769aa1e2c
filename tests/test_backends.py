import email.utils
import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sastsieve import backends
from sastsieve.backends import (
    BackendError,
    BackendTimeoutError,
    CassetteMissError,
    CassetteRecorder,
    LiveBackend,
    ReplayBackend,
    ScriptedBackend,
    request_digest,
)
from sastsieve.cli import main
from sastsieve.filter_agent import DEFAULT_TEMPLATE, LlmRequest, build_prompt, filter_findings
from sastsieve.model import ConfigError
from sastsieve.pipeline import MissionPlan, plan_mission, run_mission
from tests.conftest import make_finding
from tests.test_cli import only_finding_id, record_cassette
from tests.test_filter_agent import SpyBackend, batch_of
from tests.test_ingest import result_doc
from tests.test_pipeline import benchmark_results, saved_scan

REPO = Path(__file__).resolve().parent.parent


def request_for(user_text="review this", model="test-model"):
    return LlmRequest(model_id=model, system_text="sys", user_text=user_text)


class _ChatHandler(BaseHTTPRequestHandler):
    """Minimal OpenAI-style chat-completions endpoint for tests."""

    server_version = "TestLLM/1.0"

    def log_message(self, *args):
        pass

    def do_POST(self):
        plan = self.server.plan
        self.server.hits += 1
        self.server.last_headers = dict(self.headers)
        length = int(self.headers.get("Content-Length", 0))
        self.server.last_body = json.loads(self.rfile.read(length) or b"{}")
        self.server.bodies.append(self.server.last_body)

        step = plan.pop(0) if plan else ("ok", None)
        kind, value = step
        if kind == "sleep":
            time.sleep(value)
            kind, value = "ok", None
        if kind == "stall":  # the headers and part of the body, then silence
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b'{"choices": ')
            time.sleep(value)
            return
        if kind == "lull":  # the headers, one body byte after `value` seconds, then silence
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "1000")
            self.end_headers()
            time.sleep(value)
            self.wfile.write(b"{")
            time.sleep(1.0)
            return
        if kind == "drip":  # a whole answer, one byte every `value` seconds
            body = json.dumps({"choices": [{"message": {"content": json.dumps({"results": []})}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                for byte in body:
                    self.wfile.write(bytes([byte]))
                    time.sleep(value)
            except OSError:  # the client gave up
                pass
            return
        if kind == "drop":  # the connection closes with no response
            self.close_connection = True
            return
        if kind == "status":
            code, headers = value if isinstance(value, tuple) else (value, {})
            self.send_response(code)
            for name, text in headers.items():
                self.send_header(name, text)
            self.end_headers()
            self.wfile.write(b"upstream error")
            return
        if kind == "raw":
            body = value.encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        content = value if value is not None else json.dumps({"results": []})
        body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def chat_server(monkeypatch):
    # Retries against the test server wait 10 and 20 ms, not 1 and 4 s.
    monkeypatch.setattr(backends, "RETRY_WAITS", (0.01, 0.02))
    yield from serve_chat()


@pytest.fixture
def second_server():
    yield from serve_chat()


def serve_chat():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    server.plan = []
    server.hits = 0
    server.last_headers = {}
    server.last_body = {}
    server.bodies = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def live_backend(server, **kwargs):
    kwargs.setdefault("api_base", f"http://127.0.0.1:{server.server_address[1]}")
    kwargs.setdefault("api_key", "test-key")
    kwargs.setdefault("model_id", "test-model")
    return LiveBackend(**kwargs)


def test_live_backend_happy_path(chat_server):
    chat_server.plan = [("ok", "hello from the model")]
    backend = live_backend(chat_server)
    assert backend.complete(request_for()) == "hello from the model"
    assert chat_server.last_headers.get("Authorization") == "Bearer test-key"
    body = chat_server.last_body
    assert body["model"] == "test-model"
    assert body["temperature"] == 0
    assert [m["role"] for m in body["messages"]] == ["system", "user"]


def test_live_backend_requires_env_or_args(monkeypatch):
    monkeypatch.delenv("QSC_API_KEY", raising=False)
    monkeypatch.delenv("QSC_API_BASE", raising=False)
    with pytest.raises(ConfigError, match="QSC_API_KEY"):
        LiveBackend()
    monkeypatch.setenv("QSC_API_KEY", "k")
    with pytest.raises(ConfigError, match="QSC_API_BASE"):
        LiveBackend()


def test_live_backend_reads_environment(monkeypatch, chat_server):
    port = chat_server.server_address[1]
    monkeypatch.setenv("QSC_API_KEY", "env-key")
    monkeypatch.setenv("QSC_API_BASE", f"http://127.0.0.1:{port}")
    monkeypatch.setenv("QSC_MODEL", "env-model")
    backend = LiveBackend()
    backend.complete(request_for(model=""))
    assert chat_server.last_headers.get("Authorization") == "Bearer env-key"
    assert chat_server.last_body["model"] == "env-model"


def test_live_backend_retries_transient_failures(chat_server):
    chat_server.plan = [("status", 500), ("status", 429), ("ok", "eventually fine")]
    backend = live_backend(chat_server)
    assert backend.complete(request_for()) == "eventually fine"
    assert chat_server.hits == 3


def test_live_backend_bounded_retries(chat_server):
    chat_server.plan = [("status", 500)] * 10
    backend = live_backend(chat_server)
    with pytest.raises(BackendError):
        backend.complete(request_for())
    assert chat_server.hits == 3  # initial call + 2 retries, never more


def test_live_backend_refuses_a_body_over_the_cap_without_retrying(chat_server):
    chat_server.plan = [("ok", "x" * 2**20)]  # a valid completion envelope just over 1 MiB
    with pytest.raises(BackendError, match="over the 1048576-byte cap"):
        live_backend(chat_server).complete(request_for())
    assert chat_server.hits == 1


def test_live_backend_answers_a_body_of_exactly_the_cap(chat_server):
    envelope = json.dumps({"choices": [{"message": {"content": "fits"}}]})
    chat_server.plan = [("raw", envelope.ljust(backends.MAX_RESPONSE_BYTES))]
    assert live_backend(chat_server).complete(request_for()) == "fits"


def test_live_backend_retries_a_dropped_connection(chat_server):
    chat_server.plan = [("drop", None), ("ok", "after the drop")]
    assert live_backend(chat_server).complete(request_for()) == "after the drop"
    assert chat_server.hits == 2


def test_a_backoff_gives_its_model_slot_to_the_next_batch(chat_server, monkeypatch):
    # One slot: batch 0's 503 must not keep it through the backoff.
    chat_server.plan = [("status", 503)]
    monkeypatch.setattr(backends, "RETRY_WAITS", (0.3,))
    backend = live_backend(chat_server)
    findings = [make_finding(0), make_finding(1)]
    plan = MissionPlan(batch_size=1, parallelism=1)
    filter_findings(findings, backend, plan, DEFAULT_TEMPLATE)
    sent = [re.findall(r"### Finding (\S+)", body["messages"][1]["content"]) for body in chat_server.bodies]
    assert sent == [["f000000"], ["f000001"], ["f000000"]]


@pytest.fixture
def waits(monkeypatch):
    """The backoffs a live backend asks for, recorded instead of slept."""
    asked = []
    monkeypatch.setattr(backends, "backoff", asked.append)
    return asked


@pytest.mark.parametrize(
    "status, retry_after, wait",
    [
        (503, "3", 3.0),  # delay-seconds longer than the scheduled backoff
        (429, "30", 30.0),  # the cap itself is still waited out
        (429, "0", 0.5),  # the scheduled backoff when it is longer
        (503, "Thu, 01 Jan 1970 00:00:00 GMT", 0.5),  # a date in the past
        (503, "soon", 0.5),  # unparseable: ignored
        (503, "-3", 0.5),
        (500, "3", 0.5),  # only 429 and 503 are read
    ],
)
def test_live_backend_waits_out_retry_after(chat_server, waits, monkeypatch, status, retry_after, wait):
    chat_server.plan = [("status", (status, {"Retry-After": retry_after})), ("ok", "fine")]
    monkeypatch.setattr(backends, "RETRY_WAITS", (0.5,))
    backend = live_backend(chat_server)
    assert backend.complete(request_for()) == "fine"
    assert waits == [wait]


def test_live_backend_reads_retry_after_as_an_http_date(chat_server, waits, monkeypatch):
    date = email.utils.formatdate(time.time() + 10, usegmt=True)
    chat_server.plan = [("status", (503, {"Retry-After": date})), ("ok", "fine")]
    monkeypatch.setattr(backends, "RETRY_WAITS", (0.5,))
    backend = live_backend(chat_server)
    assert backend.complete(request_for()) == "fine"
    [wait] = waits
    assert 8.0 <= wait <= 10.0


@pytest.mark.parametrize(
    "retry_after",
    ["31", "9" * 5000, email.utils.formatdate(time.time() + 3600, usegmt=True)],
    ids=["31", "5000-digits", "an-hour-ahead"],
)
def test_live_backend_gives_up_when_retry_after_is_over_the_cap(chat_server, waits, retry_after):
    chat_server.plan = [("status", (429, {"Retry-After": retry_after})), ("ok", "fine")]
    backend = live_backend(chat_server)
    with pytest.raises(BackendError, match="Retry-After") as raised:
        backend.complete(request_for())
    assert type(raised.value) is BackendError  # a transport error, not a timeout
    assert chat_server.hits == 1 and waits == []


def test_live_backend_no_retry_on_4xx(chat_server):
    chat_server.plan = [("status", 400)]
    backend = live_backend(chat_server)
    with pytest.raises(BackendError):
        backend.complete(request_for())
    assert chat_server.hits == 1


def test_live_backend_enforces_timeout(chat_server):
    chat_server.plan = [("sleep", 1.0)]
    backend = live_backend(chat_server, timeout=0.2)
    started = time.perf_counter()
    with pytest.raises(BackendTimeoutError):
        backend.complete(request_for())
    assert time.perf_counter() - started < 0.9  # did not wait for the server


def test_live_backend_times_out_on_a_stalled_body_without_retrying(chat_server):
    chat_server.plan = [("stall", 1.0)]
    backend = live_backend(chat_server, timeout=0.2)
    started = time.perf_counter()
    with pytest.raises(BackendTimeoutError):
        backend.complete(request_for())
    assert time.perf_counter() - started < 0.9
    assert chat_server.hits == 1


def test_live_backend_times_out_on_a_dripped_body_without_retrying(chat_server):
    # Each byte comes well inside the timeout; the whole answer takes about 3 s.
    chat_server.plan = [("drip", 0.05)]
    backend = live_backend(chat_server, timeout=0.3)
    started = time.perf_counter()
    with pytest.raises(BackendTimeoutError):
        backend.complete(request_for())
    assert time.perf_counter() - started < 0.9
    assert chat_server.hits == 1


def test_live_backend_body_read_waits_only_the_time_left(chat_server):
    # The one byte comes inside the timeout; the read after it may wait only
    # what is left of the attempt, not a whole timeout more.
    chat_server.plan = [("lull", 0.25)]
    backend = live_backend(chat_server, timeout=0.3)
    started = time.perf_counter()
    with pytest.raises(BackendTimeoutError):
        backend.complete(request_for())
    assert time.perf_counter() - started < 0.4
    assert chat_server.hits == 1


def test_live_backend_sends_its_bearer_token_despite_a_netrc_entry(chat_server, monkeypatch, tmp_path):
    netrc = tmp_path / ".netrc"
    netrc.write_text("machine 127.0.0.1 login someone password hunter2\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("NETRC", str(netrc))
    live_backend(chat_server).complete(request_for())
    assert chat_server.last_headers.get("Authorization") == "Bearer test-key"


def test_live_backend_follows_no_redirect(chat_server, second_server):
    target = f"http://127.0.0.1:{second_server.server_address[1]}/chat/completions"
    chat_server.plan = [("status", (307, {"Location": target}))]
    backend = live_backend(chat_server)
    with pytest.raises(BackendError, match="307") as raised:
        backend.complete(request_for())
    assert type(raised.value) is BackendError
    assert chat_server.hits == 1  # a redirect is not retried
    assert second_server.hits == 0  # and the bearer token went nowhere else


@pytest.mark.parametrize("api_base", ["localhost:9/v1", "ftp://127.0.0.1/v1", "127.0.0.1:9"])
def test_live_backend_refuses_an_endpoint_that_is_not_http(api_base):
    with pytest.raises(ConfigError, match="QSC_API_BASE"):
        LiveBackend(api_base=api_base, api_key="k", model_id="m")


def test_live_backend_rejects_bad_envelope(chat_server):
    chat_server.plan = [("raw", '{"unexpected": "shape"}')]
    backend = live_backend(chat_server)
    with pytest.raises(BackendError, match="envelope"):
        backend.complete(request_for())
    assert chat_server.hits == 1  # envelope problems are not retried

    chat_server.plan = [("raw", '{"choices": [{"message": {"content": null}}]}')]
    with pytest.raises(BackendError, match="envelope"):
        backend.complete(request_for())


def test_live_backend_requires_some_model_id(chat_server, monkeypatch):
    monkeypatch.delenv("QSC_MODEL", raising=False)
    with pytest.raises(ConfigError, match="QSC_MODEL"):
        live_backend(chat_server, model_id="")
    assert chat_server.hits == 0


def test_request_carries_the_batch_finding_ids():
    findings = [make_finding(i) for i in range(4)]
    request = build_prompt(batch_of(findings), DEFAULT_TEMPLATE)
    assert request.finding_ids == tuple(f.id for f in findings)
    assert request_digest(replace(request, finding_ids=())) == request_digest(request)


def test_scripted_backend_answers_only_known_ids():
    findings = [make_finding(i) for i in range(3)]
    request = build_prompt(batch_of(findings), DEFAULT_TEMPLATE)
    backend = ScriptedBackend({findings[0].id: "false_positive"})
    results = json.loads(backend.complete(request))["results"]
    assert [r["finding_id"] for r in results] == [findings[0].id]
    assert results[0]["classification"] == "false_positive"


def test_scripted_backend_default_classification():
    findings = [make_finding(i) for i in range(3)]
    request = build_prompt(batch_of(findings), DEFAULT_TEMPLATE)
    backend = ScriptedBackend({}, default="true_positive")
    results = json.loads(backend.complete(request))["results"]
    assert len(results) == 3
    assert all(r["classification"] == "true_positive" for r in results)


def test_request_digest_ignores_timeout_but_not_content():
    # The timeout is a LiveBackend setting, not part of the request, so it
    # cannot reach a digest.
    assert "timeout" not in {f.name for f in fields(LlmRequest)}
    a = LlmRequest(model_id="m", system_text="s", user_text="u")
    c = LlmRequest(model_id="m", system_text="s", user_text="different")
    assert request_digest(a) != request_digest(c)


def test_request_digest_and_output_cap_are_pinned(chat_server):
    # Cassettes are keyed by this digest; a change to what it covers (the
    # model, both texts and the 4096-token output cap) makes every
    # recorded exchange miss on replay.
    request = LlmRequest(
        model_id="model-x", system_text="system text", user_text="review: café → ok"
    )
    assert request_digest(request) == (
        "7aaaf09fb3b115eb0dc04c7f1065891ff8afd875f2d4f322f41e7729d1c016dd"
    )
    live_backend(chat_server).complete(request)
    assert chat_server.last_body["max_tokens"] == 4096


def test_the_default_prompt_digest_is_pinned(tmp_path):
    # A run without --template prompts through the default template; an edit
    # to its bytes makes every cassette recorded with it miss on replay.
    source = tmp_path / "src" / "BenchmarkTest00001.java"
    source.parent.mkdir()
    source.write_text("class A {\n  void f(String q) {\n    db.query(q);\n  }\n}\n")
    scan = saved_scan(tmp_path, [result_doc("src/BenchmarkTest00001.java", start=3, end=3)])
    spy = SpyBackend(ScriptedBackend({}, default="true_positive"))
    run_mission(plan_mission({"scan_json": scan, "target_root": str(tmp_path), "model": "m"}), spy)
    [request] = spy.requests
    assert request_digest(request) == (
        "1451e92d852b2290ad8410a84d00bd8627d6ae7ffb0d90cacd8754674eedd58f"
    )


def test_record_then_replay_round_trip(tmp_path):
    cassette = tmp_path / "cassette.json"
    inner = ScriptedBackend({}, default="true_positive")
    findings = [make_finding(i) for i in range(3)]
    request = build_prompt(batch_of(findings), DEFAULT_TEMPLATE)

    recorder = CassetteRecorder(inner, cassette)
    recorded_text = recorder.complete(request)
    recorder.save()
    assert cassette.exists()

    replay = ReplayBackend(cassette)
    assert replay.complete(request) == recorded_text

    records = json.loads(cassette.read_text())
    assert {"request_digest", "request_user_text", "response_text"} <= set(records[0])


def test_replay_miss_fails_the_call(tmp_path):
    cassette = tmp_path / "cassette.json"
    cassette.write_text("[]")
    replay = ReplayBackend(cassette)
    # A cassette replays only under the model it was recorded with; say which was asked for.
    with pytest.raises(CassetteMissError, match="model 'other-model'"):
        replay.complete(request_for(model="other-model"))


def test_replay_missing_or_malformed_cassette(tmp_path):
    with pytest.raises(ConfigError):
        ReplayBackend(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ReplayBackend(bad)
    wrong_shape = tmp_path / "wrong.json"
    wrong_shape.write_text('{"a": 1}')
    with pytest.raises(ConfigError):
        ReplayBackend(wrong_shape)


def test_backends_are_safe_under_concurrent_calls(tmp_path):
    findings = [make_finding(i) for i in range(40)]
    requests = [
        build_prompt(batch_of([f], index=0), DEFAULT_TEMPLATE) for f in findings
    ]
    scripted = ScriptedBackend({}, default="false_positive")
    cassette = tmp_path / "cassette.json"
    recorder = CassetteRecorder(scripted, cassette)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(recorder.complete, requests))
    recorder.save()

    replay = ReplayBackend(cassette)
    with ThreadPoolExecutor(max_workers=8) as pool:
        texts = list(pool.map(replay.complete, requests))
    assert all(json.loads(t)["results"] for t in texts)

    records = json.loads(cassette.read_text())
    assert len(records) == 40
    digests = [r["request_digest"] for r in records]
    assert digests == sorted(digests)  # cassette file order is deterministic


def test_live_answer_with_a_lone_surrogate_is_recorded_and_replayed(
    tmp_path, chat_server, monkeypatch, capsys
):
    scan = saved_scan(tmp_path, benchmark_results(1))
    answer = {
        "results": [
            {
                "finding_id": only_finding_id(scan),
                "classification": "false_positive",
                "rationale": "ok \ud800",
            }
        ]
    }
    # The endpoint escapes the surrogate in its JSON body, so the decoded
    # answer text holds it raw.
    chat_server.plan = [("ok", json.dumps(answer, ensure_ascii=False))]
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", f"http://127.0.0.1:{chat_server.server_address[1]}")
    monkeypatch.setenv("QSC_MODEL", "m")
    cassette = tmp_path / "c.json"
    for backend in ("live", "replay"):
        out_json = tmp_path / f"{backend}.json"
        code = main(
            [
                "run",
                "--scan-json", scan,
                "--backend", backend,
                "--model", "m",  # a replay asks for the model the recording used
                "--cassette", str(cassette),
                "--out-json", str(out_json),
                "--out-text", str(tmp_path / "r.txt"),
            ]
        )
        assert code == 0, capsys.readouterr().err
        [dropped] = json.loads(out_json.read_bytes())["suppressed"]
        assert dropped["verdict"]["rationale"] == "ok \ufffd"
    assert chat_server.hits == 1


def test_a_live_run_writes_through_symbolic_links_to_its_cassette_and_report(
    tmp_path, chat_server, monkeypatch, capsys
):
    scan = saved_scan(tmp_path, benchmark_results(1))
    chat_server.plan = [("ok", json.dumps({"results": []}))]
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", f"http://127.0.0.1:{chat_server.server_address[1]}")
    monkeypatch.setenv("QSC_MODEL", "m")
    targets = tmp_path / "targets"
    targets.mkdir()
    for name in ("c.json", "r.json"):
        (targets / name).write_bytes(b"old\n")
        (tmp_path / name).symlink_to(targets / name)
    argv = ["--cassette", str(tmp_path / "c.json"), "--out-json", str(tmp_path / "r.json")]
    code = main(["run", "--scan-json", scan, "--backend", "live", *argv, "--out-text", str(tmp_path / "r.txt")])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "c.json").is_symlink() and (tmp_path / "r.json").is_symlink()
    [record] = json.loads((targets / "c.json").read_bytes())
    assert json.loads(record["response_text"]) == {"results": []}
    assert json.loads((targets / "r.json").read_bytes())["schema_version"] == "3"
    assert sorted(p.name for p in targets.iterdir()) == ["c.json", "r.json"]


# The HTTP client is loaded only when a live backend is built. Other tests
# import it in this process, so each check runs in a fresh interpreter.
def run_python(script, *args):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )


COMMANDS_THEN_CHECK = """
import json, sys
from sastsieve import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert "urllib.request" not in sys.modules
"""


def test_commands_without_a_live_backend_never_load_the_http_client(tmp_path):
    scan = saved_scan(tmp_path, benchmark_results(3))
    cassette = tmp_path / "c.json"
    record_cassette(tmp_path, scan, cassette)
    ground_truth = tmp_path / "expected.csv"
    ground_truth.write_text("BenchmarkTest00001,sqli,true,89\n")
    out = {name: str(tmp_path / name) for name in ("r.json", "r.txt", "d.txt", "p.json", "p.txt", "x.txt")}
    commands = [
        ["run", "--backend", "scripted", "--scan-json", scan, "--out-json", out["r.json"],
         "--out-text", out["r.txt"], "--detections-out", out["d.txt"]],
        ["run", "--backend", "replay", "--scan-json", scan, "--cassette", str(cassette),
         "--out-json", out["p.json"], "--out-text", out["p.txt"]],
        ["report", "--in", out["r.json"], "--out-text", out["x.txt"]],
        ["score", "--detections", out["d.txt"], "--ground-truth", str(ground_truth)],
    ]
    proc = run_python(COMMANDS_THEN_CHECK, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr


BUILD_THEN_CHECK = """
import sys
from sastsieve.backends import LiveBackend
assert "urllib.request" not in sys.modules
LiveBackend(api_key="k", api_base="http://127.0.0.1:9", model_id="m")
assert "urllib.request" in sys.modules
"""


def test_building_a_live_backend_loads_the_http_client():
    proc = run_python(BUILD_THEN_CHECK)
    assert proc.returncode == 0, proc.stderr


IMPORT_EVERYTHING_THEN_CHECK = """
import importlib, pkgutil, sys
before = set(sys.modules)
import sastsieve
for module in pkgutil.iter_modules(sastsieve.__path__):
    importlib.import_module(f"sastsieve.{module.name}")
from sastsieve.backends import LiveBackend
LiveBackend(api_key="k", api_base="https://127.0.0.1:9", model_id="m")
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"sastsieve"})
assert not foreign, foreign
"""


def test_the_package_and_a_live_backend_need_only_the_standard_library():
    proc = run_python(IMPORT_EVERYTHING_THEN_CHECK)
    assert proc.returncode == 0, proc.stderr


def test_live_run_records_the_model_it_took_from_the_environment(
    tmp_path, chat_server, monkeypatch, capsys
):
    scan = saved_scan(tmp_path, benchmark_results(1))
    answer = {"results": [{"finding_id": only_finding_id(scan), "classification": "true_positive"}]}
    chat_server.plan = [("ok", json.dumps(answer))]
    monkeypatch.setenv("QSC_API_KEY", "k")
    monkeypatch.setenv("QSC_API_BASE", f"http://127.0.0.1:{chat_server.server_address[1]}")
    monkeypatch.setenv("QSC_MODEL", "env-model")
    cassette = tmp_path / "c.json"
    common = ["--scan-json", scan, "--cassette", str(cassette), "--out-text", str(tmp_path / "r.txt")]
    live, replayed = tmp_path / "live.json", tmp_path / "replay.json"
    assert main(["run", "--backend", "live", *common, "--out-json", str(live)]) == 0
    assert chat_server.last_body["model"] == "env-model"
    assert json.loads(live.read_bytes())["plan"]["model_id"] == "env-model"
    monkeypatch.delenv("QSC_MODEL")
    assert main(["run", "--backend", "replay", *common, "--model", "env-model", "--out-json", str(replayed)]) == 0
    assert json.loads(replayed.read_bytes())["fail_open_events"] == []
    assert chat_server.hits == 1
