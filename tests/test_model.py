import ast
import errno
import os
import random
import stat
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from sastsieve.model import (
    Classification,
    ConfigError,
    CweCategory,
    FailOpenCause,
    FilteredFinding,
    Finding,
    Provenance,
    Severity,
    TestCaseId,
    Verdict,
    as_path,
    finding_id,
    read_input,
    write_whole,
)
from sastsieve.model import test_id_from_path as id_from_path
from tests.conftest import make_finding


def test_test_id_from_benchmark_path():
    tid = id_from_path("src/main/java/org/example/BenchmarkTest00001.java")
    assert tid == TestCaseId("BenchmarkTest00001")


def test_test_id_from_non_matching_stem():
    assert id_from_path("helpers/SeparateClassRequest.java") is None


def test_test_id_over_all_benchmark_filenames():
    # Oracle: every one of the 2,740 benchmark filenames yields exactly its
    # own id, under assorted directory prefixes.
    prefixes = ["", "a/", "src/main/java/org/owasp/benchmark/testcode/", "C:\\work\\"]
    for n in range(1, 2741):
        name = f"BenchmarkTest{n:05d}"
        path = prefixes[n % len(prefixes)] + name + ".java"
        tid = id_from_path(path)
        assert tid is not None and tid.value == name


def test_test_id_never_malformed_on_random_strings():
    rng = random.Random(1009)
    alphabet = "abBT0123456789enchmarkTest./\\_-"
    for _ in range(2000):
        path = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        tid = id_from_path(path)
        assert tid == id_from_path(path)  # deterministic
        if tid is not None:
            assert TestCaseId(tid.value) == tid  # none-or-valid


def test_test_id_requires_exactly_five_digits():
    assert id_from_path("BenchmarkTest0001.java") is None
    assert id_from_path("BenchmarkTest000001.java") is None
    assert id_from_path("BenchmarkTest00001.test.java") is None


def test_test_case_id_rejects_malformed_values():
    for bad in ("BenchmarkTest1", "benchmarktest00001", "BenchmarkTest00001.java", ""):
        with pytest.raises(ValueError):
            TestCaseId(bad)


def test_test_case_id_orders_by_value():
    a, b = TestCaseId("BenchmarkTest00001"), TestCaseId("BenchmarkTest00002")
    assert a < b and sorted([b, a]) == [a, b]


def test_cwe_category_canonical_names():
    assert CweCategory(89).name == "SQL Injection"
    assert CweCategory(643).name == "XPath Injection"
    assert CweCategory(0).name == "Other"
    assert CweCategory(9999).name == "Other"
    assert CweCategory(89).label == "CWE-89"


def test_cwe_category_rejects_negative_codes():
    with pytest.raises(ValueError):
        CweCategory(-1)


def test_finding_rejects_bad_line_ranges():
    with pytest.raises(ValueError):
        make_finding(1, start_line=0)
    with pytest.raises(ValueError):
        make_finding(1, start_line=5, end_line=4)


def test_finding_id_is_stable_and_sensitive():
    a = finding_id("semgrep:r1", "a/B.java", 10, 89)
    assert a == finding_id("semgrep:r1", "a/B.java", 10, 89)
    assert a != finding_id("semgrep:r1", "a/B.java", 11, 89)
    assert a != finding_id("semgrep:r2", "a/B.java", 10, 89)
    assert a != finding_id("semgrep:r1", "a/B.java", 10, 79)


def test_verdict_fail_open_never_suppresses():
    with pytest.raises(ValueError):
        Verdict(Classification.FALSE_POSITIVE, cause=FailOpenCause.TIMEOUT)
    verdict = Verdict.fail_open("timeout")
    assert verdict.classification is Classification.TRUE_POSITIVE
    assert verdict.retained


def test_verdict_field_consistency():
    with pytest.raises(ValueError):
        Verdict(Classification.TRUE_POSITIVE)  # neither a rationale nor a cause
    with pytest.raises(ValueError):
        Verdict(Classification.TRUE_POSITIVE, rationale="ok", cause=FailOpenCause.TIMEOUT)
    with pytest.raises(TypeError):
        Verdict(Classification.TRUE_POSITIVE, provenance=Provenance.LLM_DECISION, rationale="ok")  # derived


def test_verdict_provenance_follows_from_its_cause():
    assert Verdict(Classification.FALSE_POSITIVE, rationale="ok").provenance is Provenance.LLM_DECISION
    assert Verdict.llm("true_positive", "ok").provenance is Provenance.LLM_DECISION
    assert Verdict(Classification.TRUE_POSITIVE, cause=FailOpenCause.TIMEOUT).provenance is Provenance.FAIL_OPEN
    assert Verdict.fail_open("missing_entry").provenance is Provenance.FAIL_OPEN


def test_finding_test_id_follows_from_its_file_path():
    finding = make_finding(1, file_path="src/BenchmarkTest00042.java")
    assert finding.test_id == TestCaseId("BenchmarkTest00042")
    assert replace(finding, file_path="src/Util.java").test_id is None


def test_filtered_finding_batch_index_rules():
    finding = make_finding(7)
    llm = Verdict.llm("false_positive", "sanitized")
    assert FilteredFinding(finding, llm, 0).batch_index == 0
    with pytest.raises(TypeError):
        FilteredFinding(finding, llm)  # every verdict comes from a batch
    with pytest.raises(ValueError):
        FilteredFinding(finding, llm, -1)


def test_severity_values_are_the_three_folded_levels():
    assert {s.value for s in Severity} == {"info", "warning", "error"}


def test_read_input_drops_a_bom_names_key_and_file_and_reads_no_path_as_none(tmp_path):
    from sastsieve import pipeline

    assert (pipeline.read_input, pipeline.ConfigError) == (read_input, ConfigError)
    assert read_input("template", None, str) is None
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbfa\xff")
    assert read_input("template", path, str, errors="replace") == "a\ufffd"
    with pytest.raises(ConfigError, match=f"^template {path}: .*utf-8"):
        read_input("template", path, str)
    with pytest.raises(ConfigError, match=f"^template {path}: line 1: bad$"):
        read_input("template", path, refuse, errors="replace")


def refuse(text: str) -> None:
    raise ValueError("line 1: bad")


def test_read_input_refuses_an_empty_or_nul_path_before_opening_it(monkeypatch, tmp_path):
    from sastsieve import pipeline

    assert pipeline.as_path is as_path
    monkeypatch.chdir(tmp_path)  # an empty path would read the working directory
    with pytest.raises(ConfigError, match="^verdicts: expected a path, got an empty value$"):
        read_input("verdicts", "", str)
    with pytest.raises(ConfigError, match="^verdicts: a path cannot hold a NUL"):
        read_input("verdicts", "v\0.json", str)


def test_every_refused_input_or_setting_raises_config_error(monkeypatch):
    from sastsieve.backends import ENV_API_BASE, ENV_API_KEY, ENV_MODEL, LiveBackend, ScriptedBackend
    from sastsieve.benchmark import load_ground_truth
    from sastsieve.ingest import CweMappingTable
    from sastsieve.pipeline import parse_config_file, plan_mission
    from sastsieve.report import load_report
    from sastsieve.scoring import load_detections

    for name in (ENV_API_BASE, ENV_API_KEY, ENV_MODEL):
        monkeypatch.delenv(name, raising=False)
    refusals = [
        lambda: load_ground_truth("BenchmarkTest00001,sqli,maybe,89\n"),
        lambda: load_detections("BenchmarkTest00001 89\n"),
        lambda: CweMappingTable.load("200 => 22\n"),
        lambda: load_report('{"schema_version": "3"}'),
        lambda: parse_config_file("not a key value line\n"),
        lambda: plan_mission({"batch_size": "0", "scan_json": "s.json"}),
        lambda: ScriptedBackend({"f1": "maybe"}),
        lambda: LiveBackend(),
    ]
    for refusal in refusals:
        with pytest.raises(ConfigError):
            refusal()


def test_write_whole_replaces_a_link_target_keeping_its_permission_bits(tmp_path):
    target = tmp_path / "private" / "report.json"
    target.parent.mkdir()
    target.write_bytes(b"old\n")
    target.chmod(0o600)
    link = tmp_path / "report.json"
    link.symlink_to(target)
    write_whole(link, b"new\n")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["private", "report.json", "report.json"]
    write_whole(tmp_path / "absent" / "dir" / "out", b"made\n")
    assert (tmp_path / "absent" / "dir" / "out").read_bytes() == b"made\n"


def _unencodable_cassette(path: Path, monkeypatch) -> None:
    from sastsieve.backends import CassetteRecorder, LlmRequest

    # A lone surrogate cannot be encoded, so the records never reach the disk.
    recorder = CassetteRecorder(SimpleNamespace(complete=lambda request: "ok \ud800"), path)
    recorder.complete(LlmRequest("m", "system", "review this"))
    with pytest.raises(UnicodeEncodeError):
        recorder.save()


def _disk_full(path: Path, monkeypatch) -> None:
    def write_half(self, data):
        with open(self, "wb") as partial:
            partial.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half)
    with pytest.raises(OSError, match="No space left"):
        write_whole(path, b"[]\n" * 100)


def _onto_a_directory(path: Path, monkeypatch) -> None:
    # The bytes are written to the temporary file; the rename onto a
    # non-empty directory is what fails.
    with pytest.raises(OSError):
        write_whole(path, b"[]\n")


@pytest.mark.parametrize(
    "old, write",
    [
        ("file", _unencodable_cassette),
        ("file", _disk_full),
        ("directory", _onto_a_directory),
    ],
    ids=["unencodable-cassette", "disk-full", "rename-onto-a-directory"],
)
def test_a_failed_write_keeps_the_old_output_and_leaves_no_partial_file(tmp_path, monkeypatch, old, write):
    path = tmp_path / "cassette.json"
    if old == "file":
        path.write_text('[{"request_digest": "d", "response_text": "t"}]\n')
    else:
        path.mkdir()
        (path / "kept").write_text("kept")

    def tree():
        return sorted((p.relative_to(tmp_path), p.is_file() and p.read_bytes()) for p in tmp_path.rglob("*"))

    before = tree()
    write(path, monkeypatch)
    assert tree() == before


def file_writes(tree: ast.AST) -> list[ast.Call]:
    """Every call that writes or renames a file: ``write_bytes``, ``write_text``,
    ``os.replace``, ``os.rename``, and ``open`` with a literal write mode."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        of_os = isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os"
        if name in ("write_bytes", "write_text") or (of_os and name in ("replace", "rename")):
            found.append(node)
        elif name == "open":
            if of_os:  # os.open(path, flags)
                writes = any(flag in ast.unparse(node) for flag in ("O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND"))
            else:  # open(path, mode) or path.open(mode)
                modes = node.args[1:] if isinstance(func, ast.Name) else node.args[:1]
                modes = [*modes, *(k.value for k in node.keywords if k.arg == "mode")]
                writes = any(
                    isinstance(m, ast.Constant) and isinstance(m.value, str) and set(m.value) & set("wax+")
                    for m in modes
                )
            if writes:
                found.append(node)
    return found


def test_write_whole_is_the_only_code_that_writes_a_file():
    src = Path(__file__).resolve().parents[1] / "src" / "sastsieve"
    writers = set()
    for module in sorted(src.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for call in file_writes(tree):
            enclosing = [f.name for f in functions if f.lineno <= call.lineno <= f.end_lineno]
            writers.add((module.name, enclosing[-1] if enclosing else None, ast.unparse(call.func)))
    assert {(module, function) for module, function, _ in writers} == {("model.py", "write_whole")}, writers


def test_file_writes_finds_each_kind_of_write():
    source = """
Path(p).write_bytes(b"")
p.write_text("")
os.replace(a, b)
os.rename(a, b)
open(p, "w")
open(p, mode="ab")
p.open("r+")
os.open(p, os.O_WRONLY | os.O_CREAT)
open(p)
open(p, "rb", encoding=None)
p.open()
"x".replace("a", "b")
dataclasses.replace(x)
"""
    assert sorted(call.lineno for call in file_writes(ast.parse(source))) == [2, 3, 4, 5, 6, 7, 8, 9]


def test_the_package_parses_as_its_declared_python_floor():
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    # The check refuses syntax newer than the floor, such as an except* block (3.11).
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    modules = sorted((root / "src" / "sastsieve").glob("*.py"))
    assert modules
    for module in modules:
        ast.parse(module.read_text(encoding="utf-8"), filename=str(module), feature_version=(3, 10))
