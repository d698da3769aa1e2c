"""Workload inputs, program invocations and correctness checks.

Every input is generated from the run's seed, except the OWASP scan, ground
truth and baseline, which are the paper's published traffic and are
imported from the repository's tests. The program sees only the generated
files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import fakemodel
import spans

from sastsieve.backends import CassetteRecorder
from sastsieve.ingest import CweMappingTable, dedupe_by_testcase, normalize, parse_scanner_output
from sastsieve.pipeline import plan_mission, run_mission
from sastsieve.report import build_report, render_json
from sastsieve.scoring import serialize_detections
from tests.conftest import BASELINE_CELLS, PIPELINE_CELLS, detections_for, distribution_csv_bytes
from tests.test_end_to_end import build_full_scale_scan

HERE = Path(__file__).resolve().parent
BATCH_SIZE = 15
CHILD_TIMEOUT_S = 120
FAIL_OPEN_CAUSES = ("transport_error", "timeout", "malformed_response", "missing_entry")

_DENSE_RULES = [
    ("java.lang.security.audit.sqli.tainted-sql-string", 89),
    ("java.lang.security.audit.xss.no-direct-response-writer", 79),
    ("java.lang.security.audit.cmdi.tainted-cmd", 78),
    ("java.lang.security.audit.path-traversal.file-path", 22),
    ("java.lang.security.audit.crypto.weak-hash", 328),
    ("java.lang.security.audit.ldap.ldap-injection", 90),
]
_WORDS = (
    "request response session user account order payment token config cache "
    "stream buffer reader writer query record handler service client value"
).split()


def _java_file(rng: random.Random, cls: str, n_lines: int) -> str:
    """A Java-like source file of exactly ``n_lines`` lines."""
    lines = [f"package org.example.{rng.choice(_WORDS)};", "", f"public class {cls} {{"]
    while len(lines) < n_lines - 1:
        a, b, c = rng.choice(_WORDS), rng.choice(_WORDS), rng.choice(_WORDS)
        lines.append(f"    {a}{len(lines)} = {b}.{c}({rng.randrange(1000)});")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _findings(scan: dict) -> list:
    """The findings the program makes of the scan, in filter order."""
    parsed = parse_scanner_output(json.dumps(scan))
    table = CweMappingTable.default()
    return dedupe_by_testcase([normalize(r, table) for r in parsed.findings])


def _dense_tree(rng: random.Random, root: Path, n_files: int, per_file: int, prefix: str) -> list[dict]:
    """Half the files exceed the context budget; returns the file layout."""
    # Sizes come from a fixed ladder that the seed only permutes, so every
    # seed sends the program the same amount of source.
    half = n_files // 2
    small = [6_000 + 9_000 * i // max(1, half - 1) for i in range(half)]
    large = [20_000 + 28_000 * i // max(1, n_files - half - 1) for i in range(n_files - half)]
    sizes = small + large
    rng.shuffle(sizes)
    files = []
    for i, size in enumerate(sizes):
        service = _WORDS[i % len(_WORDS)]
        cls = f"{service.title()}{rng.choice(_WORDS).title()}{i:03d}"
        rel = f"{prefix}/{service}/src/main/java/com/example/{service}/{cls}.java"
        text = _java_file(rng, cls, max(per_file + 10, size // 34))
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        files.append({"path": rel, "lines": text.count("\n")})
    return files


def _dense_scan(rng: random.Random, files: list[dict], per_file: int) -> dict:
    """``per_file`` findings per file at distinct lines, in path/line order."""
    results = []
    for f in sorted(files, key=lambda f: f["path"]):
        for line in sorted(rng.sample(range(5, f["lines"] - 5), per_file)):
            rule, cwe = rng.choice(_DENSE_RULES)
            results.append(
                {
                    "check_id": rule,
                    "path": f["path"],
                    "start": {"line": line},
                    "end": {"line": line + rng.randint(0, 4)},
                    "extra": {
                        "severity": rng.choice(["ERROR", "WARNING"]),
                        "message": f"possible CWE-{cwe} issue",
                        "metadata": {"cwe": f"CWE-{cwe}"},
                    },
                }
            )
    return {"results": results}


class Workload:
    """Inputs for one workload plus how to invoke and check the program."""

    name = ""

    def __init__(self, seed: int, root: Path, work: Path, cpus: list[int]):
        self.seed = seed
        self.cpus = cpus
        self.root = root
        self.work = work
        self.rng = random.Random(f"{self.name}:{seed}")
        self.model: fakemodel.FakeModel | None = None
        self.expected_ids: list[str] = []
        self.cassette: Path | None = None
        self.out_json = self.rel("report.json")
        self.out_text = self.rel("report.txt")
        self.env = {
            k: v for k, v in os.environ.items() if "proxy" not in k.lower()
        } | {"NO_PROXY": "127.0.0.1,localhost"}
        self.n_invocations = 0

    def rel(self, name: str) -> str:
        return str((self.work / name).relative_to(self.root))

    def prepare(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def in_process_model(self) -> dict | None:
        return None

    def before_invoke(self) -> None:
        pass

    def model_stats(self, child: dict) -> dict:
        """Requests that reached the model during the invocation."""
        return {
            "attempts": child["fake_model"]["attempts"],
            "retries": 0,
            "model_s": child["fake_model"]["model_s"],
            "connections": 0,
        }

    def extra_checks(self, report: dict) -> list[str]:
        return []

    def close(self) -> None:
        pass

    # --- one program invocation --------------------------------------------

    def _spawn(self, traced: bool, setup_only: bool) -> tuple[dict | None, float, str]:
        """Run the child once; (its result or None, spawn time, error text)."""
        self.before_invoke()
        self.n_invocations += 1
        tag = f"{self.n_invocations:03d}"
        result_path = self.work / f"child-{tag}.json"
        spec_path = self.work / f"spec-{tag}.json"
        log_path = self.work / f"child-{tag}.log"
        spec_path.write_text(
            json.dumps(
                {
                    "argv": self.argv(),
                    "src": str(self.root / "src"),
                    "cpu": self.cpus[0],
                    "trace": traced,
                    "setup_only": setup_only,
                    "fake_model": self.in_process_model(),
                    "result": str(result_path),
                }
            ),
            encoding="utf-8",
        )
        with open(log_path, "wb") as log:
            spawned = spans.clock()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    cwd=self.root,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                )
                returncode = proc.returncode
            except subprocess.TimeoutExpired:
                returncode = "timeout"
        child, error = None, ""
        if returncode == 0 and result_path.exists():
            child = json.loads(result_path.read_text(encoding="utf-8"))
            if child["exit_code"] != 0:
                child, error = None, f"sastsieve exited {child['exit_code']}"
        else:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            error = f"child exited {returncode}: {tail}"
        for path in (result_path, spec_path, log_path):
            path.unlink(missing_ok=True)
        return child, spawned, error

    def invoke_setup(self) -> dict:
        """Run only the program's set-up, to sample setup_s cheaply."""
        child, spawned, error = self._spawn(traced=False, setup_only=True)
        if child is None:
            return {"kind": "setup", "errors": [error]}
        return {"kind": "setup", "errors": [], "measures": {"setup_s": child["run_started"] - spawned}}

    def invoke(self, traced: bool) -> dict:
        """Run the program once in a fresh interpreter; return its measures."""
        kind = "traced" if traced else "full"
        child, spawned, error = self._spawn(traced, setup_only=False)
        if child is None:
            return {"kind": kind, "errors": [error]}
        report = json.loads((self.root / self.out_json).read_bytes())
        errors = self.check_verdicts(report) + self.extra_checks(report)
        if not (self.root / self.out_text).read_text(encoding="utf-8"):
            errors.append("text report is empty")

        findings = report["retained"] + report["suppressed"]
        sent = [f for f in findings if f["verdict"]["provenance"] != "evidence_verified"]
        fail_open = [f["verdict"]["cause"] for f in sent if f["verdict"]["provenance"] == "fail_open"]
        model = self.model_stats(child)
        run_s = child["run_ended"] - child["run_started"]
        prompt_bytes = sum(child["prompt_bytes"])
        measures = {
            "run_s": run_s,
            "findings_per_s": len(findings) / run_s,
            "setup_s": child["run_started"] - spawned,
            "peak_rss_mb": child["peak_rss_kib"] * 1024 / 1e6,
            "llm_calls": report["stats"]["llm_calls"],
            "model_requests": model["attempts"],
            "prompt_kib": prompt_bytes / 1024,
            "prompt_bytes_per_finding": prompt_bytes / len(sent) if sent else 0.0,
            "fail_open_share": len(fail_open) / len(sent) if sent else 0.0,
        }
        layers = None
        if traced:
            layers = dict(child["layers"])
            layers.update({f"filter_agent.fail_open.{c}": fail_open.count(c) for c in FAIL_OPEN_CAUSES})
            retry_sleep = layers["backends.retry_sleep_s"]
            layers.update(
                {
                    "filter_agent.fail_open_share": measures["fail_open_share"],
                    "backends.model_requests": model["attempts"],
                    "backends.model_s": model["model_s"],
                    "backends.client_overhead_s": layers["backends.call_sum_s"] - model["model_s"] - retry_sleep,
                    "backends.attempts": model["attempts"],
                    "backends.retries": model["retries"],
                    "backends.connections": model["connections"],
                    "backends.requests_per_connection": (
                        model["attempts"] / model["connections"] if model["connections"] else 0.0
                    ),
                    "backends.cassette_bytes": self.cassette.stat().st_size if self.cassette else 0,
                    "trace.run_s": run_s,
                    "trace.unaccounted_s": run_s - layers["trace.accounted_s"],
                }
            )
        return {"kind": kind, "errors": errors, "measures": measures, "layers": layers}

    # --- checks --------------------------------------------------------------

    def check_verdicts(self, report: dict) -> list[str]:
        """Each finding once, with the verdict the fake model's answer implies.

        A batch whose prompt named a malformed-fault id fails open as
        malformed_response; an id the answer omitted fails open as
        missing_entry; everything else carries the model's classification.
        Nothing is suppressed unless a well-formed answer called it a
        false positive.
        """
        errors = []
        findings = report["retained"] + report["suppressed"]
        ids = [f["finding"]["id"] for f in findings]
        if len(ids) != len(set(ids)):
            errors.append(f"{len(ids) - len(set(ids))} findings appear more than once")
        if sorted(ids) != sorted(self.expected_ids):
            errors.append(f"report holds {len(ids)} findings, expected {len(self.expected_ids)}")
        batches: dict[int, set[str]] = {}
        for f in findings:
            batches.setdefault(f["batch_index"], set()).add(f["finding"]["id"])
        wrong_suppressions = 0
        mismatches = 0
        for f in findings:
            fid = f["finding"]["id"]
            verdict = f["verdict"]
            if not self.model.malformed.isdisjoint(batches[f["batch_index"]]):
                expected = ("fail_open", "true_positive", "malformed_response")
            elif fid in self.model.missing:
                expected = ("fail_open", "true_positive", "missing_entry")
            else:
                expected = ("llm_decision", self.model.verdict(fid), None)
            actual = (verdict["provenance"], verdict["classification"], verdict["cause"])
            if actual != expected:
                mismatches += 1
                if verdict["classification"] == "false_positive":
                    wrong_suppressions += 1
        if wrong_suppressions:
            errors.append(f"wrong_suppressions = {wrong_suppressions}")
        if mismatches:
            errors.append(f"{mismatches} verdicts differ from the fake model's answers")
        return errors


class Owasp(Workload):
    """The paper's 1,833-result scan, one ~3 KB file per test case."""

    name = "owasp"

    def prepare(self) -> None:
        scan = build_full_scale_scan()
        src = self.work / "src"
        for result in scan["results"]:
            path = src / result["path"]
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_java_file(self.rng, path.stem, 95), encoding="utf-8")
        (self.work / "scan.json").write_text(json.dumps(scan), encoding="utf-8")
        (self.work / "expected.csv").write_bytes(distribution_csv_bytes())
        (self.work / "baseline.txt").write_bytes(serialize_detections(detections_for(BASELINE_CELLS)))

        # Script the model to keep exactly the published pipeline detections.
        keep = detections_for(PIPELINE_CELLS)
        findings = _findings(scan)
        verdicts = {
            f.id: "true_positive" if (f.test_id, f.cwe.code) in keep else "false_positive"
            for f in findings
        }
        (self.work / "verdicts.json").write_text(json.dumps(verdicts), encoding="utf-8")
        self.expected_ids = [f.id for f in findings]
        self.model = fakemodel.FakeModel(self.seed, verdicts)

    def argv(self) -> list[str]:
        return [
            "run",
            "--scan-json", self.rel("scan.json"),
            "--target", self.rel("src"),
            "--ground-truth", self.rel("expected.csv"),
            "--baseline", self.rel("baseline.txt"),
            "--backend", "scripted",
            "--verdicts", self.rel("verdicts.json"),
            "--out-json", self.out_json,
            "--out-text", self.out_text,
        ]

    def in_process_model(self) -> dict:
        return self.model.spec()

    def extra_checks(self, report: dict) -> list[str]:
        errors = []
        card = report["scorecard"]
        matrix = card["overall"]["matrix"] if card else {}
        cells = tuple(matrix.get(k) for k in ("tp", "fp", "tn", "fn"))
        if cells != (1233, 64, 1261, 182):
            errors.append(f"scorecard {cells} is not 1233/64/1261/182")
        f1 = card["overall"]["metrics"]["f1"] if card else None
        if f1 is None or round(f1, 3) != 0.909:
            errors.append(f"F1 {f1} is not 0.909")
        deltas = report["baseline_deltas"]
        rel = deltas["overall"]["f1_rel"] if deltas else None
        if rel is None or round(rel * 100, 1) != 16.0:
            errors.append(f"F1 delta {rel} is not +16.0%")
        return errors


class FakeBackend:
    """The fake model as a sastsieve backend, answering with no latency."""

    def __init__(self, model: fakemodel.FakeModel):
        self.model = model

    def complete(self, request) -> str:
        return self.model.answer(request.system_text, request.user_text)[0]


class Dense(Workload):
    """A monorepo scan, ~20 findings per file, replayed from a cassette."""

    name = "dense"
    N_FILES = 150
    PER_FILE = 20

    def prepare(self) -> None:
        files = _dense_tree(self.rng, self.work / "repo", self.N_FILES, self.PER_FILE, "services")
        scan = _dense_scan(self.rng, files, self.PER_FILE)
        (self.work / "scan.json").write_text(json.dumps(scan), encoding="utf-8")
        self.expected_ids = [f.id for f in _findings(scan)]
        self.model = fakemodel.FakeModel(self.seed)

        # Record the cassette the timed runs replay, through the program's
        # own recorder, and keep the recording pass's report to compare.
        self.cassette = self.work / "cassette.json"
        plan = plan_mission(
            {
                "scan_json": self.rel("scan.json"),
                "target_root": self.rel("repo"),
                "out_json": self.out_json,
                "out_text": self.out_text,
            }
        )
        recorder = CassetteRecorder(FakeBackend(self.model), self.cassette)
        mission = run_mission(plan, recorder)
        recorder.save()
        self.recorded = json.loads(render_json(build_report(mission)))
        del self.recorded["timing"]

    def argv(self) -> list[str]:
        return [
            "run",
            "--scan-json", self.rel("scan.json"),
            "--target", self.rel("repo"),
            "--backend", "replay",
            "--cassette", self.rel("cassette.json"),
            "--out-json", self.out_json,
            "--out-text", self.out_text,
        ]

    def extra_checks(self, report: dict) -> list[str]:
        errors = []
        replayed = {k: v for k, v in report.items() if k != "timing"}
        if replayed != self.recorded:
            errors.append("replayed report differs from the recording pass outside timing")
        if report["fail_open_events"]:
            errors.append(f"{len(report['fail_open_events'])} fail-open events on replay")
        return errors


class LiveRescan(Workload):
    """A rerun over a slightly changed scan against a loopback model."""

    name = "live-rescan"
    N_FILES = 20
    PER_FILE = 20
    CHANGED_SHARE = 0.05
    PARALLELISM = 2
    UNAVAILABLE_BATCHES = 2
    MALFORMED_BATCHES = 1
    MISSING_FINDINGS = 8
    stub: fakemodel.Stub | None = None

    def prepare(self) -> None:
        files = _dense_tree(self.rng, self.work / "repo", self.N_FILES, self.PER_FILE, "apps")
        scan_a = _dense_scan(self.rng, files, self.PER_FILE)
        n_changed = max(1, round(self.CHANGED_SHARE * len(files)))
        changed = self.rng.sample(sorted(files, key=lambda f: f["path"]), n_changed)
        moved = _dense_scan(self.rng, changed, self.PER_FILE)["results"]
        kept = [r for r in scan_a["results"] if r["path"] not in {f["path"] for f in changed}]
        rescan = {"results": sorted(kept + moved, key=lambda r: (r["path"], r["start"]["line"]))}
        (self.work / "scan-a.json").write_text(json.dumps(scan_a), encoding="utf-8")
        (self.work / "scan-b.json").write_text(json.dumps(rescan), encoding="utf-8")
        self.expected_ids = [f.id for f in _findings(rescan)]

        # Faults fall on finding ids of the timed scan, in distinct batches;
        # 503s go to the first half so that a retried batch never ends the run.
        batches = [self.expected_ids[i : i + BATCH_SIZE] for i in range(0, len(self.expected_ids), BATCH_SIZE)]
        order = list(range(len(batches)))
        early = self.rng.sample(order[: len(order) // 2], self.UNAVAILABLE_BATCHES)
        rest = [i for i in order if i not in early]
        malformed = self.rng.sample(rest, self.MALFORMED_BATCHES)
        rest = [i for i in rest if i not in malformed]
        missing = [self.rng.choice(batches[i]) for i in self.rng.sample(rest, self.MISSING_FINDINGS)]
        self.model = fakemodel.FakeModel(
            self.seed,
            malformed=[self.rng.choice(batches[i]) for i in malformed],
            missing=missing,
            unavailable=[self.rng.choice(batches[i]) for i in early],
        )
        self.stub = fakemodel.Stub(self.model, workers=min(self.PARALLELISM, len(self.cpus)))
        self.env |= {
            "QSC_API_KEY": "perfbench",
            "QSC_API_BASE": f"http://127.0.0.1:{self.stub.port}/v1",
        }
        self.cassette = self.work / "cassette.json"
        self.primed = self.work / "cassette-primed.json"

        # One untimed pass over the first scan fills the cassette.
        self.scan = "scan-a.json"
        first = self.invoke(traced=False)
        if first["errors"]:
            raise RuntimeError(f"priming pass failed: {first['errors']}")
        shutil.copyfile(self.cassette, self.primed)
        self.scan = "scan-b.json"

    def argv(self) -> list[str]:
        return [
            "run",
            "--scan-json", self.rel(self.scan),
            "--target", self.rel("repo"),
            "--backend", "live",
            "--model", "fake-reviewer",
            "--cassette", self.rel("cassette.json"),
            "--parallelism", str(self.PARALLELISM),
            "--out-json", self.out_json,
            "--out-text", self.out_text,
        ]

    def before_invoke(self) -> None:
        if self.scan == "scan-b.json":
            shutil.copyfile(self.primed, self.cassette)
        self.stub.reset()

    def model_stats(self, child: dict) -> dict:
        stats = self.stub.stats()
        return {
            "attempts": stats["attempts"],
            "retries": stats["retries"],
            "model_s": sum(stats["service_s"]),
            "connections": stats["connections"],
        }

    def check_verdicts(self, report: dict) -> list[str]:
        if self.scan == "scan-a.json":
            return []  # the priming pass is not measured
        return super().check_verdicts(report)

    def extra_checks(self, report: dict) -> list[str]:
        if self.scan == "scan-a.json":
            return []
        errors = []
        try:
            records = json.loads(self.cassette.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"cassette unreadable after the run: {exc}"]
        if not isinstance(records, list) or len(records) < report["stats"]["batch_count"]:
            errors.append("cassette lacks a record per batch")
        return errors

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


WORKLOADS = {w.name: w for w in (Owasp, Dense, LiveRescan)}
